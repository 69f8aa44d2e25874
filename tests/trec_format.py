"""Serializers back to the TREC text formats, used by round-trip tests."""

from __future__ import annotations

from persisteval.run_io import Qrels, Run


def format_run(run: Run) -> str:
    """Serialize a Run back to the 6-column format, topics in sorted order,
    ranks renumbered from 1. A Run keeps no scores, so each line gets a
    score derived from its rank, strictly descending within a topic; the
    canonical order is then the stored one and parse(format(run)) == run."""
    lines = []
    for topic in sorted(run.rankings):
        docs = run.rankings[topic]
        for rank, doc in enumerate(docs, start=1):
            lines.append(f"{topic} Q0 {doc} {rank} {len(docs) - rank + 1} {run.run_tag}")
    return "\n".join(lines) + "\n" if lines else ""


def format_qrels(qrels: Qrels) -> str:
    lines = [
        f"{topic} 0 {doc} {grade}"
        for topic, judgments in sorted(qrels.judgments.items())
        for doc, grade in sorted(judgments.grades.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""
