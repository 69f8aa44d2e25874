"""Serializers back to the TREC text formats, used by round-trip tests."""

from __future__ import annotations

from persisteval.run_io import Qrels, Run


def format_run(run: Run) -> str:
    """Serialize a Run back to the 6-column format, topics in sorted order,
    ranks renumbered from 1. Scores use their shortest exact representation
    so that parse(format(run)) == run."""
    lines = []
    for topic in sorted(run.rankings):
        for rank, (doc, score) in enumerate(run.rankings[topic], start=1):
            lines.append(f"{topic} Q0 {doc} {rank} {score!r} {run.run_tag}")
    return "\n".join(lines) + "\n" if lines else ""


def format_qrels(qrels: Qrels) -> str:
    lines = [
        f"{topic} 0 {doc} {grade}"
        for (topic, doc), grade in sorted(qrels.judgments.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""
