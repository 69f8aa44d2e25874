"""Reading, parsing, and validation of TREC-format inputs.

Three line-oriented file formats are handled:

- Run file: 6 whitespace-separated columns per line,
  ``topic iteration doc rank score tag`` (the classic TREC run format).
- Qrels file: 4 whitespace-separated columns, ``topic iteration doc grade``,
  with grades on a three-level scale {0, 1, 2}.
- Topic list file: one topic id per line; blank lines and lines starting
  with ``#`` are ignored.

Parsed values are immutable after construction and safe to share across
threads. Rankings are always held in canonical order: score descending,
then doc id descending. The rank column of a run file is validated but
otherwise ignored, so scores are reproducible regardless of input line
order. Per-topic rankings deeper than MAX_DEPTH documents are truncated
with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataError, DiagnosticWarning, ParseError

# Deepest ranking position that is ever evaluated per topic.
MAX_DEPTH = 1000

GRADES = (0, 1, 2)

TopicSet = frozenset[str]


class RunRecord(NamedTuple):
    """One line of a run file. ``iteration`` is carried along but unused."""

    topic_id: str
    iteration: str
    doc_id: str
    rank: int
    score: float
    run_tag: str


def _iter_lines(text: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line_number, stripped_line) for non-blank lines; accepts a
    string or any iterable of lines (e.g. an open file)."""
    lines = text.splitlines() if isinstance(text, str) else text
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield number, line


def canonical_order(items: Iterable[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    """Sort (doc_id, score) pairs by score descending, doc_id descending."""
    return tuple(sorted(items, key=lambda pair: (pair[1], pair[0]), reverse=True))


@dataclass(frozen=True)
class Run:
    """A system's ranked output: per-topic (doc_id, score) lists in
    canonical order, keyed by topic and identified by a run tag."""

    run_tag: str
    rankings: Mapping[str, tuple[tuple[str, float], ...]]

    @classmethod
    def from_rankings(
        cls, run_tag: str, rankings: Mapping[str, Iterable[tuple[str, float]]]
    ) -> "Run":
        """Build a Run, sorting every topic into canonical order and storing
        topics in sorted order for deterministic emission."""
        ordered: dict[str, tuple[tuple[str, float], ...]] = {}
        truncated = 0
        for topic in sorted(rankings):
            ranking = canonical_order(rankings[topic])
            if not ranking:
                raise DataError(f"run {run_tag!r}: topic {topic!r} has an empty ranking")
            docs = [doc for doc, _ in ranking]
            if len(set(docs)) != len(docs):
                raise DataError(f"run {run_tag!r}: duplicate document in topic {topic!r}")
            if len(ranking) > MAX_DEPTH:
                ranking = ranking[:MAX_DEPTH]
                truncated += 1
            ordered[topic] = ranking
        if truncated:
            warnings.warn(
                f"run {run_tag!r}: {truncated} topic(s) deeper than {MAX_DEPTH} "
                "documents were truncated",
                DiagnosticWarning,
                stacklevel=2,
            )
        return cls(run_tag=run_tag, rankings=ordered)

    @property
    def topics(self) -> TopicSet:
        return frozenset(self.rankings)

    def docs(self, topic_id: str) -> tuple[str, ...]:
        """Ranked doc ids for one topic; empty for an absent topic."""
        return tuple(doc for doc, _ in self.rankings.get(topic_id, ()))


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by (topic_id, doc_id)."""

    judgments: Mapping[tuple[str, str], int]

    @cached_property
    def by_topic(self) -> dict[str, dict[str, int]]:
        grouped: dict[str, dict[str, int]] = {}
        for (topic, doc), grade in self.judgments.items():
            grouped.setdefault(topic, {})[doc] = grade
        return grouped

    @property
    def topics(self) -> TopicSet:
        return frozenset(topic for topic, _ in self.judgments)

    def for_topic(self, topic_id: str) -> dict[str, int]:
        """doc_id -> grade for one topic; empty for an unjudged topic."""
        return self.by_topic.get(topic_id, {})


def iter_run_records(
    text: str | Iterable[str], *, path: str | None = None
) -> Iterator[RunRecord]:
    """Yield one validated RunRecord per non-blank line of a run file."""
    for number, line in _iter_lines(text):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(
                f"expected 6 fields (topic iteration doc rank score tag), got {len(fields)}",
                line=number,
                path=path,
            )
        topic, iteration, doc, rank_text, score_text, tag = fields
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(f"non-integer rank {rank_text!r}", line=number, path=path) from None
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {rank}", line=number, path=path)
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"non-numeric score {score_text!r}", line=number, path=path) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", line=number, path=path)
        yield RunRecord(topic, iteration, doc, rank, score, tag)


def parse_run(
    text: str | Iterable[str],
    expected_tag: str | None = None,
    *,
    path: str | None = None,
) -> Run:
    """Parse a TREC run file into a Run in canonical order.

    The run tag is taken from the records; all lines must agree, and must
    match ``expected_tag`` when one is given. Stated ranks are validated as
    positive integers but do not influence the resulting order.
    """
    per_topic: dict[str, dict[str, float]] = {}
    tag: str | None = None
    for record in iter_run_records(text, path=path):
        if tag is None:
            tag = record.run_tag
        elif record.run_tag != tag:
            raise DataError(f"conflicting run tags {tag!r} and {record.run_tag!r}")
        docs = per_topic.setdefault(record.topic_id, {})
        if record.doc_id in docs:
            raise DataError(
                f"duplicate document {record.doc_id!r} for topic {record.topic_id!r}"
            )
        docs[record.doc_id] = record.score
    if tag is None:
        raise DataError("run file contains no records" + (f" ({path})" if path else ""))
    if expected_tag is not None and tag != expected_tag:
        raise DataError(f"run tag {tag!r} does not match expected tag {expected_tag!r}")
    return Run.from_rankings(tag, {t: docs.items() for t, docs in per_topic.items()})


def parse_qrels(text: str | Iterable[str], *, path: str | None = None) -> Qrels:
    """Parse a TREC qrels file. Grades outside {0, 1, 2} are rejected;
    duplicate (topic, doc) lines are rejected unless the grades agree, in
    which case the duplicate is accepted with a warning."""
    judgments: dict[tuple[str, str], int] = {}
    duplicates = 0
    for number, line in _iter_lines(text):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(
                f"expected 4 fields (topic iteration doc grade), got {len(fields)}",
                line=number,
                path=path,
            )
        topic, _iteration, doc, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(
                f"non-integer relevance grade {grade_text!r}", line=number, path=path
            ) from None
        if grade not in GRADES:
            raise DataError(
                f"relevance grade {grade} out of range {set(GRADES)} (line {number})"
            )
        key = (topic, doc)
        if key in judgments:
            if judgments[key] != grade:
                raise DataError(
                    f"conflicting grades for topic {topic!r} doc {doc!r}: "
                    f"{judgments[key]} vs {grade} (line {number})"
                )
            duplicates += 1
            continue
        judgments[key] = grade
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate judgment line(s) with matching grades were ignored",
            DiagnosticWarning,
            stacklevel=2,
        )
    return Qrels(judgments=judgments)


def parse_topics(text: str | Iterable[str], *, path: str | None = None) -> TopicSet:
    """Parse a topic list: one id per line, ``#`` comments and blanks ignored."""
    topics: set[str] = set()
    for number, line in _iter_lines(text):
        if line.startswith("#"):
            continue
        if len(line.split()) != 1:
            raise ParseError(f"topic id may not contain whitespace: {line!r}", line=number, path=path)
        topics.add(line)
    return frozenset(topics)


def read_input(path: str | Path) -> str:
    """Read a UTF-8 input file. An unreadable file, or one that is not
    valid UTF-8, is a ParseError naming the path (and the line of the first
    undecodable byte)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=str(path)) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"invalid UTF-8 byte at offset {exc.start}", line=line, path=str(path)
        ) from None


def load_run(path: str | Path, expected_tag: str | None = None) -> Run:
    return parse_run(read_input(path), expected_tag, path=str(path))


def load_qrels(path: str | Path) -> Qrels:
    return parse_qrels(read_input(path), path=str(path))


def load_topics(path: str | Path) -> TopicSet:
    return parse_topics(read_input(path), path=str(path))


def core_topics(sets: Sequence[TopicSet]) -> TopicSet:
    """Intersection of all given topic sets (the topics present everywhere).

    An empty intersection is legal but flagged with a warning since every
    downstream score would be computed over nothing.
    """
    if not sets:
        raise DataError("core_topics needs at least one topic set")
    core = frozenset(sets[0])
    for topic_set in sets[1:]:
        core &= topic_set
    if not core:
        warnings.warn("topic intersection is empty", DiagnosticWarning, stacklevel=2)
    return core
