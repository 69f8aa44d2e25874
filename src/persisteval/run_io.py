"""Reading, parsing, and validation of TREC-format inputs.

Three line-oriented file formats are handled:

- Run file: 6 whitespace-separated columns per line,
  ``topic iteration doc rank score tag`` (the classic TREC run format).
- Qrels file: 4 whitespace-separated columns, ``topic iteration doc grade``,
  with grades on a three-level scale {0, 1, 2}.
- Topic list file: one topic id per line; blank lines and lines starting
  with ``#`` are ignored.

Parsed values are immutable after construction and safe to share across
threads. A run holds each topic's ranked doc ids in canonical order: score
descending, then doc id descending. Scores only set that order and are not
kept; the rank column of a run file is validated but otherwise ignored, so
scores are reproducible regardless of input line order. Per-topic rankings
deeper than MAX_DEPTH documents are truncated with a warning. Qrels hold one
map, topic -> doc -> grade.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, dataclass
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError, DiagnosticWarning, ParseError

# Deepest ranking position that is ever evaluated per topic.
MAX_DEPTH = 1000

GRADES = (0, 1, 2)

TopicSet = frozenset[str]


@dataclass(frozen=True)
class Run:
    """A system's ranked output: per-topic doc ids in canonical order, keyed
    by topic and identified by a run tag."""

    run_tag: str
    rankings: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_rankings(cls, run_tag: str, rankings: Mapping[str, Mapping[str, float]]) -> "Run":
        """Build a Run from topic -> doc_id -> score maps: sort every topic by
        score descending, then doc id descending, and keep the doc ids. Topics
        are stored in sorted order for deterministic emission."""
        ordered: dict[str, tuple[str, ...]] = {}
        truncated = 0
        for topic, scores in sorted(rankings.items()):
            pairs = sorted(zip(scores.values(), scores), reverse=True)  # (score, doc)
            if not pairs:
                raise DataError(f"run {run_tag!r}: topic {topic!r} has an empty ranking")
            docs = tuple(map(itemgetter(1), pairs))
            if len(docs) > MAX_DEPTH:
                docs = docs[:MAX_DEPTH]
                truncated += 1
            ordered[topic] = docs
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
        return self.rankings.get(topic_id, ())


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments: topic_id -> doc_id -> grade."""

    judgments: Mapping[str, Mapping[str, int]]

    @property
    def topics(self) -> TopicSet:
        return frozenset(self.judgments)

    def for_topic(self, topic_id: str) -> Mapping[str, int]:
        """doc_id -> grade for one topic; empty for an unjudged topic."""
        return self.judgments.get(topic_id, {})


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
    tag_line = 0
    # The list of lines is bound to no name, so it is freed when the loop ends.
    for number, line in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            topic, _iteration, doc, rank_text, score_text, line_tag = fields
        except ValueError:
            raise ParseError(
                f"expected 6 fields (topic iteration doc rank score tag), got {len(fields)}",
                line=number,
                path=path,
            ) from None
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
        if not isfinite(score):
            raise ParseError(f"non-finite score {score_text!r}", line=number, path=path)
        if line_tag != tag:
            if tag is not None:
                raise DataError(
                    f"conflicting run tags {tag!r} and {line_tag!r}", line=number, path=path
                )
            tag, tag_line = line_tag, number
        docs = per_topic.get(topic)
        if docs is None:
            docs = per_topic[topic] = {}
        elif doc in docs:
            raise DataError(
                f"duplicate document {doc!r} for topic {topic!r}", line=number, path=path
            )
        docs[doc] = score
    if tag is None:
        raise DataError("run file contains no records", path=path)
    if expected_tag is not None and tag != expected_tag:
        raise DataError(
            f"run tag {tag!r} does not match expected tag {expected_tag!r}",
            line=tag_line,
            path=path,
        )
    return Run.from_rankings(tag, per_topic)


def parse_qrels(text: str | Iterable[str], *, path: str | None = None) -> Qrels:
    """Parse a TREC qrels file. Grades outside {0, 1, 2} are rejected;
    duplicate (topic, doc) lines are rejected unless the grades agree, in
    which case the duplicate is accepted with a warning."""
    judgments: dict[str, dict[str, int]] = {}
    duplicates = 0
    for number, line in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            topic, _iteration, doc, grade_text = fields
        except ValueError:
            raise ParseError(
                f"expected 4 fields (topic iteration doc grade), got {len(fields)}",
                line=number,
                path=path,
            ) from None
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(
                f"non-integer relevance grade {grade_text!r}", line=number, path=path
            ) from None
        if grade not in GRADES:
            raise DataError(
                f"relevance grade {grade} out of range {set(GRADES)}", line=number, path=path
            )
        grades = judgments.setdefault(topic, {})
        if grades.get(doc, grade) != grade:
            raise DataError(
                f"conflicting grades for topic {topic!r} doc {doc!r}: {grades[doc]} vs {grade}",
                line=number,
                path=path,
            )
        duplicates += doc in grades
        grades[doc] = grade
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
    for number, line in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
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


def _non_finite(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def parse_json(text: str, *, path: str | None = None):
    """Decode a JSON document. Text the decoder refuses, or a NaN or Infinity
    literal, is a ParseError naming the path (and the line, if it gives one)."""
    try:
        return json.loads(text, parse_constant=_non_finite)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(
            f"invalid JSON: {exc}", line=getattr(exc, "lineno", None), path=path
        ) from exc


_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", bool: "true or false",
    float: "a number", int: "an integer",
}


def json_typed(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind``, else a ValueError naming
    the field path ``where``. A number (``float``) is a JSON integer or
    float and is returned as a float; a boolean is neither a number nor an
    integer."""
    if type(value) is kind:
        return value
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} is out of range, got {value}") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def json_strings(items: list, where: str) -> tuple[str, ...]:
    """``items`` as a tuple if each is a string, else a ValueError naming
    the path ``where[i]`` of the first that is not."""
    for i, item in enumerate(items):
        json_typed(item, str, f"{where}[{i}]")
    return tuple(items)


def json_checked(where: str, build, *args):
    """``build(*args)``; a ValueError or DataError it raises (a value of the
    right JSON type failed a value check) names the field path ``where``."""
    try:
        return build(*args)
    except (ValueError, DataError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def json_member(
    obj: Mapping, key: str, kind: type, where: str = "", default=MISSING, null=MISSING
):
    """``obj[key]`` checked by ``json_typed`` at the path ``where.key`` (or
    ``key``). ``default`` stands in for an absent key and ``null`` for a JSON
    null; MISSING forbids either."""
    value = obj.get(key, MISSING)
    # A value of the right type is returned before any path is built.
    if type(value) is kind:
        return value
    if value is MISSING:
        if default is MISSING:
            raise ValueError(f"{where}.{key} is missing" if where else f"{key} is missing")
        return default
    if value is None and null is not MISSING:
        return null
    return json_typed(value, kind, f"{where}.{key}" if where else key)


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
    core = frozenset(sets[0]).intersection(*sets[1:])
    if not core:
        warnings.warn("topic intersection is empty", DiagnosticWarning, stacklevel=2)
    return core
