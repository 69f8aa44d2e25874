"""Reading, parsing, and validation of TREC-format inputs.

Three file formats of LF-ended lines are handled, each parsed from a file's text:

- Run file: 6 whitespace-separated columns per line,
  ``topic iteration doc rank score tag`` (the classic TREC run format).
- Qrels file: 4 whitespace-separated columns, ``topic iteration doc grade``,
  with grades on a three-level scale {0, 1, 2}.
- Topic list file: one topic id per line; blank lines and lines starting
  with ``#`` are ignored.

Parsed records are immutable and safe to share across threads. A run holds
each topic's first ``depth`` doc ids (at most MAX_DEPTH; deeper rankings are
truncated with a warning) in canonical order: score descending, then doc id
descending. The depth is set once, where the run is read. ``Run.judged``, the
one place doc ids meet qrels, turns every doc id the run holds into a grade
and records the qrels, which the measures then read. Ranks are validated, then
ignored, so scores do not depend on line order. Qrels map topics to
TopicJudgments (read-only maps).

JSON inputs (the job manifest and cells.json) are read by the typed-JSON
readers ``json_fields``, ``json_checked`` and ``json_object``, the one place
where a refused value gets its field path, e.g. ``cells[3].pair``.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from math import isfinite, isnan, log2
from operator import itemgetter, truediv
from pathlib import Path
from types import MappingProxyType

from .errors import DataError, DiagnosticWarning, ParseError, Record, UsageError

# Deepest ranking position that is ever evaluated per topic.
MAX_DEPTH = 1000

GRADES = (0, 1, 2)

TopicSet = frozenset[str]

# No value: an absent key, or (as json_fields's default or null) none allowed.
MISSING = object()


class Run(Record, namedtuple("Run", "run_tag rankings depth qrels", defaults=(None, None))):
    """A system's ranked output, keyed by topic and tagged: per-topic doc ids in canonical order,
    read to ``depth`` (None: MAX_DEPTH), or once judged by ``qrels``, their grades."""

    __slots__ = ()

    @classmethod
    def from_rankings(
        cls, run_tag: str, rankings: Mapping[str, Mapping[str, float]], depth: int = MAX_DEPTH
    ) -> "Run":
        """A Run of topic -> doc_id -> score maps: each topic's first ``depth`` doc ids by score,
        then doc id, descending (a depth below MAX_DEPTH is recorded); topics in sorted order."""
        if depth < 1:
            raise ValueError(f"run {run_tag!r}: depth must be >= 1, got {depth}")
        depth = min(depth, MAX_DEPTH)
        ordered: dict[str, tuple[str, ...]] = {}
        truncated = 0
        for topic, scores in sorted(rankings.items()):
            truncated += len(scores) > MAX_DEPTH
            # Only a score >= the depth-th largest can rank: keep those if that drops most of the topic.
            if len(scores) > 2 * depth and not isnan(sum(scores.values())):  # NaN has no order
                floor = sorted(scores.values())[-depth]
                scores = {doc: s for doc, s in scores.items() if s >= floor}
            pairs = sorted(zip(scores.values(), scores), reverse=True)  # (score, doc)
            if not pairs:
                raise DataError(f"run {run_tag!r}: topic {topic!r} has an empty ranking")
            ordered[topic] = tuple(map(itemgetter(1), pairs))[:depth]
        if truncated:
            warnings.warn(
                f"run {run_tag!r}: {truncated} topic(s) deeper than {MAX_DEPTH} "
                "documents were truncated",
                DiagnosticWarning,
                stacklevel=2,
            )
        return cls(run_tag=run_tag, rankings=ordered, depth=depth if depth < MAX_DEPTH else None)

    @property
    def topics(self) -> TopicSet:
        return frozenset(self.rankings)

    def judged(self, qrels: Qrels) -> "Run":
        """Each topic's doc ids, as deep as the run was read, as grades (None: unjudged)."""
        if self.qrels is not None:
            raise TypeError(f"run {self.run_tag!r} is already judged")
        judged = {t: tuple(map(qrels.for_topic(t).grades.get, d)) for t, d in self.rankings.items()}
        return self._replace(rankings=judged, depth=self.depth or MAX_DEPTH, qrels=qrels)


class TopicJudgments(Record, namedtuple("TopicJudgments", "grades ideal nonrelevant")):
    """One topic's judgments, built only from its doc_id -> grade map (or a TopicJudgments):
    ``grades``, a read-only view of a private copy; ``ideal``, the ideal ranking's DCG terms
    (grades >= 1, descending, the i-th over log2(i + 1)); ``nonrelevant``, the grade-0 count."""

    __slots__ = ()

    def __new__(cls, grades: Mapping[str, int] | TopicJudgments):
        grades = dict(grades.grades if type(grades) is cls else grades)
        relevant = sorted((grade for grade in grades.values() if grade >= 1), reverse=True)
        ideal = tuple(map(truediv, relevant, map(log2, range(2, len(relevant) + 2))))
        return tuple.__new__(cls, (MappingProxyType(grades), ideal, [*grades.values()].count(0)))

    def __getnewargs__(self):  # copy and pickle rebuild it from its grades
        return (dict(self.grades),)


class Qrels(Record, namedtuple("Qrels", "judgments")):
    """Graded relevance judgments: topic_id -> TopicJudgments, each built once here."""

    __slots__ = ()
    _UNJUDGED = TopicJudgments({})

    def __new__(cls, judgments: Mapping[str, Mapping[str, int]]):
        return tuple.__new__(cls, ({t: TopicJudgments(g) for t, g in judgments.items()},))

    @property
    def topics(self) -> TopicSet:
        return frozenset(self.judgments)

    def for_topic(self, topic_id: str) -> TopicJudgments:
        """One topic's judgments; with no grades for an unjudged topic."""
        return self.judgments.get(topic_id, self._UNJUDGED)


def parse_run(
    text: str, expected_tag: str | None = None, *, path: str | None = None, depth: int = MAX_DEPTH
) -> Run:
    """Parse a TREC run file's text into a Run in canonical order, to ``depth``.

    The run tag is taken from the records; all lines must agree, and must
    match ``expected_tag`` when one is given. Stated ranks are validated as
    positive integers but do not influence the resulting order.
    """
    per_topic: dict[str, dict[str, float]] = {}
    tag: str | None = None
    tag_line, last_topic = 0, None
    # The list of lines is bound to no name, so it is freed when the loop ends.
    for number, line in enumerate(text.split("\n"), start=1):
        try:  # fields is bound before it is unpacked
            fields = topic, _iteration, doc, rank_text, score_text, line_tag = line.split()
        except ValueError:
            if not fields:
                continue
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
        if topic != last_topic:  # a topic's lines are mostly listed together
            last_topic, docs = topic, per_topic.setdefault(topic, {})
        if doc in docs:
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
    return Run.from_rankings(tag, per_topic, depth)


def parse_qrels(text: str, *, path: str | None = None) -> Qrels:
    """Parse a TREC qrels file's text. Grades outside {0, 1, 2} are rejected;
    duplicate (topic, doc) lines are rejected unless the grades agree, in
    which case the duplicate is accepted with a warning."""
    judgments: dict[str, dict[str, int]] = {}
    duplicates = 0
    for number, line in enumerate(text.split("\n"), start=1):
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


def parse_topics(text: str, *, path: str | None = None) -> TopicSet:
    """Parse a topic list file's text: one id per line, ``#`` comments and blanks
    ignored. A list with no topic is a DataError."""
    topics: set[str] = set()
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if len(line.split()) != 1:
            raise ParseError(f"topic id may not contain whitespace: {line!r}", line=number, path=path)
        topics.add(line)
    if not topics:
        raise DataError("topics file lists no topics", path=path)
    return frozenset(topics)


def read_input(path: str | Path) -> str:
    """Read a UTF-8 input file, without a leading byte-order mark. An
    unreadable file, or one that is not valid UTF-8, is a ParseError naming
    the path (and the line of the first undecodable byte)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}", path=str(path)) from exc
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"invalid UTF-8 byte at offset {exc.start}", line=line, path=str(path)
        ) from None


def _non_finite(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def parse_json(text: str, *, path: str | None = None):
    """Decode a JSON document. Text the decoder refuses, a NaN or Infinity
    literal, or a string that UTF-8 cannot hold (a lone surrogate escape) is
    a ParseError naming the path (and the line, if it gives one)."""
    try:
        data = json.loads(text, parse_constant=_non_finite)
        if "\\" in text and re.search(r"\\u[dD][89a-fA-F]", text):  # any surrogate escape
            json.dumps(data, ensure_ascii=False).encode()
        return data
    except UnicodeEncodeError as exc:  # the line is that of the first string holding it
        strings = re.finditer(r'"(?:[^"\\]|\\.)*"', text)
        at = next(m.start() for m in strings if exc.object[exc.start] in json.loads(m[0]))
        reason, line = "a string holds a lone surrogate escape", text.count("\n", 0, at) + 1
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        reason, line = exc, getattr(exc, "lineno", None)
    raise ParseError(f"invalid JSON: {reason}", line=line, path=path)


_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", bool: "true or false",
    float: "a number", int: "an integer",
}


def json_typed(value, kind: type, where: str):
    """``value`` if its type is exactly the JSON type ``kind``, else a
    ValueError naming the field path ``where``. A number (``float``) is a
    JSON integer or float and is returned as a float; a boolean is neither
    a number nor an integer."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where} is out of range, got {value}") from None
    raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")


def json_strings(items: list, where: str) -> tuple[str, ...]:
    """``items`` as a tuple if each is a string, else a ValueError naming
    the path ``where[i]`` of the first that is not."""
    for i, item in enumerate(items):
        json_typed(item, str, f"{where}[{i}]")
    return tuple(items)


def json_checked(check):
    """The reader ``read(value, where)`` of ``check(value)``: a ValueError,
    DataError or UsageError that ``check`` raises (a value of the right JSON
    type failed a value check) names the field path ``where``."""

    def read(value, where: str):
        try:
            return check(value)
        except (ValueError, DataError, UsageError) as exc:
            raise ValueError(f"{where}: {exc}") from exc

    return read


def json_object(fields: Sequence[tuple], build):
    """The reader of one JSON object: ``build`` of the values of its ``fields``
    (see ``json_fields``), checked as ``json_checked`` checks."""
    checked = json_checked(build)
    return lambda value, at: checked(json_fields(json_typed(value, dict, at), fields, at), at)


def json_fields(data: Mapping, fields: Sequence[tuple], where: str = "") -> list:
    """The value of each field of the object ``data`` at the path ``where``.
    A field is (key, JSON type, decode, null, default), then any items of the
    caller's; a key that no field names is refused. A value must have its
    JSON type (see ``json_typed``); ``null`` reads a JSON null and ``default``
    an absent key, and MISSING forbids either. ``decode(value, path)``, if
    given, then builds it."""
    prefix = f"{where}." if where else ""
    unknown = data.keys() - {field[0] for field in fields}
    if unknown:
        raise ValueError(f"{prefix}{min(unknown)} is not a field")
    values = []
    for key, kind, decode, null, default, *_ in fields:
        value = data.get(key, MISSING)
        # A value of the right type is kept before any path is built.
        if type(value) is not kind:
            if value is None and null is not MISSING:
                value = null
            elif value is not MISSING:
                value = json_typed(value, kind, prefix + key)
            elif default is not MISSING:
                value = default
            else:
                raise ValueError(f"{prefix}{key} is missing")
        values.append(value if decode is None else decode(value, prefix + key))
    return values


def load_run(path: str | Path, expected_tag: str | None = None, depth: int = MAX_DEPTH) -> Run:
    return parse_run(read_input(path), expected_tag, path=str(path), depth=depth)


def load_qrels(path: str | Path) -> Qrels:
    return parse_qrels(read_input(path), path=str(path))


def load_topics(path: str | Path) -> TopicSet:
    return parse_topics(read_input(path), path=str(path))


def core_topics(sets: Mapping[str, TopicSet]) -> TopicSet:
    """The topics that every snapshot holds: the intersection of the topic
    sets, keyed by snapshot label. No set, or an empty core, is a DataError;
    the latter names the snapshots."""
    if not sets:
        raise DataError("core_topics needs at least one topic set")
    core = frozenset.intersection(*map(frozenset, sets.values()))
    if not core:
        raise DataError(f"core topic intersection across environments {list(sets)} is empty")
    return core


def snapshot_topics(qrels: Qrels, runs: Iterable[Run], path: str | Path | None = None) -> TopicSet:
    """A snapshot's topic set: the topics file's at ``path`` if one is given,
    else every topic that its qrels and runs hold."""
    if path is not None:
        return load_topics(path)
    return qrels.topics.union(*(run.topics for run in runs))
