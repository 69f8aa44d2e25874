"""Per-topic effectiveness measures and their aggregation.

Three measures read a ranking's grades (``Run.judged``) and its topic's
``TopicJudgments``, with the reference evaluation tool's graded conventions:

- P@k: fraction of the first k retrieved documents judged relevant
  (grade >= 1). Unjudged documents count as not relevant and the
  denominator stays k even when fewer documents were retrieved.
- nDCG: discounted cumulative gain with linear gains (gain = grade) and
  1/log2(rank + 1) discounts, normalized by the ideal ranking of all
  judged documents. Optionally cut off at a fixed depth. A topic with no
  relevant judgment scores 0.
- bpref: preference-based measure counting judged-nonrelevant documents
  ranked above judged-relevant ones; unaffected by unjudged documents,
  which makes it the robust choice when the document collection drifts.

``score_run`` evaluates one judged run, against the qrels that judged it, over
an explicit topic set: topics absent from the run score 0 under every measure,
so averages for different systems share one denominator. ``arp`` is the
arithmetic mean of a per-topic score vector (the average retrieval performance).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from operator import truediv

from .errors import DataError, Record
from .run_io import MAX_DEPTH, Run, TopicJudgments, TopicSet
from .stats import mean

_LABELS = {"precision_at_k": "P", "ndcg": "nDCG", "bpref": "bpref"}  # kind -> name before any @
KINDS = tuple(_LABELS)
Grades = Sequence[int | None]  # one ranking's grades in rank order; None: unjudged


class MeasureId(Record, namedtuple("MeasureId", "kind cut")):
    """Identifies one measure variant. ``cut`` is k for P@k (required), the
    cutoff for nDCG@c (None: the whole ranking) and None for bpref."""

    __slots__ = ()

    def __new__(cls, kind: str, cut: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown measure kind {kind!r}; expected one of {KINDS}")
        if cut is None and kind == "precision_at_k":
            raise ValueError("precision_at_k needs a cut k")
        if cut is not None and kind == "bpref":
            raise ValueError(f"bpref takes no cut, got {cut}")
        if cut is not None and cut < 1:
            raise ValueError(f"cut must be >= 1, got {cut}")
        return tuple.__new__(cls, (kind, cut))

    @property
    @functools.cache
    def name(self) -> str:
        """Display name: P@10, nDCG, nDCG@20, bpref. Computed once per
        measure; it is not a field, so ``==``, ``hash`` and ``repr`` ignore it."""
        label = _LABELS[self.kind]
        return label if self.cut is None else f"{label}@{self.cut}"

    @property
    def key(self) -> str:
        """File-name-safe identifier: p_at_10, ndcg, ndcg_at_20, bpref."""
        return self.name.lower().replace("@", "_at_")

    @property
    def depth(self) -> int:
        """The ranks it reads: k for P@k, the cutoff for nDCG@c, else all of them."""
        return self.cut or MAX_DEPTH


P_AT_10 = MeasureId("precision_at_k", 10)
NDCG = MeasureId("ndcg")
BPREF = MeasureId("bpref")
_KIND_OF = {label.lower(): kind for kind, label in _LABELS.items()}


@functools.lru_cache(maxsize=256)
def parse_measure(text: str) -> MeasureId:
    """Parse a measure name: ``p@N``, ``ndcg``, ``ndcg@N`` or ``bpref``, N a
    positive integer in ASCII digits (case-insensitive, surrounding whitespace
    stripped). Raises ValueError for anything else. Each distinct name is
    resolved once; repeats return the same MeasureId."""
    label, at, cut = text.strip().lower().partition("@")
    if label in _KIND_OF and (not at or cut.isascii() and cut.isdigit()):
        try:  # int() refuses a cut past its digit limit, MeasureId a cut its kind does not take
            return MeasureId(_KIND_OF[label], int(cut) if at else None)
        except ValueError:
            pass
    raise ValueError(f"invalid measure name {text!r}")


class TopicScoreVector(Record, namedtuple("TopicScoreVector", "measure run_tag ee_label scores")):
    """One measure's per-topic scores for one run in one evaluation
    environment. Scores lie in [0, 1]."""

    __slots__ = ()


class ARPValue(Record, namedtuple("ARPValue", "value n_topics")):
    """Mean of a per-topic score vector plus the topic count behind it."""

    __slots__ = ()


def p_at_k(grades: Grades, k: int) -> float:
    """Precision at depth k: the share of the first k ranks judged relevant."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return sum(1 for grade in grades[:k] if grade is not None and grade >= 1) / k


def ndcg(grades: Grades, judgments: TopicJudgments, cutoff: int | None = None) -> float:
    """Normalized DCG with linear gains, to depth ``cutoff`` (None: the whole
    ranking); 0 when nothing relevant is judged."""
    if cutoff is not None and cutoff < 1:
        raise DataError(f"cutoff must be >= 1, got {cutoff}")
    gains = [0 if grade is None else grade for grade in grades[:cutoff]]
    dcg = math.fsum(map(truediv, gains, map(math.log2, range(2, len(gains) + 2))))
    return dcg / math.fsum(judgments.ideal[:cutoff]) if judgments.ideal else 0.0


def bpref(grades: Grades, judgments: TopicJudgments) -> float:
    """Binary preference over a ranking's grades.

    With R judged-relevant and N judged-nonrelevant documents, each
    retrieved relevant document r contributes
    1 - min(nonrelevant_above(r), min(R, N)) / min(R, N),
    or exactly 1 when N = 0. Returns 0 when R = 0.
    """
    r_count, n_count = len(judgments.ideal), judgments.nonrelevant
    bound = min(r_count, n_count)
    total, nonrel_above = 0.0, 0
    for grade in grades:
        if grade is not None and grade >= 1:
            total += 1.0 if n_count == 0 else 1.0 - min(nonrel_above, bound) / bound
        elif grade == 0:
            nonrel_above += 1
    return total / r_count if r_count else 0.0


def score_topic(grades: Grades, judgments: TopicJudgments, measure: MeasureId) -> float:
    if measure.kind == "precision_at_k":
        return p_at_k(grades, measure.cut)
    if measure.kind == "ndcg":
        return ndcg(grades, judgments, measure.cut)
    return bpref(grades, judgments)


def score_run(run: Run, measure: MeasureId, topics: TopicSet, ee_label: str = "") -> TopicScoreVector:
    """Score one run over an explicit topic set against the qrels that judged it
    (``Run.judged``, to at least ``measure.depth``; any other run is a TypeError). Topics
    missing from the run (or entirely unjudged) score 0; results do not depend on input order."""
    if not topics:
        raise DataError("cannot score over an empty topic set")
    if run.qrels is None or run.depth < min(measure.depth, MAX_DEPTH):
        raise TypeError(f"run {run.run_tag!r} is not judged as deep as {measure.name} reads")
    grades, judgments = run.rankings.get, run.qrels.for_topic
    scores = {t: score_topic(grades(t, ()), judgments(t), measure) for t in sorted(topics)}
    return TopicScoreVector(measure=measure, run_tag=run.run_tag, ee_label=ee_label, scores=scores)


def arp(vector: TopicScoreVector) -> ARPValue:
    """Average retrieval performance: the arithmetic mean of the vector.

    Uses an exactly rounded sum so the value does not depend on topic
    ordering."""
    return ARPValue(value=mean(vector.scores.values()), n_topics=len(vector.scores))

