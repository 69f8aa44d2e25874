"""Per-topic effectiveness measures and their aggregation.

Three measures are provided, matching the reference evaluation tool's
conventions for graded judgments:

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

``score_run`` evaluates one run over an explicit topic set: topics absent
from the run score 0 under every measure so that averages for different
systems share the same denominator. ``arp`` is the arithmetic mean of a
per-topic score vector (the average retrieval performance).
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from itertools import repeat
from operator import truediv

from .errors import DataError, Record
from .run_io import Qrels, Run, TopicJudgments, TopicSet
from .stats import mean

KINDS = ("precision_at_k", "ndcg", "bpref")


class MeasureId(Record, namedtuple("MeasureId", "kind k cutoff")):
    """Identifies one measure variant. ``k`` applies to precision only,
    ``cutoff`` to nDCG only (None = full retrieved depth)."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 10, cutoff: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown measure kind {kind!r}; expected one of {KINDS}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if cutoff is not None and cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        return tuple.__new__(cls, (kind, k, cutoff))

    @property
    @functools.cache
    def name(self) -> str:
        """Display name: P@10, nDCG, nDCG@20, bpref. Computed once per
        measure; it is not a field, so ``==``, ``hash`` and ``repr`` ignore it."""
        if self.kind == "precision_at_k":
            return f"P@{self.k}"
        if self.kind == "ndcg":
            return "nDCG" if self.cutoff is None else f"nDCG@{self.cutoff}"
        return "bpref"

    @property
    def key(self) -> str:
        """File-name-safe identifier: p_at_10, ndcg, ndcg_at_20, bpref."""
        return self.name.lower().replace("@", "_at_")


P_AT_10 = MeasureId("precision_at_k", k=10)
NDCG = MeasureId("ndcg")
BPREF = MeasureId("bpref")


@functools.lru_cache(maxsize=256)
def parse_measure(text: str) -> MeasureId:
    """Parse a measure name: ``p@K``, ``ndcg``, ``ndcg@K``, or ``bpref``
    (case-insensitive). Raises ValueError for anything else. Each distinct
    name is resolved once; repeats return the same MeasureId."""
    lowered = text.strip().lower()
    if lowered == "bpref":
        return BPREF
    if lowered == "ndcg":
        return NDCG
    try:
        if lowered.startswith("ndcg@"):
            return MeasureId("ndcg", cutoff=int(lowered[5:]))
        if lowered.startswith("p@"):
            return MeasureId("precision_at_k", k=int(lowered[2:]))
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


def _judged(topic_qrels: Mapping[str, int]) -> TopicJudgments:
    return topic_qrels if isinstance(topic_qrels, TopicJudgments) else TopicJudgments(topic_qrels)


def p_at_k(ranking: Sequence[str], topic_qrels: Mapping[str, int], k: int) -> float:
    """Precision at depth k over a ranking in canonical order."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return sum(1 for doc in ranking[:k] if topic_qrels.get(doc, 0) >= 1) / k


def _dcg(gains: Sequence[int]) -> float:
    return math.fsum(map(truediv, gains, map(math.log2, range(2, len(gains) + 2))))


def ndcg(ranking: Sequence[str], topic_qrels: Mapping[str, int], cutoff: int | None = None) -> float:
    """Normalized DCG with linear gains, to depth ``cutoff`` (None: the whole
    ranking); 0 when nothing relevant is judged."""
    if cutoff is not None and cutoff < 1:
        raise DataError(f"cutoff must be >= 1, got {cutoff}")
    ideal = _judged(topic_qrels).ideal
    if not ideal:
        return 0.0
    return _dcg([*map(topic_qrels.get, ranking[:cutoff], repeat(0))]) / math.fsum(ideal[:cutoff])


def bpref(ranking: Sequence[str], topic_qrels: Mapping[str, int]) -> float:
    """Binary preference over a ranking in canonical order.

    With R judged-relevant and N judged-nonrelevant documents, each
    retrieved relevant document r contributes
    1 - min(nonrelevant_above(r), min(R, N)) / min(R, N),
    or exactly 1 when N = 0. Returns 0 when R = 0.
    """
    judged = _judged(topic_qrels)
    r_count, n_count = len(judged.ideal), judged.nonrelevant
    if r_count == 0:
        return 0.0
    bound = min(r_count, n_count)
    total, nonrel_above = 0.0, 0
    for grade in map(judged.get, ranking):  # None: unjudged
        if grade is not None and grade >= 1:
            total += 1.0 if n_count == 0 else 1.0 - min(nonrel_above, bound) / bound
        elif grade == 0:
            nonrel_above += 1
    return total / r_count


def score_topic(ranking: Sequence[str], topic_qrels: Mapping[str, int], measure: MeasureId) -> float:
    if measure.kind == "precision_at_k":
        return p_at_k(ranking, topic_qrels, measure.k)
    if measure.kind == "ndcg":
        return ndcg(ranking, topic_qrels, measure.cutoff)
    return bpref(ranking, topic_qrels)


def score_run(
    run: Run, qrels: Qrels, measure: MeasureId, topics: TopicSet, ee_label: str = ""
) -> TopicScoreVector:
    """Score one run over an explicit topic set. Topics missing from the
    run (or entirely unjudged) score 0; results are independent of input
    ordering."""
    if not topics:
        raise DataError("cannot score over an empty topic set")
    scores = {t: score_topic(run.docs(t), qrels.for_topic(t), measure) for t in sorted(topics)}
    return TopicScoreVector(measure=measure, run_tag=run.run_tag, ee_label=ee_label, scores=scores)


def arp(vector: TopicScoreVector) -> ARPValue:
    """Average retrieval performance: the arithmetic mean of the vector.

    Uses an exactly rounded sum so the value does not depend on topic
    ordering."""
    return ARPValue(value=mean(vector.scores.values()), n_topics=len(vector.scores))


def format_scores(vector: TopicScoreVector) -> str:
    """3-column text form (topic, measure, score to 6 decimals), topic-sorted,
    with a final ``all`` row carrying the mean."""
    lines = [f"{t} {vector.measure.name} {vector.scores[t]:.6f}" for t in sorted(vector.scores)]
    lines.append(f"all {vector.measure.name} {arp(vector).value:.6f}")
    return "\n".join(lines) + "\n"


def scores_to_json(vector: TopicScoreVector) -> str:
    """Structured JSON form with full-precision scores and the mean."""
    mean = arp(vector)
    payload = {
        "run_tag": vector.run_tag,
        "ee_label": vector.ee_label,
        "measure": vector.measure.name,
        "scores": {topic: vector.scores[topic] for topic in sorted(vector.scores)},
        "arp": {"value": mean.value, "n_topics": mean.n_topics},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
