"""Calibration of the significance tests: how often each rejects a true null.

Tests elsewhere check each p-value against scipy; these check what a p-value
claims. Under a true null, a test at level ALPHA should reject in about
ALPHA of all repetitions. Each case draws REPS simulated comparisons of
TOPICS per-topic scores from a fixed seed, in two ways:

- ``normal``: a topic difficulty plus run noise, clipped to [0, 1];
- ``p10``: P@10-like scores k/10 (k correct of 10 at a topic's rate), so
  that many scores tie.

The last case builds whole persistence cells from such vectors, so it
checks the wiring of a cell's p-value as well as the t-test. The seeds and
counts were fixed before the first run and are never changed to make a case
pass. With REPS = 2,000, the 99.9% binomial interval of the
rejection rate around 0.05 is INTERVAL.
"""

from __future__ import annotations

import random

import pytest

from persisteval.measures import TopicScoreVector, parse_measure
from persisteval.persistence import persistence_cell
from persisteval.stats import VARIANTS, t_test_unpaired

ALPHA = 0.05
REPS = 2000
TOPICS = 15
INTERVAL = (0.0345, 0.0665)


def clip(x: float) -> float:
    return min(1.0, max(0.0, x))


def normal_topics(rng: random.Random) -> list[float]:
    """Each topic's difficulty: the mean score that any run reaches on it."""
    return [rng.gauss(0.5, 0.2) for _ in range(TOPICS)]


def normal_scores(rng: random.Random, difficulties: list[float]) -> list[float]:
    return [clip(d + rng.gauss(0.0, 0.1)) for d in difficulties]


def p10_topics(rng: random.Random) -> list[float]:
    """Each topic's rate: the chance that a document in its top 10 is relevant."""
    return [rng.random() for _ in range(TOPICS)]


def p10_scores(rng: random.Random, rates: list[float]) -> list[float]:
    return [sum(rng.random() < rate for _ in range(10)) / 10 for rate in rates]


MODELS = {"normal": (normal_topics, normal_scores), "p10": (p10_topics, p10_scores)}


def rejection_rates(seed: str, model: str, shared_topics: bool) -> dict[str, float]:
    """Each t-test variant's share of REPS null comparisons with p < ALPHA.

    Both samples come from one model with no effect. With ``shared_topics``
    they are two runs on the same topics, as the system and the pivot in one
    snapshot are; without, each sample has topics of its own, as one system
    has in two snapshots."""
    rng = random.Random(seed)
    topics, scores = MODELS[model]
    rejected = dict.fromkeys(VARIANTS.values(), 0)
    for _ in range(REPS):
        a_topics = topics(rng)
        b_topics = a_topics if shared_topics else topics(rng)
        a, b = scores(rng, a_topics), scores(rng, b_topics)
        for variant in rejected:
            rejected[variant] += t_test_unpaired(a, b, variant).p_value < ALPHA
    return {variant: count / REPS for variant, count in rejected.items()}


def test_interval_is_the_binomial_99_9_percent_interval():
    binom = pytest.importorskip("scipy.stats").binom
    low, high = binom.ppf([0.0005, 0.9995], REPS, ALPHA) / REPS
    assert (low, high) == INTERVAL


@pytest.mark.parametrize("model", sorted(MODELS))
def test_cross_snapshot_test_rejects_a_true_null_at_its_level(model):
    """The cross-snapshot t-test compares a system's topic scores in two
    snapshots, each with its own topics: its samples are independent, so
    both variants should reject a true null at the nominal rate."""
    rates = rejection_rates(f"calibration/cross/{model}", model, shared_topics=False)
    for variant, rate in rates.items():
        assert INTERVAL[0] <= rate <= INTERVAL[1], (variant, rate)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_pivot_test_rejects_a_true_null_at_most_at_its_level(model):
    """The within-snapshot test compares the system with the pivot on the
    same topics, unpaired. Topic difficulty makes the two samples vary
    together, so the test may be conservative, but it must not reject a
    true null more often than the interval allows. Both variants read 0.0
    on both models. Its power, not asserted: with the system 0.1 above the
    pivot on every topic of the ``normal`` model (seed
    ``calibration/power/normal``, student_pooled), it rejected 7.6% of
    REPS comparisons, and 76.6% at 0.2."""
    rates = rejection_rates(f"calibration/pivot/{model}", model, shared_topics=True)
    for variant, rate in rates.items():
        assert rate <= INTERVAL[1], (variant, rate)


def cell_rejection_rate(seed: str, model: str, variant: str) -> float:
    """The share of REPS null persistence cells whose p_value is below ALPHA.

    Each cell relates a system and a pivot, both drawn from one model with
    no effect, in a base and a target snapshot that each have topics of
    their own; within a snapshot the two runs share its topics."""
    rng = random.Random(seed)
    topics, scores = MODELS[model]
    measure, ids = parse_measure("p@10"), [f"q{i}" for i in range(TOPICS)]
    rejected = 0
    for _ in range(REPS):
        vectors = {}
        for label in ("base", "target"):
            difficulties = topics(rng)
            for tag in ("sys", "pivot"):
                values = dict(zip(ids, scores(rng, difficulties)))
                vectors[tag, label] = TopicScoreVector(measure, tag, label, values)
        cell = persistence_cell(
            vectors["sys", "base"], vectors["sys", "target"],
            vectors["pivot", "base"], vectors["pivot", "target"], t_variant=variant,
        )
        rejected += cell.p_value < ALPHA
    return rejected / REPS


@pytest.mark.parametrize("variant", sorted(set(VARIANTS.values())))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_persistence_cell_rejects_a_true_null_at_its_level(model, variant):
    """A cell's p_value is the cross-snapshot test of the system's scores in
    the base and the target snapshot. With no effect anywhere, the share of
    cells with p_value < ALPHA lies in INTERVAL. A cell that reported one of
    its within-snapshot tests against the pivot instead would reject far
    less often, as the pivot test above shows."""
    rate = cell_rejection_rate(f"calibration/cell/{model}/{variant}", model, variant)
    assert INTERVAL[0] <= rate <= INTERVAL[1], rate
