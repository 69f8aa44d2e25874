"""Shared synthetic data builders for the test suite."""

from __future__ import annotations

import random

from persisteval.measures import parse_measure, score_run
from persisteval.persistence import PersistenceCell, persistence_cell
from persisteval.run_io import Qrels, Run, parse_qrels

NDCG, BPREF = parse_measure("ndcg"), parse_measure("bpref")


def synthetic_environment(seed, tags=("pivot", "sys"), n_topics=8):
    """One environment: a qrels set plus one run per tag over shared topics."""
    rng = random.Random(seed)
    topics = [f"q{i:02d}" for i in range(n_topics)]
    pool = [f"d{i:03d}" for i in range(30)]
    qrels_lines = []
    for topic in topics:
        judged = rng.sample(pool, 6)
        for doc in judged[:3]:
            qrels_lines.append(f"{topic} 0 {doc} {rng.choice([1, 2])}")
        for doc in judged[3:]:
            qrels_lines.append(f"{topic} 0 {doc} 0")
    qrels = parse_qrels("\n".join(qrels_lines))
    runs = {}
    for tag in tags:
        rankings = {}
        for topic in topics:
            docs = rng.sample(pool, 10)
            rankings[topic] = {doc: float(10 - i) + rng.random() for i, doc in enumerate(docs)}
        runs[tag] = Run.from_rankings(tag, rankings)
    return qrels, runs, frozenset(topics)


def score_tags(runs, qrels, measure, topics, label, tags=("sys", "pivot")):
    """One score vector per tag, in the order of ``tags``."""
    return tuple(score_run(runs[tag].judged(qrels), measure, topics, label) for tag in tags)


def judge(ranking, grades):
    """One ranking of doc ids as the measures read it: its grades under the
    doc -> grade map ``grades`` (None: unjudged), and that map's TopicJudgments."""
    qrels = Qrels({"q": grades})
    return Run("A", {"q": tuple(ranking)}).judged(qrels).rankings["q"], qrels.for_topic("q")


def four_vectors(seed=90):
    """The nDCG vectors of a system and the pivot that fit together: system
    base, system target, pivot base and pivot target, in E1 and E2."""
    qrels_base, runs_base, topics = synthetic_environment(seed)
    qrels_target, runs_target, _ = synthetic_environment(seed + 1)
    sys_base, piv_base = score_tags(runs_base, qrels_base, NDCG, topics, "E1")
    sys_target, piv_target = score_tags(runs_target, qrels_target, NDCG, topics, "E2")
    return [sys_base, sys_target, piv_base, piv_target]


def _change(**fields):
    return lambda vector: vector._replace(**fields)


def _drop_a_topic(vector):
    return vector._replace(scores=dict(list(vector.scores.items())[1:]))


# Ways to break the fit of four_vectors: (id, the indices of the vectors to
# change, the change, the message it must raise).
MISFITS = [
    ("system-tag-across", (1,), _change(run_tag="other"), "system run tags differ"),
    ("pivot-tag-across", (3,), _change(run_tag="other"), "pivot run tags differ"),
    ("system-measure-across", (1,), _change(measure=BPREF), "measure mismatch"),
    ("pivot-measure-across", (3,), _change(measure=BPREF), "measure mismatch"),
    ("pivot-measure-within", (2, 3), _change(measure=BPREF), "measure mismatch"),
    ("system-environment-within", (0,), _change(ee_label="E2"), "environment mismatch"),
    ("pivot-environment-within", (2,), _change(ee_label="E2"), "environment mismatch"),
    ("system-topics-within", (1,), _drop_a_topic, "topic sets differ"),
    ("pivot-topics-within", (2,), _drop_a_topic, "topic sets differ"),
]


def misfit(case):
    """four_vectors with the change of one MISFITS case applied."""
    _, indices, change, _ = case
    vectors = four_vectors()
    for index in indices:
        vectors[index] = change(vectors[index])
    return vectors


def synthetic_cells(
    seed=100,
    systems=("alpha", "beta"),
    measures=("p@10", "ndcg", "bpref"),
    labels=("t1", "t2", "t3"),
) -> list[PersistenceCell]:
    """Cells for every (system, measure, base->target) combination over a
    chain of environments sharing the first label as base."""
    tags = ("pivot",) + tuple(systems)
    environments = {
        label: synthetic_environment(seed + i, tags=tags) for i, label in enumerate(labels)
    }
    base_label = labels[0]
    qrels_base, runs_base, topics = environments[base_label]
    cells = []
    for system in systems:
        for target_label in labels[1:]:
            qrels_target, runs_target, _ = environments[target_label]
            for measure_name in measures:
                measure = parse_measure(measure_name)
                tags = (system, "pivot")
                sys_base, piv_base = score_tags(runs_base, qrels_base, measure, topics, base_label, tags)
                sys_target, piv_target = score_tags(
                    runs_target, qrels_target, measure, topics, target_label, tags
                )
                cells.append(persistence_cell(sys_base, sys_target, piv_base, piv_target))
    return cells
