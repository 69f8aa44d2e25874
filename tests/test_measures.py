from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persisteval.errors import DataError
from persisteval.measures import (
    BPREF,
    NDCG,
    P_AT_10,
    MeasureId,
    arp,
    bpref,
    format_scores,
    ndcg,
    p_at_k,
    parse_measure,
    score_run,
)
from persisteval.run_io import Run, parse_qrels, parse_run

from oracles import oracle_bpref, oracle_ndcg, oracle_p_at_k


def random_topic(rng: random.Random, max_ranked=50, max_judged=20):
    """One synthetic topic: a ranking and a judged pool with grades 0-2."""
    pool = [f"d{i:03d}" for i in range(80)]
    ranked = rng.sample(pool, rng.randint(0, max_ranked))
    judged = rng.sample(pool, rng.randint(0, max_judged))
    qrels = {doc: rng.choices([0, 1, 2], weights=[5, 3, 2])[0] for doc in judged}
    return ranked, qrels


class TestMeasureId:
    def test_parse_names(self):
        assert parse_measure("p@10") == P_AT_10
        assert parse_measure("P@5") == MeasureId("precision_at_k", k=5)
        assert parse_measure("nDCG") == NDCG
        assert parse_measure("ndcg@20") == MeasureId("ndcg", cutoff=20)
        assert parse_measure("bpref") == BPREF

    def test_names_and_keys(self):
        assert P_AT_10.name == "P@10" and P_AT_10.key == "p_at_10"
        assert NDCG.name == "nDCG" and NDCG.key == "ndcg"
        assert MeasureId("ndcg", cutoff=20).key == "ndcg_at_20"
        assert BPREF.key == "bpref" and MeasureId("precision_at_k", k=5).key == "p_at_5"

    @pytest.mark.parametrize("bad", ["map", "p@", "ndcg@x", "p@0", ""])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            parse_measure(bad)

    def test_cached_name_leaves_equality_hash_and_repr_alone(self):
        named, fresh = MeasureId("ndcg", cutoff=20), MeasureId("ndcg", cutoff=20)
        assert named.name == "nDCG@20" and named.name is named.name
        assert named == fresh and hash(named) == hash(fresh)
        assert repr(named) == repr(fresh) == "MeasureId(kind='ndcg', k=10, cutoff=20)"

    def test_repeated_name_parses_to_one_measure(self):
        assert parse_measure("ndcg@7") is parse_measure("ndcg@7")
        with pytest.raises(ValueError):
            parse_measure("ndcg@x")
        with pytest.raises(ValueError):
            parse_measure("ndcg@x")


class TestPAtK:
    def test_all_relevant(self):
        qrels = {f"d{i}": 1 for i in range(10)}
        assert p_at_k([f"d{i}" for i in range(10)], qrels, 10) == 1.0

    def test_three_in_ten(self):
        ranking = [f"d{i}" for i in range(10)]
        qrels = {"d0": 1, "d4": 2, "d9": 1, "d3": 0}
        assert p_at_k(ranking, qrels, 10) == pytest.approx(0.3)

    def test_short_ranking_keeps_denominator(self):
        ranking = ["a", "b", "c", "d", "e"]
        qrels = {"a": 1, "c": 2}
        assert p_at_k(ranking, qrels, 10) == pytest.approx(0.2)

    def test_unjudged_counts_as_nonrelevant(self):
        assert p_at_k(["x", "y"], {}, 10) == 0.0


class TestNdcg:
    def test_ideal_ranking(self):
        qrels = {"a": 2, "b": 2, "c": 1, "z": 0}
        assert ndcg(["a", "b", "c"], qrels) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        assert ndcg(["x", "r"], {"r": 1}) == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_no_relevant_judgments(self):
        assert ndcg(["a", "b"], {"a": 0}) == 0.0

    def test_cutoff(self):
        qrels = {"a": 2, "b": 1}
        full = ndcg(["x", "a", "b"], qrels)
        cut = ndcg(["x", "a", "b"], qrels, cutoff=1)
        assert cut == 0.0 and full > 0.0

    def test_range(self):
        rng = random.Random(5)
        for _ in range(200):
            ranked, qrels = random_topic(rng)
            value = ndcg(ranked, qrels)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_non_ideal_prefix_scores_below_one(self):
        qrels = {"low": 1, "high": 2}
        assert ndcg(["low", "high"], qrels) < 1.0
        assert ndcg(["high", "low"], qrels) == pytest.approx(1.0)


class TestBpref:
    def test_all_relevant_above_nonrelevant(self):
        qrels = {"r1": 1, "r2": 2, "n1": 0, "n2": 0}
        assert bpref(["r1", "r2", "n1", "n2"], qrels) == 1.0

    def test_relevant_below_nonrelevant(self):
        assert bpref(["n", "r"], {"r": 1, "n": 0}) == 0.0

    def test_no_judged_nonrelevant(self):
        assert bpref(["a", "x", "b"], {"a": 1, "b": 2}) == 1.0

    def test_no_relevant(self):
        assert bpref(["a"], {"a": 0}) == 0.0

    def test_unjudged_docs_do_not_matter(self):
        qrels = {"r1": 1, "r2": 1, "n1": 0}
        base = bpref(["r1", "n1", "r2"], qrels)
        padded = bpref(["u1", "r1", "u2", "n1", "u3", "r2", "u4"], qrels)
        assert padded == base

    @given(st.data())
    def test_unjudged_invariance_property(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        ranked, qrels = random_topic(rng, max_ranked=20, max_judged=10)
        value = bpref(ranked, qrels)
        spot = data.draw(st.integers(0, len(ranked)))
        inserted = ranked[:spot] + ["unjudged-doc"] + ranked[spot:]
        assert bpref(inserted, qrels) == value


class TestOracleAgreement:
    def test_measures_match_brute_force(self):
        rng = random.Random(99)
        for _ in range(150):
            ranked, qrels = random_topic(rng)
            assert p_at_k(ranked, qrels, 10) == pytest.approx(
                oracle_p_at_k(ranked, qrels, 10), abs=1e-9
            )
            assert ndcg(ranked, qrels) == pytest.approx(oracle_ndcg(ranked, qrels), abs=1e-9)
            cutoff = rng.randint(1, 30)
            assert ndcg(ranked, qrels, cutoff) == pytest.approx(
                oracle_ndcg(ranked, qrels, cutoff), abs=1e-9
            )
            assert bpref(ranked, qrels) == pytest.approx(oracle_bpref(ranked, qrels), abs=1e-9)


class TestRelabelingInvariance:
    @given(st.integers(0, 10_000))
    def test_consistent_doc_relabeling(self, seed):
        rng = random.Random(seed)
        ranked, qrels = random_topic(rng, max_ranked=15, max_judged=8)
        relabel = {doc: f"X{doc}" for doc in set(ranked) | set(qrels)}
        ranked2 = [relabel[d] for d in ranked]
        qrels2 = {relabel[d]: g for d, g in qrels.items()}
        assert p_at_k(ranked, qrels, 10) == p_at_k(ranked2, qrels2, 10)
        assert ndcg(ranked, qrels) == ndcg(ranked2, qrels2)
        assert bpref(ranked, qrels) == bpref(ranked2, qrels2)


class TestSwapMonotonicity:
    @given(st.integers(0, 10_000))
    def test_moving_relevant_up_never_hurts(self, seed):
        rng = random.Random(seed)
        ranked, qrels = random_topic(rng, max_ranked=20, max_judged=10)
        positions = [
            i
            for i in range(len(ranked) - 1)
            if qrels.get(ranked[i], 0) == 0 and qrels.get(ranked[i + 1], 0) >= 1
        ]
        if not positions:
            return
        i = rng.choice(positions)
        swapped = ranked.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert p_at_k(swapped, qrels, 10) >= p_at_k(ranked, qrels, 10) - 1e-12
        assert ndcg(swapped, qrels) >= ndcg(ranked, qrels) - 1e-12


class TestScoreRun:
    def _fixture(self):
        run = parse_run(
            "q1 Q0 d1 1 3.0 A\n"
            "q1 Q0 d2 2 2.0 A\n"
            "q1 Q0 d3 3 1.0 A\n"
            "q3 Q0 d1 1 2.0 A\n"
            "q3 Q0 d9 2 1.0 A\n"
        )
        qrels = parse_qrels(
            "q1 0 d1 2\nq1 0 d2 0\nq1 0 d3 1\nq2 0 d5 1\nq3 0 d9 1\nq3 0 d1 0\n"
        )
        return run, qrels

    def test_vector_matches_per_topic_oracle(self):
        run, qrels = self._fixture()
        topics = frozenset({"q1", "q2", "q3"})
        vector = score_run(run, qrels, P_AT_10, topics)
        for topic in topics:
            expected = oracle_p_at_k(list(run.docs(topic)), qrels.for_topic(topic), 10)
            assert vector.scores[topic] == pytest.approx(expected, abs=1e-12)

    def test_missing_topic_scores_zero(self):
        run, qrels = self._fixture()
        vector = score_run(run, qrels, NDCG, frozenset({"q1", "q2"}))
        assert vector.scores["q2"] == 0.0

    def test_determinism(self):
        run, qrels = self._fixture()
        topics = frozenset({"q1", "q2", "q3"})
        assert score_run(run, qrels, BPREF, topics) == score_run(run, qrels, BPREF, topics)

    def test_empty_topics_rejected(self):
        run, qrels = self._fixture()
        with pytest.raises(DataError):
            score_run(run, qrels, P_AT_10, frozenset())

    def test_missing_topic_zero_for_all_measures(self):
        run, qrels = self._fixture()
        for measure in (P_AT_10, NDCG, BPREF):
            vector = score_run(run, qrels, measure, frozenset({"q2"}) | run.topics)
            assert vector.scores["q2"] == 0.0


class TestArp:
    def test_mean(self):
        run = Run.from_rankings("A", {"q1": {"d1": 1.0}, "q2": {"d2": 1.0}})
        qrels = parse_qrels("q1 0 d1 1\nq2 0 d9 1")
        vector = score_run(run, qrels, P_AT_10, run.topics)
        assert vector.scores == {"q1": 0.1, "q2": 0.0}
        value = arp(vector)
        assert value.value == pytest.approx(0.05)
        assert value.n_topics == 2

    def test_simple_means(self):
        from persisteval.measures import TopicScoreVector

        vector = TopicScoreVector(P_AT_10, "A", "E", {"q1": 0.2, "q2": 0.4})
        assert arp(vector).value == pytest.approx(0.3)
        single = TopicScoreVector(P_AT_10, "A", "E", {"q1": 0.7})
        assert arp(single).value == pytest.approx(0.7)

    def test_topic_order_invariance_is_exact(self):
        from persisteval.measures import TopicScoreVector

        values = [0.1, 0.37, 0.52, 0.9313, 0.004]
        forward = TopicScoreVector(NDCG, "A", "E", {f"q{i}": v for i, v in enumerate(values)})
        backward = TopicScoreVector(
            NDCG, "A", "E", {f"q{i}": v for i, v in reversed(list(enumerate(values)))}
        )
        assert arp(forward).value == arp(backward).value

    def test_linear_in_scores(self):
        from persisteval.measures import TopicScoreVector

        scores = {"q1": 0.125, "q2": 0.5, "q3": 0.25}
        vector = TopicScoreVector(NDCG, "A", "E", scores)
        halved = TopicScoreVector(NDCG, "A", "E", {t: v / 2 for t, v in scores.items()})
        assert arp(halved).value == arp(vector).value / 2

    def test_empty_rejected(self):
        from persisteval.measures import TopicScoreVector

        with pytest.raises(DataError):
            arp(TopicScoreVector(P_AT_10, "A", "E", {}))


class TestScoreSerialization:
    def test_three_column_format_with_mean_row(self):
        from persisteval.measures import TopicScoreVector

        vector = TopicScoreVector(P_AT_10, "A", "E", {"q2": 0.2, "q1": 0.4})
        text = format_scores(vector)
        assert text.splitlines() == [
            "q1 P@10 0.400000",
            "q2 P@10 0.200000",
            "all P@10 0.300000",
        ]

    def test_json_form_carries_full_precision(self):
        import json

        from persisteval.measures import TopicScoreVector, scores_to_json

        vector = TopicScoreVector(NDCG, "A", "E1", {"q1": 1 / 3})
        payload = json.loads(scores_to_json(vector))
        assert payload["scores"]["q1"] == 1 / 3
        assert payload["arp"]["n_topics"] == 1
        assert payload["measure"] == "nDCG"
