from __future__ import annotations

import copy
import inspect
import math
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persisteval.errors import DataError
from persisteval.measures import (
    BPREF,
    NDCG,
    P_AT_10,
    MeasureId,
    arp,
    bpref,
    ndcg,
    p_at_k,
    parse_measure,
    score_run,
)
from persisteval.run_io import MAX_DEPTH, Qrels, Run, TopicJudgments, parse_qrels, parse_run

from oracles import oracle_bpref, oracle_ndcg, oracle_p_at_k
from synth import judge


def random_topic(rng: random.Random, max_ranked=50, max_judged=20):
    """One synthetic topic: a ranking and a judged pool with grades 0-2."""
    pool = [f"d{i:03d}" for i in range(80)]
    ranked = rng.sample(pool, rng.randint(0, max_ranked))
    judged = rng.sample(pool, rng.randint(0, max_judged))
    qrels = {doc: rng.choices([0, 1, 2], weights=[5, 3, 2])[0] for doc in judged}
    return ranked, qrels


class TestMeasureId:
    def test_parse_names(self):
        assert parse_measure("p@10") == P_AT_10 == parse_measure("P@10") == parse_measure("p@010")
        assert parse_measure("P@5") == MeasureId("precision_at_k", 5) == parse_measure(" p@5 ")
        assert parse_measure("nDCG") == NDCG == parse_measure("ndcg")
        assert parse_measure("ndcg@20") == MeasureId("ndcg", 20) == parse_measure("NDCG@20")
        assert parse_measure("bpref") == BPREF

    def test_names_and_keys(self):
        assert P_AT_10.name == "P@10" and P_AT_10.key == "p_at_10"
        assert NDCG.name == "nDCG" and NDCG.key == "ndcg"
        assert MeasureId("ndcg", 20).key == "ndcg_at_20"
        assert BPREF.key == "bpref" and MeasureId("precision_at_k", 5).key == "p_at_5"

    # One grammar, p@N, ndcg, ndcg@N or bpref with N in ASCII digits, coerces nothing;
    # the last name's N is past int()'s digit limit.
    @pytest.mark.parametrize(
        "bad",
        [
            "map", "p@", "ndcg@x", "p@0", "", "p@1_0", "p@+5", "p@ 5", "p@١٠", "ndcg@٥", "bpref@5",
            "p", pytest.param("ndcg@" + "9" * 5000, id="ndcg@9...9"),
        ],
    )
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError, match=r"^invalid measure name '"):
            parse_measure(bad)

    def test_cached_name_leaves_equality_hash_and_repr_alone(self):
        named, fresh = MeasureId("ndcg", 20), MeasureId("ndcg", 20)
        assert named.name == "nDCG@20" and named.name is named.name
        assert named == fresh and hash(named) == hash(fresh)
        assert repr(named) == repr(fresh) == "MeasureId(kind='ndcg', cut=20)"

    def test_repeated_name_parses_to_one_measure(self):
        assert parse_measure("ndcg@7") is parse_measure("ndcg@7")
        with pytest.raises(ValueError):
            parse_measure("ndcg@x")
        with pytest.raises(ValueError):
            parse_measure("ndcg@x")


class TestPAtK:
    def test_all_relevant(self):
        qrels = {f"d{i}": 1 for i in range(10)}
        assert p_at_k(judge([f"d{i}" for i in range(10)], qrels)[0], 10) == 1.0

    def test_three_in_ten(self):
        ranking = [f"d{i}" for i in range(10)]
        qrels = {"d0": 1, "d4": 2, "d9": 1, "d3": 0}
        assert p_at_k(judge(ranking, qrels)[0], 10) == pytest.approx(0.3)

    def test_short_ranking_keeps_denominator(self):
        ranking = ["a", "b", "c", "d", "e"]
        qrels = {"a": 1, "c": 2}
        assert p_at_k(judge(ranking, qrels)[0], 10) == pytest.approx(0.2)

    def test_unjudged_counts_as_nonrelevant(self):
        assert p_at_k(judge(["x", "y"], {})[0], 10) == 0.0

    def test_depth_zero_rejected(self):
        with pytest.raises(DataError, match=r"^k must be >= 1, got 0$"):
            p_at_k(judge(["a"], {"a": 1})[0], 0)


class TestNdcg:
    def test_ideal_ranking(self):
        qrels = {"a": 2, "b": 2, "c": 1, "z": 0}
        assert ndcg(*judge(["a", "b", "c"], qrels)) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        assert ndcg(*judge(["x", "r"], {"r": 1})) == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_no_relevant_judgments(self):
        assert ndcg(*judge(["a", "b"], {"a": 0})) == 0.0

    def test_cutoff(self):
        qrels = {"a": 2, "b": 1}
        full = ndcg(*judge(["x", "a", "b"], qrels))
        cut = ndcg(*judge(["x", "a", "b"], qrels), cutoff=1)
        assert cut == 0.0 and full > 0.0

    # A cutoff of 0 divided by an empty ideal sum; -1 dropped the last rank.
    @pytest.mark.parametrize(
        "ranking, qrels, cutoff",
        [(["a"], {"a": 1}, 0), (["a", "b"], {"a": 1, "b": 2}, -1)],
        ids=["zero", "negative"],
    )
    def test_cutoff_below_one_rejected(self, ranking, qrels, cutoff):
        with pytest.raises(DataError, match=rf"^cutoff must be >= 1, got {cutoff}$"):
            ndcg(*judge(ranking, qrels), cutoff=cutoff)

    def test_range(self):
        rng = random.Random(5)
        for _ in range(200):
            ranked, qrels = random_topic(rng)
            value = ndcg(*judge(ranked, qrels))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_non_ideal_prefix_scores_below_one(self):
        qrels = {"low": 1, "high": 2}
        assert ndcg(*judge(["low", "high"], qrels)) < 1.0
        assert ndcg(*judge(["high", "low"], qrels)) == pytest.approx(1.0)


class TestBpref:
    def test_all_relevant_above_nonrelevant(self):
        qrels = {"r1": 1, "r2": 2, "n1": 0, "n2": 0}
        assert bpref(*judge(["r1", "r2", "n1", "n2"], qrels)) == 1.0

    def test_relevant_below_nonrelevant(self):
        assert bpref(*judge(["n", "r"], {"r": 1, "n": 0})) == 0.0

    def test_no_judged_nonrelevant(self):
        assert bpref(*judge(["a", "x", "b"], {"a": 1, "b": 2})) == 1.0

    def test_no_relevant(self):
        assert bpref(*judge(["a"], {"a": 0})) == 0.0

    def test_unjudged_docs_do_not_matter(self):
        qrels = {"r1": 1, "r2": 1, "n1": 0}
        base = bpref(*judge(["r1", "n1", "r2"], qrels))
        padded = bpref(*judge(["u1", "r1", "u2", "n1", "u3", "r2", "u4"], qrels))
        assert padded == base

    @given(st.data())
    def test_unjudged_invariance_property(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        ranked, qrels = random_topic(rng, max_ranked=20, max_judged=10)
        value = bpref(*judge(ranked, qrels))
        spot = data.draw(st.integers(0, len(ranked)))
        inserted = ranked[:spot] + ["unjudged-doc"] + ranked[spot:]
        assert bpref(*judge(inserted, qrels)) == value


class TestOracleAgreement:
    def test_measures_match_brute_force(self):
        rng = random.Random(99)
        for _ in range(150):
            ranked, qrels = random_topic(rng)
            grades, judgments = judge(ranked, qrels)
            assert p_at_k(grades, 10) == pytest.approx(oracle_p_at_k(ranked, qrels, 10), abs=1e-9)
            assert ndcg(grades, judgments) == pytest.approx(oracle_ndcg(ranked, qrels), abs=1e-9)
            cutoff = rng.randint(1, 30)
            assert ndcg(grades, judgments, cutoff) == pytest.approx(
                oracle_ndcg(ranked, qrels, cutoff), abs=1e-9
            )
            assert bpref(grades, judgments) == pytest.approx(
                oracle_bpref(ranked, qrels), abs=1e-9
            )


class TestRelabelingInvariance:
    @given(st.integers(0, 10_000))
    def test_consistent_doc_relabeling(self, seed):
        rng = random.Random(seed)
        ranked, qrels = random_topic(rng, max_ranked=15, max_judged=8)
        relabel = {doc: f"X{doc}" for doc in set(ranked) | set(qrels)}
        ranked2 = [relabel[d] for d in ranked]
        qrels2 = {relabel[d]: g for d, g in qrels.items()}
        (grades, judgments), (grades2, judgments2) = judge(ranked, qrels), judge(ranked2, qrels2)
        assert p_at_k(grades, 10) == p_at_k(grades2, 10)
        assert ndcg(grades, judgments) == ndcg(grades2, judgments2)
        assert bpref(grades, judgments) == bpref(grades2, judgments2)


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
        (grades, judgments), (swapped_grades, _) = judge(ranked, qrels), judge(swapped, qrels)
        assert p_at_k(swapped_grades, 10) >= p_at_k(grades, 10) - 1e-12
        assert ndcg(swapped_grades, judgments) >= ndcg(grades, judgments) - 1e-12


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
        vector = score_run(run.judged(qrels), P_AT_10, topics)
        for topic in topics:
            expected = oracle_p_at_k(list(run.rankings.get(topic, ())), qrels.for_topic(topic).grades, 10)
            assert vector.scores[topic] == pytest.approx(expected, abs=1e-12)

    def test_missing_topic_scores_zero(self):
        run, qrels = self._fixture()
        vector = score_run(run.judged(qrels), NDCG, frozenset({"q1", "q2"}))
        assert vector.scores["q2"] == 0.0

    def test_determinism(self):
        run, qrels = self._fixture()
        topics = frozenset({"q1", "q2", "q3"})
        judged = run.judged(qrels)
        assert score_run(judged, BPREF, topics) == score_run(judged, BPREF, topics)

    def test_empty_topics_rejected(self):
        run, qrels = self._fixture()
        with pytest.raises(DataError):
            score_run(run.judged(qrels), P_AT_10, frozenset())

    def test_missing_topic_zero_for_all_measures(self):
        run, qrels = self._fixture()
        for measure in (P_AT_10, NDCG, BPREF):
            vector = score_run(run.judged(qrels), measure, frozenset({"q2"}) | run.topics)
            assert vector.scores["q2"] == 0.0

    # Also over a topic that nothing ranks or judges, so that no measure can return 0 unread.
    @pytest.mark.parametrize("judged", [True, False], ids=["judged", "unjudged"])
    @pytest.mark.parametrize(
        "measure", [P_AT_10, NDCG, MeasureId("ndcg", 2), BPREF], ids=lambda m: m.name
    )
    def test_a_run_of_doc_ids_is_a_type_error(self, measure, judged):
        run, _ = self._fixture()
        topics = run.topics if judged else frozenset({"unjudged"})
        with pytest.raises(TypeError, match=f"^run 'A' is not judged as deep as {measure.name} reads$"):
            score_run(run, measure, topics)

    @pytest.mark.parametrize("measure", [P_AT_10, NDCG, BPREF], ids=lambda m: m.name)
    def test_grades_not_judged_by_a_qrels_are_a_type_error(self, measure):
        """Grades and a depth, but no qrels to read the topic's summaries from."""
        run = Run("S", {"q1": (2,)}, MAX_DEPTH)
        with pytest.raises(TypeError, match=f"^run 'S' is not judged as deep as {measure.name} reads$"):
            score_run(run, measure, run.topics)

    def test_a_judged_run_scores_against_its_own_judgments(self):
        run = parse_run("q1 Q0 d1 1 2.0 S\nq1 Q0 d2 2 1.0 S\n")
        qrels_a = parse_qrels("q1 0 d1 2\nq1 0 d2 2\n")
        qrels_b = parse_qrels("q1 0 d9 1\n")  # judges neither document
        for qrels, expected in ((qrels_a, 1.0), (qrels_b, 0.0)):
            judged = run.judged(qrels)
            for measure in (NDCG, BPREF):
                assert score_run(judged, measure, {"q1"}).scores == {"q1": expected}

    def test_takes_no_qrels(self):
        assert tuple(inspect.signature(score_run).parameters) == ("run", "measure", "topics", "ee_label")
        assert Run._fields == ("run_tag", "rankings", "depth", "qrels")



class TestJudgedDepth:
    """A run judged shallower than a measure reads is a TypeError, not a
    silently wrong score: a ranking's grades do not show where it was cut."""

    # Twelve documents; the only relevant one is at rank 12.
    RUN = "".join(f"q1 Q0 d{i:02d} {i} {20 - i} A\n" for i in range(1, 13))
    QRELS = "q1 0 d12 1\n"

    def test_a_run_judged_too_shallow_is_a_type_error(self):
        run, qrels = parse_run(self.RUN), parse_qrels(self.QRELS)
        shallow = run.judged(qrels, 10)
        for measure in (BPREF, NDCG):
            with pytest.raises(TypeError, match=f"not judged as deep as {measure.name} reads"):
                score_run(shallow, measure, run.topics)
        whole = run.judged(qrels)
        assert score_run(whole, BPREF, run.topics).scores == {"q1": 1.0}
        ndcg_score = score_run(whole, NDCG, run.topics).scores["q1"]
        assert ndcg_score == pytest.approx(1 / math.log2(13))

    def test_a_measure_within_the_judged_depth_scores(self):
        run, qrels = parse_run(self.RUN), parse_qrels(self.QRELS)
        vector = score_run(run.judged(qrels, 10), P_AT_10, run.topics)
        assert vector.scores == {"q1": 0.0}
        with pytest.raises(TypeError):
            score_run(run.judged(qrels, 9), P_AT_10, run.topics)

    def test_depth_is_capped_at_max_depth(self):
        run, qrels = parse_run(self.RUN), parse_qrels(self.QRELS)
        judged = run.judged(qrels, 5000)
        assert judged.depth == MAX_DEPTH
        vector = score_run(judged, parse_measure("p@5000"), run.topics)
        assert vector.scores == {"q1": 1 / 5000}


POOL = [f"d{i:02d}" for i in range(12)]


@st.composite
def judged_topics(draw):
    """Rankings and grades 0-2 of up to four topics over a 12-document pool.
    A topic's grades are drawn from 0-2, or only 0, or only 1-2, so some
    topics judge nothing relevant and some nothing nonrelevant; rankings
    hold unjudged documents, and at most 8 documents, so a cutoff of up to
    12 can pass the ranking's end and a topic can judge more documents
    relevant than the ranking is deep. A topic with an empty ranking is
    left out of the run."""
    rankings, grades = {}, {}
    for topic in ("q1", "q2", "q3", "q4")[: draw(st.integers(1, 4))]:
        grade = draw(st.sampled_from([st.integers(0, 2), st.just(0), st.integers(1, 2)]))
        grades[topic] = draw(st.dictionaries(st.sampled_from(POOL), grade, max_size=12))
        ranking = tuple(draw(st.lists(st.sampled_from(POOL), unique=True, max_size=8)))
        if ranking:
            rankings[topic] = ranking
    return rankings, grades


@st.composite
def scored_runs(draw):
    """A run's scores and the grades of up to four topics each, over a
    12-document pool. Scores come from three values, so ties are common
    and the canonical order breaks them; rankings hold 1 to 12 documents
    and unjudged ones; the run and the qrels each lack some topics."""
    topics = ("q1", "q2", "q3", "q4")
    scores = st.dictionaries(st.sampled_from(POOL), st.sampled_from([0.0, 0.5, 1.0]), min_size=1)
    run = {t: draw(scores) for t in draw(st.lists(st.sampled_from(topics), unique=True))}
    grades = st.dictionaries(st.sampled_from(POOL), st.integers(0, 2), max_size=12)
    qrels = {t: draw(grades) for t in draw(st.lists(st.sampled_from(topics), unique=True))}
    return Run.from_rankings("A", run), qrels


class TestJudgedRunsMatchTheOracles:
    """Scores over ``run.judged(qrels, measure.depth)`` against the
    oracles, which score the doc ids themselves."""

    @settings(max_examples=150)
    @given(scored_runs(), st.integers(1, 14), st.integers(1, 14))
    def test_each_measure(self, case, k, cutoff):
        run, grades = case
        qrels = Qrels(grades)
        topics = frozenset({"q1", "q2", "q3", "q4", "q5"})
        oracles = {
            MeasureId("precision_at_k", k): lambda docs, judged: oracle_p_at_k(docs, judged, k),
            NDCG: oracle_ndcg,
            MeasureId("ndcg", cutoff): lambda docs, judged: oracle_ndcg(docs, judged, cutoff),
            BPREF: oracle_bpref,
        }
        for measure, oracle in oracles.items():
            vector = score_run(run.judged(qrels, measure.depth), measure, topics)
            for topic in sorted(topics):
                expected = oracle(list(run.rankings.get(topic, ())), grades.get(topic, {}))
                assert abs(vector.scores[topic] - expected) <= 1e-12


class TestJudgmentSummaries:
    """Scores read from a Qrels's per-topic summaries against the public
    measures on a summary built afresh from a plain dict, and the oracles."""

    @settings(max_examples=100)
    @given(judged_topics(), st.integers(1, 12))
    def test_summaries_score_as_plain_maps_and_oracles(self, case, depth):
        rankings, grades = case
        # One more topic that the run ranks and no one judged.
        run, qrels = Run("A", {**rankings, "unjudged": ("d00",)}), Qrels(grades)
        topics = frozenset(grades) | frozenset(run.rankings)
        rebuilt = (qrels, qrels._replace(), Qrels._make(qrels))
        measures = (
            MeasureId("precision_at_k", depth), NDCG, MeasureId("ndcg", depth), BPREF,
        )
        for measure in measures:
            vectors = [score_run(run.judged(q, measure.depth), measure, topics) for q in rebuilt]
            for topic in sorted(topics):
                ranking, plain = run.rankings.get(topic, ()), dict(grades.get(topic, {}))
                judged, summary = judge(ranking, plain)
                if measure.kind == "precision_at_k":
                    direct = p_at_k(judged, depth)
                    oracle = oracle_p_at_k(list(ranking), plain, depth)
                elif measure.kind == "ndcg":
                    direct = ndcg(judged, summary, measure.cut)
                    oracle = oracle_ndcg(list(ranking), plain, measure.cut)
                else:
                    direct = bpref(judged, summary)
                    oracle = oracle_bpref(list(ranking), plain)
                assert all(vector.scores[topic] == direct for vector in vectors)
                assert abs(direct - oracle) <= 1e-12
        for topic, topic_grades in grades.items():
            summary = qrels.for_topic(topic)
            relevant = sorted((g for g in topic_grades.values() if g >= 1), reverse=True)
            assert type(summary) is TopicJudgments and summary.grades == topic_grades
            assert summary.ideal == tuple(g / math.log2(i + 2) for i, g in enumerate(relevant))
            assert summary.nonrelevant == sum(g == 0 for g in topic_grades.values())

    def test_unjudged_topic_has_an_empty_summary(self):
        summary = Qrels({"q1": {"d1": 1}}).for_topic("q2")
        assert summary.grades == {} and summary.ideal == () and summary.nonrelevant == 0

    @pytest.mark.parametrize(
        "write",
        [
            lambda m: m.__setitem__("d9", 2), lambda m: m.__delitem__("d1"), lambda m: m.clear(),
            lambda m: m.pop("d1"), lambda m: m.popitem(), lambda m: m.setdefault("d9", 2),
            lambda m: m.update(d9=2), lambda m: operator.ior(m, {"d9": 2}),
        ],
    )
    @pytest.mark.parametrize("topic", ["q1", "unjudged"])
    def test_summaries_refuse_writes(self, write, topic):
        # The read-only grades refuse each write: TypeError for an item write
        # and |=, AttributeError for a mutator name the proxy lacks.
        qrels = Qrels({"q1": {"d1": 1, "d2": 0}})
        with pytest.raises((TypeError, AttributeError)):
            write(qrels.for_topic(topic).grades)
        # Each record equals one built afresh from the grades it should hold.
        assert qrels.for_topic("q1").grades == {"d1": 1, "d2": 0}
        assert qrels.for_topic("q1") == TopicJudgments({"d1": 1, "d2": 0})
        assert qrels.for_topic("unjudged") == Qrels({}).for_topic("q1") == TopicJudgments({})

    def test_a_later_write_to_the_source_map_changes_no_summary(self):
        grades = {"d1": 1, "d2": 0}
        qrels = Qrels({"q1": grades})
        grades.update(d1=0, d3=2)
        assert qrels.for_topic("q1") == TopicJudgments({"d1": 1, "d2": 0})
        assert qrels.for_topic("q1").grades == {"d1": 1, "d2": 0}

    def test_copies_keep_their_summaries(self):
        qrels = Qrels({"q1": {"d1": 1, "d2": 2, "d3": 0}})
        copies = (
            copy.copy(qrels), copy.deepcopy(qrels), pickle.loads(pickle.dumps(qrels)),
            Qrels._make(qrels), qrels._replace(), qrels._replace(judgments=qrels.judgments),
        )
        for copied in copies:
            summary, original = copied.for_topic("q1"), qrels.for_topic("q1")
            assert type(summary) is TopicJudgments and summary == original
            assert summary.grades == {"d1": 1, "d2": 2, "d3": 0}
            assert (summary.ideal, summary.nonrelevant) == (original.ideal, original.nonrelevant)


class TestArp:
    def test_mean(self):
        run = Run.from_rankings("A", {"q1": {"d1": 1.0}, "q2": {"d2": 1.0}})
        qrels = parse_qrels("q1 0 d1 1\nq2 0 d9 1")
        vector = score_run(run.judged(qrels), P_AT_10, run.topics)
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
    """The text and JSON forms of a score vector, as ``score`` writes them."""

    @staticmethod
    def score(tmp_path, run_lines, qrels_lines, measure):
        from persisteval.cli import EXIT_OK, main

        (tmp_path / "A.run").write_text("".join(f"{line}\n" for line in run_lines), encoding="utf-8")
        (tmp_path / "qrels.txt").write_text("".join(f"{line}\n" for line in qrels_lines), encoding="utf-8")
        argv = ["score", tmp_path / "A.run", tmp_path / "qrels.txt", "--measures", measure, "--output", tmp_path / "out"]
        assert main([str(arg) for arg in argv]) == EXIT_OK
        return tmp_path / "out"

    def test_three_column_format_with_mean_row(self, tmp_path):
        run = [f"{t} Q0 d{r} {r} {10 - r} A" for t in ("q2", "q1") for r in range(1, 11)]
        qrels = [f"q1 0 d{r} 1" for r in range(1, 5)] + [f"q2 0 d{r} 1" for r in range(1, 3)]
        text = (self.score(tmp_path, run, qrels, "p@10") / "A.p_at_10.scores.txt").read_text()
        assert text.splitlines() == [
            "q1 P@10 0.400000",
            "q2 P@10 0.200000",
            "all P@10 0.300000",
        ]

    def test_json_form_carries_full_precision(self, tmp_path):
        import json

        run = [f"q1 Q0 d{r} {r} {10 - r} A" for r in range(1, 8)]
        qrels = ["q1 0 d7 1"]  # one relevant doc at rank 7: nDCG = 1 / log2(8)
        out = self.score(tmp_path, run, qrels, "ndcg")
        payload = json.loads((out / "A.ndcg.scores.json").read_text())
        assert payload["scores"]["q1"] == 1 / 3
        assert payload["arp"]["n_topics"] == 1
        assert payload["measure"] == "nDCG"
