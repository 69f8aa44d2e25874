from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persisteval.errors import DataError
from persisteval.measures import (
    BPREF,
    NDCG,
    P_AT_10,
    ARPValue,
    MeasureId,
    TopicScoreVector,
    arp,
    score_run,
)
from persisteval.persistence import (
    EEPair,
    PersistenceCell,
    cell_from_dict,
    cell_to_dict,
    delta_ri,
    effect_ratio,
    persistence_cell,
    relative_improvement,
    result_delta,
    topic_deltas,
)
from persisteval.report import table_from_json
from oracles import oracle_mean, oracle_pooled_t, oracle_two_sided_p
from synth import MISFITS, four_vectors, misfit, score_tags, synthetic_environment


class TestResultDelta:
    def test_identical_means(self):
        assert result_delta(0.337, 0.337) == 0.0

    def test_improvement_is_negative(self):
        value = result_delta(0.095, 0.110)
        assert value == pytest.approx(-0.158, abs=1e-3)
        assert value < 0

    def test_zero_base_undefined(self):
        assert result_delta(0.0, 0.3) is None

    @given(
        st.floats(0.001, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_sign_law(self, base, target):
        value = result_delta(base, target)
        assert (target > base) == (value < 0)


class TestRelativeImprovement:
    def test_hand_values(self):
        assert relative_improvement(0.106, 0.095) == pytest.approx(0.11578947, abs=1e-6)
        assert relative_improvement(0.109, 0.089) == pytest.approx(0.22471910, abs=1e-6)

    def test_equal_is_zero(self):
        assert relative_improvement(0.25, 0.25) == 0.0

    def test_zero_pivot_undefined(self):
        assert relative_improvement(0.1, 0.0) is None


class TestDeltaRi:
    def test_equal_is_zero(self):
        assert delta_ri(0.21, 0.21) == 0.0

    def test_reference_pair_values(self):
        ri = relative_improvement(0.106, 0.095)
        ri_st = relative_improvement(0.109, 0.089)
        ri_lt = relative_improvement(0.123, 0.110)
        assert delta_ri(ri, ri_st) == pytest.approx(-0.110, abs=0.02)
        assert delta_ri(ri, ri_lt) == pytest.approx(0.000, abs=0.02)

    def test_propagates_undefined(self):
        assert delta_ri(None, 0.1) is None
        assert delta_ri(0.1, None) is None

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    def test_antisymmetry(self, a, b):
        assert delta_ri(a, b) == -delta_ri(b, a)


class TestTopicDeltas:
    def _vectors(self, system_scores, pivot_scores):
        system = TopicScoreVector(P_AT_10, "sys", "E1", system_scores)
        pivot = TopicScoreVector(P_AT_10, "pivot", "E1", pivot_scores)
        return system, pivot

    def test_subtraction(self):
        system, pivot = self._vectors({"q1": 0.5, "q2": 0.2}, {"q1": 0.3, "q2": 0.2})
        deltas = topic_deltas(system, pivot)
        assert deltas == {"q1": pytest.approx(0.2), "q2": 0.0}
        assert len(deltas) == 2

    def test_identity(self):
        scores = {"q1": 0.4, "q2": 0.9}
        system, pivot = self._vectors(scores, dict(scores))
        assert all(v == 0.0 for v in topic_deltas(system, pivot).values())

    def test_topic_mismatch_names_difference(self):
        system, pivot = self._vectors({"q1": 0.5}, {"q2": 0.2})
        with pytest.raises(DataError) as excinfo:
            topic_deltas(system, pivot)
        assert "q1" in str(excinfo.value) and "q2" in str(excinfo.value)

    def test_matches_loop_oracle(self):
        rng = random.Random(11)
        scores_a = {f"q{i}": rng.random() for i in range(12)}
        scores_b = {f"q{i}": rng.random() for i in range(12)}
        system, pivot = self._vectors(scores_a, scores_b)
        deltas = topic_deltas(system, pivot)
        for topic in scores_a:
            assert deltas[topic] == scores_a[topic] - scores_b[topic]


class TestEffectRatio:
    def test_identical_vectors_give_one(self):
        deltas = {"q1": 0.1, "q2": 0.3}
        base, target = dict(deltas), dict(deltas)
        assert effect_ratio(target, base) == 1.0

    def test_hand_value_with_unequal_counts(self):
        base = {"a": 0.2, "b": 0.4}
        target = {"a": 0.1, "b": 0.2, "c": 0.3}
        assert effect_ratio(target, base) == pytest.approx(0.6667, abs=1e-4)

    def test_zero_base_mean_undefined(self):
        base = {"a": 0.2, "b": -0.2}
        target = {"a": 0.1}
        assert effect_ratio(target, base) is None

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            effect_ratio({}, {"a": 0.1})

    @given(st.sampled_from([0.5, 2.0, -1.0]))
    def test_scaling_laws_exact(self, c):
        base = {"a": 0.25, "b": 0.5, "c": -0.125}
        target = {"a": 0.375, "b": 0.125}
        er = effect_ratio(target, base)
        scaled_target = {t: c * v for t, v in target.items()}
        scaled_base = {t: c * v for t, v in base.items()}
        assert effect_ratio(scaled_target, base) == c * er
        assert effect_ratio(target, scaled_base) == er / c


class TestPersistenceCell:
    def test_self_replication_identity(self):
        qrels, runs, topics = synthetic_environment(7)
        system, pivot = score_tags(runs, qrels, NDCG, topics, "E1")
        cell = persistence_cell(system, system, pivot, pivot)
        assert cell.result_delta == 0.0
        assert cell.delta_ri == 0.0
        assert cell.effect_ratio == 1.0
        assert cell.p_value == 1.0
        assert cell.undefined_flags == ()

    def test_matches_end_to_end_oracle(self):
        qrels_base, runs_base, topics = synthetic_environment(23)
        qrels_target, runs_target, _ = synthetic_environment(24)
        sys_b, piv_b = score_tags(runs_base, qrels_base, P_AT_10, topics, "E1")
        sys_t, piv_t = score_tags(runs_target, qrels_target, P_AT_10, topics, "E2")
        cell = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        # Everything below re-derives the cell with plain loops.
        def oracle_scores(run, qrels):
            from oracles import oracle_p_at_k

            return {
                t: oracle_p_at_k(list(run.docs(t)), qrels.for_topic(t), 10)
                for t in sorted(topics)
            }

        sys_b = oracle_scores(runs_base["sys"], qrels_base)
        sys_t = oracle_scores(runs_target["sys"], qrels_target)
        piv_b = oracle_scores(runs_base["pivot"], qrels_base)
        piv_t = oracle_scores(runs_target["pivot"], qrels_target)
        mean_sb, mean_st = oracle_mean(list(sys_b.values())), oracle_mean(list(sys_t.values()))
        mean_pb, mean_pt = oracle_mean(list(piv_b.values())), oracle_mean(list(piv_t.values()))
        assert cell.arp_base.value == pytest.approx(mean_sb, abs=1e-12)
        assert cell.arp_target.value == pytest.approx(mean_st, abs=1e-12)
        assert cell.result_delta == pytest.approx((mean_sb - mean_st) / mean_sb, abs=1e-12)
        ri = (mean_sb - mean_pb) / mean_pb
        ri_prime = (mean_st - mean_pt) / mean_pt
        assert cell.ri_base == pytest.approx(ri, abs=1e-12)
        assert cell.ri_target == pytest.approx(ri_prime, abs=1e-12)
        assert cell.delta_ri == pytest.approx(ri - ri_prime, abs=1e-12)
        target_deltas = [sys_t[t] - piv_t[t] for t in sorted(topics)]
        base_deltas = [sys_b[t] - piv_b[t] for t in sorted(topics)]
        expected_er = oracle_mean(target_deltas) / oracle_mean(base_deltas)
        assert cell.effect_ratio == pytest.approx(expected_er, abs=1e-12)
        t_stat, df = oracle_pooled_t(
            [sys_b[t] for t in sorted(topics)], [sys_t[t] for t in sorted(topics)]
        )
        assert cell.t_statistic == pytest.approx(t_stat, abs=1e-10)
        assert cell.p_value == pytest.approx(oracle_two_sided_p(t_stat, df), abs=1e-8)

    def test_result_delta_is_pivot_independent(self):
        qrels_base, runs_base, topics = synthetic_environment(31, tags=("pivot", "alt", "sys"))
        qrels_target, runs_target, _ = synthetic_environment(32, tags=("pivot", "alt", "sys"))
        tags = ("sys", "pivot", "alt")
        sys_b, piv_b, alt_b = score_tags(runs_base, qrels_base, BPREF, topics, "E1", tags)
        sys_t, piv_t, alt_t = score_tags(runs_target, qrels_target, BPREF, topics, "E2", tags)
        with_pivot = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        with_alt = persistence_cell(sys_b, sys_t, alt_b, alt_t)
        assert with_pivot.result_delta == with_alt.result_delta
        # The pivot-relative quantities are expected to move with the pivot;
        # no equality is asserted for delta_ri or effect_ratio here.

    def test_topic_permutation_invariance(self):
        qrels_base, runs_base, topics = synthetic_environment(41)
        qrels_target, runs_target, _ = synthetic_environment(42)

        def build(topic_iterable):
            topics = frozenset(topic_iterable)
            sys_b, piv_b = score_tags(runs_base, qrels_base, NDCG, topics, "E1")
            sys_t, piv_t = score_tags(runs_target, qrels_target, NDCG, topics, "E2")
            return persistence_cell(sys_b, sys_t, piv_b, piv_t)

        ordering = sorted(topics)
        shuffled = list(reversed(ordering))
        assert build(ordering) == build(shuffled)

    def test_self_pivot_rejected(self):
        qrels, runs, topics = synthetic_environment(51)
        (base,) = score_tags(runs, qrels, NDCG, topics, "E1", ("sys",))
        (target,) = score_tags(runs, qrels, NDCG, topics, "E2", ("sys",))
        with pytest.raises(DataError):
            persistence_cell(base, target, base, target)

    def test_self_pivot_allowed_when_requested(self):
        qrels, runs, topics = synthetic_environment(52)
        (system,) = score_tags(runs, qrels, NDCG, topics, "E1", ("sys",))
        pivot = dataclasses.replace(system, run_tag="pivot")
        cell = persistence_cell(system, system, pivot, pivot)
        # Deltas against itself are all zero, so the effect ratio is undefined.
        assert cell.effect_ratio is None
        assert any("effect_ratio" in flag for flag in cell.undefined_flags)

    def test_separate_target_topics(self):
        qrels_base, runs_base, topics = synthetic_environment(61, n_topics=8)
        qrels_target, runs_target, _ = synthetic_environment(62, n_topics=8)
        smaller = frozenset(sorted(topics)[:5])
        sys_b = score_run(runs_base["sys"], qrels_base, P_AT_10, topics, "E1")
        piv_b = score_run(runs_base["pivot"], qrels_base, P_AT_10, topics, "E1")
        sys_t = score_run(runs_target["sys"], qrels_target, P_AT_10, smaller, "E2")
        piv_t = score_run(runs_target["pivot"], qrels_target, P_AT_10, smaller, "E2")
        cell = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        assert cell.arp_base.n_topics == 8
        assert cell.arp_target.n_topics == 5

    def test_measure_and_pair_come_from_vectors(self):
        qrels_base, runs_base, topics = synthetic_environment(63)
        qrels_target, runs_target, _ = synthetic_environment(64)
        sys_b, piv_b = score_tags(runs_base, qrels_base, BPREF, topics, "E1")
        sys_t, piv_t = score_tags(runs_target, qrels_target, BPREF, topics, "E2")
        cell = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        assert cell.measure == BPREF
        assert cell.pair == EEPair("E1", "E2")

    def test_four_vectors_fit(self):
        assert persistence_cell(*four_vectors()).pair == EEPair("E1", "E2")

    @pytest.mark.parametrize("case", MISFITS, ids=lambda case: case[0])
    def test_misfit_vector_rejected(self, case):
        with pytest.raises(DataError, match=case[3]):
            persistence_cell(*misfit(case))


class TestCellSerialization:
    def test_round_trip(self):
        qrels_base, runs_base, topics = synthetic_environment(71)
        qrels_target, runs_target, _ = synthetic_environment(72)
        sys_b, piv_b = score_tags(runs_base, qrels_base, BPREF, topics, "E1")
        sys_t, piv_t = score_tags(runs_target, qrels_target, BPREF, topics, "E2")
        cell = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        data = cell_to_dict(cell)
        assert cell_from_dict(data) == cell
        assert data["measure"] == "bpref"
        assert data["pair"] == {"base": "E1", "target": "E2"}

    def test_undefined_serializes_as_null_with_reason(self):
        qrels, runs, topics = synthetic_environment(73)
        (system,) = score_tags(runs, qrels, NDCG, topics, "E1", ("sys",))
        pivot = dataclasses.replace(system, run_tag="pivot")
        data = cell_to_dict(persistence_cell(system, system, pivot, pivot))
        assert data["effect_ratio"] is None
        assert any("effect_ratio" in flag for flag in data["undefined_flags"])

    def test_malformed_record_rejected(self):
        with pytest.raises(DataError):
            cell_from_dict({"system_tag": "x"})

    def test_non_finite_t_serializes_stably(self):
        import dataclasses
        import math

        qrels_base, runs_base, topics = synthetic_environment(74)
        qrels_target, runs_target, _ = synthetic_environment(75)
        sys_b, piv_b = score_tags(runs_base, qrels_base, NDCG, topics, "E1")
        sys_t, piv_t = score_tags(runs_target, qrels_target, NDCG, topics, "E2")
        cell = persistence_cell(sys_b, sys_t, piv_b, piv_t)
        degenerate = dataclasses.replace(cell, t_statistic=math.inf, degenerate_t=True)
        first = cell_to_dict(degenerate)
        assert first["t_statistic"] is None
        second = cell_to_dict(cell_from_dict(first))
        assert second == first


GOLDEN_CELLS = Path(__file__).parent / "golden" / "two_ee" / "cells.json"
GOLDEN_CELL = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))["cells"][0]
REQUIRED_KEYS = [
    (key,) for key in GOLDEN_CELL if key not in ("degenerate_t", "undefined_flags")
] + [
    (key, inner)
    for key in ("pair", "arp_base", "arp_target", "pivot_arp_base", "pivot_arp_target")
    for inner in GOLDEN_CELL[key]
]
NONFINITE_T_FLAG = "t_statistic: non-finite (degenerate variance)"

any_float = st.floats(allow_nan=True, allow_infinity=True)
labels = st.text(min_size=1, max_size=4)
arp_values = st.builds(ARPValue, any_float, st.integers(0, 50))
generated_cells = st.builds(
    PersistenceCell,
    system_tag=st.text(max_size=4),
    pivot_tag=st.text(max_size=4),
    measure=st.sampled_from([P_AT_10, NDCG, BPREF, MeasureId("ndcg", cutoff=5)]),
    pair=st.builds(EEPair, labels, labels),
    arp_base=arp_values,
    arp_target=arp_values,
    pivot_arp_base=arp_values,
    pivot_arp_target=arp_values,
    result_delta=st.none() | any_float,
    ri_base=st.none() | any_float,
    ri_target=st.none() | any_float,
    delta_ri=st.none() | any_float,
    effect_ratio=st.none() | any_float,
    # A JSON null reads back as +inf, so only finite values and +inf round-trip.
    t_statistic=st.just(math.inf) | st.floats(allow_nan=False, allow_infinity=False),
    p_value=any_float,
    p_vs_pivot_base=any_float,
    p_vs_pivot_target=any_float,
    degenerate_t=st.booleans(),
    undefined_flags=st.lists(st.sampled_from(["a", "b", NONFINITE_T_FLAG]), max_size=2).map(tuple),
)


class TestCellCodec:
    @given(generated_cells)
    def test_round_trip_with_none_nan_and_inf(self, cell):
        expected = cell
        if math.isinf(cell.t_statistic) and NONFINITE_T_FLAG not in cell.undefined_flags:
            expected = dataclasses.replace(
                cell, undefined_flags=cell.undefined_flags + (NONFINITE_T_FLAG,)
            )
        assert cell_from_dict(cell_to_dict(cell)) == expected

    def test_golden_record_round_trips_to_the_same_json(self):
        assert cell_to_dict(cell_from_dict(GOLDEN_CELL)) == GOLDEN_CELL

    @pytest.mark.parametrize("path", REQUIRED_KEYS, ids=".".join)
    def test_missing_required_key_raises_data_error(self, path):
        record = json.loads(json.dumps(GOLDEN_CELL))
        *outer, key = path
        del (record[outer[0]] if outer else record)[key]
        with pytest.raises(DataError, match="malformed persistence cell record"):
            cell_from_dict(record)

    def test_defaults_for_optional_keys(self):
        record = dict(GOLDEN_CELL)
        del record["degenerate_t"], record["undefined_flags"]
        cell = cell_from_dict(record)
        assert cell.degenerate_t is False and cell.undefined_flags == ()

    def test_null_t_statistic_reads_as_inf(self):
        assert cell_from_dict({**GOLDEN_CELL, "t_statistic": None}).t_statistic == math.inf

    @pytest.mark.parametrize(
        "key, value",
        [("measure", 5), ("measure", "p@x"), ("pair", "t1"), ("arp_base", None), ("p_value", None)],
    )
    def test_wrong_value_raises_data_error(self, key, value):
        with pytest.raises(DataError, match="malformed persistence cell record"):
            cell_from_dict({**GOLDEN_CELL, key: value})


class TestTypedCellCodec:
    """Each cells.json field has one JSON type; a value of another type is a
    DataError naming the field's path, and nothing is coerced."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("degenerate_t", "false", 'cells[3].degenerate_t must be true or false, got "false"'),
            ("degenerate_t", 0, "cells[3].degenerate_t must be true or false, got 0"),
            ("undefined_flags", "ab", 'cells[3].undefined_flags must be a list, got "ab"'),
            ("undefined_flags", ["a", 1], "cells[3].undefined_flags[1] must be a string, got 1"),
            ("p_value", "0.5", 'cells[3].p_value must be a number, got "0.5"'),
            ("p_value", None, "cells[3].p_value must be a number, got null"),
            ("effect_ratio", True, "cells[3].effect_ratio must be a number, got true"),
            ("t_statistic", "inf", 'cells[3].t_statistic must be a number, got "inf"'),
            ("system_tag", 7, "cells[3].system_tag must be a string, got 7"),
            ("measure", ["ndcg"], 'cells[3].measure must be a string, got ["ndcg"]'),
            ("pair", {"base": "t1", "target": 2}, "cells[3].pair.target must be a string, got 2"),
            ("pair", ["t1", "t2"], 'cells[3].pair must be an object, got ["t1", "t2"]'),
            (
                "arp_base",
                {"value": 0.5, "n_topics": True},
                "cells[3].arp_base.n_topics must be an integer, got true",
            ),
            (
                "arp_base",
                {"value": 0.5, "n_topics": 4.0},
                "cells[3].arp_base.n_topics must be an integer, got 4.0",
            ),
            ("arp_target", {"value": 0.5}, "cells[3].arp_target.n_topics is missing"),
            # A value of the right type that fails a value check.
            ("measure", "P@0", "cells[3].measure: invalid measure name 'P@0'"),
            (
                "pair",
                {"base": "", "target": "t2"},
                "cells[3].pair: evaluation environment labels must be non-empty",
            ),
        ],
    )
    def test_wrong_type_names_the_path(self, key, value, message):
        with pytest.raises(DataError) as excinfo:
            cell_from_dict({**GOLDEN_CELL, key: value}, "cells[3]")
        assert str(excinfo.value) == f"malformed persistence cell record: {message}"

    def test_missing_key_names_the_path(self):
        record = dict(GOLDEN_CELL)
        del record["ri_base"]
        with pytest.raises(DataError, match=r"record: cells\[0\]\.ri_base is missing$"):
            cell_from_dict(record, "cells[0]")

    def test_record_must_be_an_object(self):
        with pytest.raises(DataError, match=r"cells\[2\] must be an object, got \[1\]"):
            cell_from_dict([1], "cells[2]")

    def test_without_a_path_the_field_is_named_alone(self):
        with pytest.raises(DataError, match='record: degenerate_t must be true or false, got "no"'):
            cell_from_dict({**GOLDEN_CELL, "degenerate_t": "no"})

    def test_integers_read_as_numbers(self):
        cell = cell_from_dict({**GOLDEN_CELL, "p_value": 1, "arp_base": {"value": 0, "n_topics": 3}})
        assert cell.p_value == 1.0 and type(cell.p_value) is float
        assert cell.arp_base == ARPValue(0.0, 3) and type(cell.arp_base.value) is float

    @pytest.mark.parametrize("key", ["result_delta", "ri_base", "ri_target", "delta_ri", "effect_ratio"])
    def test_undefined_values_may_be_null(self, key):
        assert getattr(cell_from_dict({**GOLDEN_CELL, key: None}), key) is None

    @pytest.mark.parametrize(
        "path", ["p_value", "effect_ratio", "arp_base.value", "pivot_arp_target.value"]
    )
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_number_too_large_for_a_float_names_the_path(self, path, sign):
        """1e999 decodes to inf. The table check refuses it and names the
        field, while the codec alone round-trips inf (see
        test_round_trip_with_none_nan_and_inf). A degenerate t-test's
        statistic is infinite, so the t statistic is exempt."""
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        record = payload["cells"][1]
        *outer, key = path.split(".")
        (record[outer[0]] if outer else record)[key] = "OVERFLOW"
        text = json.dumps(payload).replace('"OVERFLOW"', f"{sign}1e999")
        with pytest.raises(DataError) as excinfo:
            table_from_json(text, path="cells.json")
        assert str(excinfo.value) == (
            f"cells.json: malformed table JSON: cells[1].{path} must be finite, got {sign}inf"
        )


class TestArpOnScoredRuns:
    def test_arp_uses_common_topic_base(self):
        qrels, runs, topics = synthetic_environment(81)
        vector = score_run(runs["sys"], qrels, P_AT_10, topics | {"missing"})
        assert vector.scores["missing"] == 0.0
        assert arp(vector).n_topics == len(topics) + 1
