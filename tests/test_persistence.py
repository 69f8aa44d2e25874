from __future__ import annotations

import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persisteval import persistence
from persisteval.errors import DataError
from persisteval.measures import (
    KINDS,
    ARPValue,
    MeasureId,
    TopicScoreVector,
    arp,
    parse_measure,
    score_run,
)
from persisteval.persistence import (
    EEPair,
    PersistenceCell,
    cell_from_dict,
    cell_to_dict,
    cells_from_dicts,
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

P_AT_10, NDCG, BPREF = map(parse_measure, ("p@10", "ndcg", "bpref"))


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
                t: oracle_p_at_k(list(run.rankings.get(t, ())), qrels.for_topic(t).grades, 10)
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
        pivot = system._replace(run_tag="pivot")
        cell = persistence_cell(system, system, pivot, pivot)
        # Deltas against itself are all zero, so the effect ratio is undefined.
        assert cell.effect_ratio is None
        assert any("effect_ratio" in flag for flag in cell.undefined_flags)

    def test_separate_target_topics(self):
        qrels_base, runs_base, topics = synthetic_environment(61, n_topics=8)
        qrels_target, runs_target, _ = synthetic_environment(62, n_topics=8)
        smaller = frozenset(sorted(topics)[:5])
        sys_b, piv_b = score_tags(runs_base, qrels_base, P_AT_10, topics, "E1")
        sys_t, piv_t = score_tags(runs_target, qrels_target, P_AT_10, smaller, "E2")
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
        pivot = system._replace(run_tag="pivot")
        data = cell_to_dict(persistence_cell(system, system, pivot, pivot))
        assert data["effect_ratio"] is None
        assert any("effect_ratio" in flag for flag in data["undefined_flags"])

    def test_system_that_is_the_pivot_rejected(self):
        qrels, runs, topics = synthetic_environment(5)
        system, _ = score_tags(runs, qrels, P_AT_10, topics, "t1")
        with pytest.raises(DataError, match=r"^system and pivot share the tag 'sys'$"):
            persistence_cell(system, system, system, system)

    def test_malformed_record_rejected(self):
        with pytest.raises(DataError):
            cell_from_dict({"system_tag": "x"})

    def test_non_finite_t_serializes_stably(self):
        """Constant system scores make the cross t-test degenerate: its
        statistic is None, with its reason right after the effect ratio's,
        and null in JSON. Here the base delta over the pivot is 0 as well."""
        topics = ("q1", "q2", "q3")

        def vector(tag, label, values):
            return TopicScoreVector(NDCG, tag, label, dict(zip(topics, values)))

        cell = persistence_cell(
            vector("sys", "E1", [0.25] * 3), vector("sys", "E2", [0.5] * 3),
            vector("pivot", "E1", [0.25] * 3), vector("pivot", "E2", [0.1, 0.2, 0.3]),
        )
        assert cell.t_statistic is None and cell.degenerate_t
        assert cell.undefined_flags == ("effect_ratio: mean base delta is zero", NONFINITE_T_FLAG)
        first = cell_to_dict(cell)
        assert first["t_statistic"] is None
        assert cell_from_dict(first) == cell
        assert cell_to_dict(cell_from_dict(first)) == first


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
# The cell fields that are None when undefined, each with its reason in undefined_flags.
UNDEFINABLE = ("result_delta", "ri_base", "ri_target", "delta_ri", "effect_ratio", "t_statistic")

FOUR_VECTORS = four_vectors()
any_float = st.floats(allow_nan=True, allow_infinity=True)
labels = st.text(min_size=1, max_size=4)
arp_values = st.builds(ARPValue, any_float, st.integers(0, 50))
generated_cells = st.builds(
    PersistenceCell,
    system_tag=st.text(max_size=4),
    pivot_tag=st.text(max_size=4),
    measure=st.sampled_from([P_AT_10, NDCG, BPREF, MeasureId("ndcg", 5)]),
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
    t_statistic=st.none() | any_float,
    p_value=any_float,
    p_vs_pivot_base=any_float,
    p_vs_pivot_target=any_float,
    degenerate_t=st.booleans(),
    undefined_flags=st.lists(st.sampled_from(["a", "b", NONFINITE_T_FLAG]), max_size=2).map(tuple),
)


class TestCellCodec:
    @given(generated_cells)
    def test_round_trip_with_none_nan_and_inf(self, cell):
        assert cell_from_dict(cell_to_dict(cell)) == cell

    @given(st.sampled_from(KINDS), st.none() | st.integers(1, 1100))
    def test_every_admitted_measure_round_trips(self, kind, cut):
        """P@k needs its k and bpref takes no cut; any other measure is one
        with its name, in either case, and with the cells built on it."""
        admitted = cut is not None if kind == "precision_at_k" else cut is None or kind == "ndcg"
        try:
            measure = MeasureId(kind, cut)
        except ValueError:
            assert not admitted
            return
        assert admitted and measure.cut == cut
        assert parse_measure(measure.name) == measure == parse_measure(measure.name.upper())
        cell = persistence_cell(*(vector._replace(measure=measure) for vector in FOUR_VECTORS))
        assert cell.measure == measure and cell_from_dict(cell_to_dict(cell)) == cell

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

    @pytest.mark.parametrize("key", UNDEFINABLE)
    def test_undefined_values_may_be_null(self, key):
        assert getattr(cell_from_dict({**GOLDEN_CELL, key: None}), key) is None

    @pytest.mark.parametrize(
        "path",
        ["p_value", "effect_ratio", "t_statistic", "arp_base.value", "pivot_arp_target.value"],
    )
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_number_too_large_for_a_float_names_the_path(self, path, sign):
        """1e999 decodes to inf. The table check refuses it and names the
        field, while the codec alone round-trips inf (see
        test_round_trip_with_none_nan_and_inf)."""
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


# Cells whose JSON form has every value of its exact type: no null, so no
# undefined value.
exact_cells = generated_cells.map(
    lambda cell: cell._replace(**{name: 0.5 for name in UNDEFINABLE if getattr(cell, name) is None})
)


def _without(key: str):
    return lambda record: {k: v for k, v in record.items() if k != key}


# Edits of a cell's JSON record: canonical, with a null, lenient, then malformed.
RECORD_EDITS = {
    "canonical": lambda r: {**r, **{key: 0.5 for key in UNDEFINABLE if r[key] is None}},
    "nulls": lambda r: {**r, "t_statistic": None},
    "integer-number": lambda r: {**r, "p_value": 1},
    "integer-arp-value": lambda r: {**r, "arp_target": {**r["arp_target"], "value": 0}},
    "no-degenerate_t": _without("degenerate_t"),
    "no-undefined_flags": _without("undefined_flags"),
    "wrong-type": lambda r: {**r, "p_value": "0.5"},
    "null-p": lambda r: {**r, "p_value": None},
    "float-count": lambda r: {**r, "arp_base": {**r["arp_base"], "n_topics": 4.0}},
    "unknown-key": lambda r: {**r, "extra": 1},
    "unknown-pair-key": lambda r: {**r, "pair": {**r["pair"], "extra": "t3"}},
    "bad-measure": lambda r: {**r, "measure": "P@0"},
    "empty-label": lambda r: {**r, "pair": {**r["pair"], "base": ""}},
    "non-string-flag": lambda r: {**r, "undefined_flags": ["a", 1]},
    "not-an-object": lambda r: [r["system_tag"]],
}

def one_check(record: dict) -> PersistenceCell:
    """The record read on the column path; fails if the column checks refuse it."""
    cells = persistence._columnwise([record])
    assert cells is not None, "took the per-field path"
    return cells[0]


class TestDecoderPaths:
    """cells_from_dicts checks records a chunk at a time, a column at a time,
    and builds a chunk's cells together when every record in it is an object of
    exactly its fields, each value of its exact JSON type or a null its field
    reads. Any other chunk is read record by record by cell_from_dict, the
    per-field path, the home of every lenient form and message."""

    @given(exact_cells)
    def test_one_check_path_builds_what_the_per_field_path_builds(self, cell):
        record = cell_to_dict(cell)
        built = one_check(record)
        assert built == cell_from_dict(record, "cells[3]")
        assert [type(value) for value in built] == [type(value) for value in cell]

    @given(generated_cells)
    def test_both_paths_agree_on_any_record(self, cell):
        record = cell_to_dict(cell)
        assert cells_from_dicts([record]) == [cell_from_dict(record, "cells[0]")]

    def test_golden_cells_take_the_one_check_path(self):
        for record in json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))["cells"]:
            assert one_check(record) == cell_from_dict(record, "")

    @pytest.mark.parametrize(
        "edit, check",
        [
            (lambda r: r.update(p_value=1), lambda c: c.p_value == 1.0 and type(c.p_value) is float),
            (
                lambda r: r.update(arp_base={"value": 0, "n_topics": 3}),
                lambda c: c.arp_base == ARPValue(0.0, 3) and type(c.arp_base.value) is float,
            ),
            (lambda r: r.pop("degenerate_t"), lambda c: c.degenerate_t is False),
            (lambda r: r.pop("undefined_flags"), lambda c: c.undefined_flags == ()),
        ],
        ids=["integer-number", "integer-arp-value", "no-degenerate_t", "no-undefined_flags"],
    )
    def test_records_the_check_refuses_are_read_field_by_field(self, edit, check):
        record = json.loads(json.dumps(GOLDEN_CELL))
        edit(record)
        per_field = mock.Mock(wraps=cell_from_dict)
        with mock.patch.object(persistence, "cell_from_dict", per_field):
            [cell] = cells_from_dicts([record])
        per_field.assert_called_once_with(record, "cells[0]")
        assert check(cell)

    @pytest.mark.parametrize(
        "edit, check",
        [
            (lambda r: r.update(t_statistic=None), lambda c: c.t_statistic is None),
            (lambda r: r.update(effect_ratio=None), lambda c: c.effect_ratio is None),
        ],
        ids=["null-t", "null-undefined-value"],
    )
    def test_records_with_nulls_take_the_column_path(self, edit, check):
        record = json.loads(json.dumps(GOLDEN_CELL))
        edit(record)
        cell = one_check(record)
        assert cell == cell_from_dict(record, "cells[3]")
        assert check(cell)

    @given(
        st.lists(st.tuples(generated_cells, st.sampled_from(sorted(RECORD_EDITS))), max_size=8),
        st.integers(1, 4),
    )
    def test_the_column_path_reads_any_list_as_the_per_field_path(self, drawn, chunk):
        """Canonical, null-holding, lenient and malformed records at random
        places, read in chunks of 1 to 4: the cells, or the first malformed
        record's error, are those of reading each record field by field as
        cells[i]."""
        records = [RECORD_EDITS[kind](cell_to_dict(cell)) for cell, kind in drawn]

        def read(decode):
            try:
                cells = decode()
            except DataError as exc:
                return str(exc)
            return cells, repr(cells)  # repr tells 0 from 0.0, also in an ARP

        expected = read(lambda: [
            cell_from_dict(record, f"cells[{i}]") for i, record in enumerate(records)
        ])
        with mock.patch.object(persistence, "_CHUNK", chunk):
            if {kind for _, kind in drawn} <= {"canonical", "nulls"}:
                with mock.patch.object(persistence, "cell_from_dict", side_effect=AssertionError):
                    assert read(lambda: cells_from_dicts(records)) == expected
            assert read(lambda: cells_from_dicts(records)) == expected

    def test_only_a_chunk_holding_a_refused_record_is_read_field_by_field(self):
        records = [json.loads(json.dumps(GOLDEN_CELL)) for _ in range(3 * persistence._CHUNK)]
        records[persistence._CHUNK + 7]["p_value"] = 1
        per_field = mock.Mock(wraps=cell_from_dict)
        with mock.patch.object(persistence, "cell_from_dict", per_field):
            cells = cells_from_dicts(records)
        second = range(persistence._CHUNK, 2 * persistence._CHUNK)
        assert per_field.call_args_list == [mock.call(records[i], f"cells[{i}]") for i in second]
        assert cells == [cell_from_dict(record) for record in records]
        assert cells[persistence._CHUNK + 7].p_value == 1.0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("system_tag", 7, "cells[3].system_tag must be a string, got 7"),
            ("degenerate_t", 0, "cells[3].degenerate_t must be true or false, got 0"),
            ("pair", {"base": "t1", "target": 2}, "cells[3].pair.target must be a string, got 2"),
            (
                "arp_base",
                {"value": 0.5, "n_topics": True},
                "cells[3].arp_base.n_topics must be an integer, got true",
            ),
            ("undefined_flags", ["a", 1], "cells[3].undefined_flags[1] must be a string, got 1"),
            # The right types, but a value check fails.
            ("measure", "P@0", "cells[3].measure: invalid measure name 'P@0'"),
            (
                "pair",
                {"base": "", "target": "t2"},
                "cells[3].pair: evaluation environment labels must be non-empty",
            ),
        ],
    )
    def test_a_wrong_value_is_named_by_the_per_field_path(self, key, value, message):
        record = {**GOLDEN_CELL, key: value}
        assert persistence._columnwise([record]) is None
        with pytest.raises(DataError) as excinfo:
            cell_from_dict(record, "cells[3]")
        assert str(excinfo.value) == f"malformed persistence cell record: {message}"


class TestArpOnScoredRuns:
    def test_arp_uses_common_topic_base(self):
        qrels, runs, topics = synthetic_environment(81)
        vector = score_run(runs["sys"].judged(qrels), P_AT_10, topics | {"missing"})
        assert vector.scores["missing"] == 0.0
        assert arp(vector).n_topics == len(topics) + 1
