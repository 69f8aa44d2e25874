from __future__ import annotations

import json
import math

import pytest

from persisteval.errors import DataError, UsageError
from persisteval.measures import NDCG, P_AT_10, TopicScoreVector, arp
from persisteval.persistence import EEPair, persistence_cell
from persisteval.report import (
    er_dri_points,
    persistence_table,
    pivot_delta_series,
    render_table_csv,
    render_table_text,
    scatter_csv,
    series_csv,
    table_from_json,
    table_to_json,
    topic_delta_series,
)

from reference_table import ARP, E5_P10_LT_EFFECT_RATIO
from synth import MISFITS, four_vectors, misfit, score_tags, synthetic_cells, synthetic_environment


@pytest.fixture(scope="module")
def cells():
    return synthetic_cells()


@pytest.fixture(scope="module")
def table(cells):
    return persistence_table(cells, ee_order=["t1", "t2", "t3"])


class TestTableConstruction:
    def test_row_layout(self, table):
        keys = [(row.system_tag, row.ee_label) for row in table.rows]
        assert keys == [
            ("pivot", "t1"), ("pivot", "t2"), ("pivot", "t3"),
            ("alpha", "t1"), ("alpha", "t2"), ("alpha", "t3"),
            ("beta", "t1"), ("beta", "t2"), ("beta", "t3"),
        ]
        assert [m.name for m in table.measures] == ["P@10", "bpref", "nDCG"]

    def test_base_rows_carry_ideal_values(self, table):
        base_row = next(r for r in table.rows if r.system_tag == "alpha" and r.ee_label == "t1")
        for measure in table.measures:
            cell = base_row.cells[measure.name]
            assert cell.result_delta == 0.0
            assert cell.delta_ri == 0.0
            assert cell.effect_ratio == 1.0
            assert cell.p_value == 1.0

    def test_pivot_rows_have_only_arp_and_result_delta(self, table):
        pivot_target = next(r for r in table.rows if r.system_tag == "pivot" and r.ee_label == "t2")
        cell = pivot_target.cells["nDCG"]
        assert cell.arp is not None
        assert cell.result_delta is not None
        assert cell.delta_ri is None and cell.effect_ratio is None and cell.p_value is None
        assert cell.significant is None

    def test_target_rows_mirror_cells(self, table, cells):
        wanted = next(
            c for c in cells
            if c.system_tag == "beta" and c.measure == NDCG and c.pair.target_label == "t3"
        )
        row = next(r for r in table.rows if r.system_tag == "beta" and r.ee_label == "t3")
        cell = row.cells["nDCG"]
        assert cell.arp == wanted.arp_target.value
        assert cell.result_delta == wanted.result_delta
        assert cell.delta_ri == wanted.delta_ri
        assert cell.effect_ratio == wanted.effect_ratio
        assert cell.p_value == wanted.p_value

    def test_duplicate_cells_rejected(self, cells):
        with pytest.raises(DataError, match="duplicate cell"):
            persistence_table(list(cells) + [cells[0]])

    def test_two_cells_with_one_target_rejected(self, cells):
        import dataclasses

        other_base = dataclasses.replace(cells[0], pair=EEPair("t0", cells[0].pair.target_label))
        with pytest.raises(DataError, match="duplicate cell"):
            persistence_table(list(cells) + [other_base])

    def test_mixed_pivots_rejected(self, cells):
        import dataclasses

        other = dataclasses.replace(cells[0], pivot_tag="other")
        with pytest.raises(DataError):
            persistence_table([cells[1], other])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            persistence_table([])

    def test_derived_ee_order(self, cells):
        built = persistence_table(cells)
        assert built.ee_order == ("t1", "t2", "t3")

    def test_ee_order_must_cover_labels(self, cells):
        with pytest.raises(DataError):
            persistence_table(cells, ee_order=["t1", "t2"])

    def test_self_replication_row_renders_ideal(self):
        qrels, runs, topics = synthetic_environment(5)
        system, pivot = score_tags(runs, qrels, P_AT_10, topics, "t1")
        cell = persistence_cell(system, system, pivot, pivot)
        built = persistence_table([cell])
        row = next(r for r in built.rows if r.system_tag == "sys")
        rendered = row.cells["P@10"]
        assert rendered.result_delta == 0.0
        assert rendered.delta_ri == 0.0
        assert rendered.effect_ratio == 1.0
        assert rendered.p_value == 1.0


class TestRendering:
    def test_text_deterministic_and_reordering_safe(self, cells):
        first = render_table_text(persistence_table(cells, ee_order=["t1", "t2", "t3"]))
        second = render_table_text(
            persistence_table(list(reversed(cells)), ee_order=["t1", "t2", "t3"])
        )
        assert first == second

    def test_text_three_decimals(self, table):
        text = render_table_text(table)
        assert "pivot: pivot" in text
        for row_line in text.splitlines()[3:]:
            for token in row_line.replace("|", " ").split()[2:]:
                candidate = token.rstrip("*")
                if candidate in ("-", "undef"):
                    continue
                assert len(candidate.split(".")[-1]) == 3

    def test_csv_full_precision(self, table, cells):
        csv_text = render_table_csv(table)
        wanted = cells[0]
        assert repr(wanted.arp_target.value) in csv_text
        header = csv_text.splitlines()[0]
        assert header == "system,ee,measure,arp,result_delta,delta_ri,effect_ratio,p_value,significant"
        assert len(csv_text.splitlines()) == 1 + 9 * 3

    def test_json_round_trip_reproduces_table(self, table):
        blob = table_to_json(table)
        rebuilt = table_from_json(blob)
        assert render_table_text(rebuilt) == render_table_text(table)
        assert render_table_csv(rebuilt) == render_table_csv(table)
        assert table_to_json(rebuilt) == blob

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(ee_order="t1t2"), 'ee_order must be a list, got "t1t2"'),
            (lambda p: p.update(ee_order=["t1", 2]), "ee_order[1] must be a string, got 2"),
            (lambda p: p.pop("ee_order"), "ee_order is missing"),
            (lambda p: p.update(cells={}), "cells must be a list, got {}"),
            (
                lambda p: p["cells"][1].update(degenerate_t="false"),
                'cells[1].degenerate_t must be true or false, got "false"',
            ),
            (lambda p: p["cells"].__setitem__(2, "x"), 'cells[2] must be an object, got "x"'),
            (
                lambda p: p["cells"][1]["pair"].update(base=""),
                "malformed persistence cell record: "
                "cells[1].pair: evaluation environment labels must be non-empty",
            ),
            (
                lambda p: p["cells"][1].update(measure="P@0"),
                "malformed persistence cell record: cells[1].measure: invalid measure name 'P@0'",
            ),
        ],
    )
    def test_typed_json_names_the_path(self, table, edit, message):
        payload = json.loads(table_to_json(table))
        edit(payload)
        with pytest.raises(DataError) as excinfo:
            table_from_json(json.dumps(payload), path="cells.json")
        assert "cells.json: malformed table JSON: " in str(excinfo.value)
        assert str(excinfo.value).endswith(message)

    def test_json_document_must_be_an_object(self):
        with pytest.raises(DataError, match=r"the cells file must be an object, got \[\]"):
            table_from_json("[]")

    def test_significant_arp_is_starred(self, cells):
        import dataclasses

        marked = [dataclasses.replace(cells[0], p_vs_pivot_target=0.001)]
        text = render_table_text(persistence_table(marked))
        target_label = marked[0].pair.target_label
        row = next(
            line
            for line in text.splitlines()
            if line.startswith(marked[0].system_tag) and f" {target_label} " in line
        )
        assert "*" in row

    def test_reference_means_reproduce_reported_changes(self):
        # Feed the published mean columns through the change formula and
        # confirm the rendered pivot rows match the reported 3-decimal values.
        from persisteval.persistence import result_delta

        wt, lt = ARP["BM25"]["p@10"]["WT"], ARP["BM25"]["p@10"]["LT"]
        assert result_delta(wt, lt) == pytest.approx(-0.165, abs=0.015)


class TestScatter:
    def test_ideal_point_not_excluded(self, cells):
        points = er_dri_points(cells)
        assert len(points) == len(cells)
        for point in points:
            if point.x is not None and abs(point.x) <= 10 and point.y is not None:
                assert not point.excluded

    def test_outlier_exclusion_uses_reported_outlier_value(self, cells):
        import dataclasses

        outlier = dataclasses.replace(cells[0], effect_ratio=E5_P10_LT_EFFECT_RATIO)
        points = er_dri_points([outlier])
        assert points[0].excluded and points[0].x == E5_P10_LT_EFFECT_RATIO

    def test_undefined_er_excluded(self, cells):
        import dataclasses

        undefined = dataclasses.replace(cells[0], effect_ratio=None)
        points = er_dri_points([undefined])
        assert points[0].excluded and points[0].x is None

    def test_empty_input(self):
        assert er_dri_points([]) == ()

    def test_points_keep_the_order_of_the_cells(self, cells):
        for order in (cells, list(reversed(cells))):
            points = er_dri_points(order)
            assert [(p.system_tag, p.measure, p.pair) for p in points] == [
                (c.system_tag, c.measure, c.pair) for c in order
            ]

    def test_table_cells_are_sorted(self, cells):
        table = persistence_table(list(reversed(cells)))
        keys = [
            (c.system_tag, c.measure.name, c.pair.base_label, c.pair.target_label)
            for c in table.cells
        ]
        assert keys == sorted(keys) and len(keys) == len(cells)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_validation(self, cells, threshold):
        with pytest.raises(UsageError, match="must be positive and finite"):
            er_dri_points(cells, exclusion_threshold=threshold)

    def test_csv_shape(self, cells):
        text = scatter_csv(er_dri_points(cells))
        lines = text.splitlines()
        assert lines[0] == "system,measure,base_ee,target_ee,effect_ratio,delta_ri,excluded"
        assert len(lines) == 1 + len(cells)


class TestTopicDeltaSeries:
    def _vectors(self):
        base = TopicScoreVector(NDCG, "sys", "t1", {"q1": 0.2, "q2": 0.6, "q3": 0.4})
        target = TopicScoreVector(NDCG, "sys", "t2", {"q1": 0.5, "q2": 0.3, "q3": 0.4})
        return base, target

    def test_sorted_descending_with_tie_break(self):
        base = TopicScoreVector(NDCG, "sys", "t1", {"q1": 0.2, "q2": 0.6})
        target = TopicScoreVector(NDCG, "sys", "t2", {"q1": 0.5, "q2": 0.3})
        series = topic_delta_series(base, target)
        assert series.entries == (("q1", pytest.approx(0.3)), ("q2", pytest.approx(-0.3)))
        assert series.pair == EEPair("t1", "t2")

    def test_identical_vectors_all_zero(self):
        base, _ = self._vectors()
        same = TopicScoreVector(NDCG, "sys", "t2", dict(base.scores))
        series = topic_delta_series(base, same)
        assert all(delta == 0.0 for _, delta in series.entries)
        # Zero ties are broken by topic id ascending.
        assert [topic for topic, _ in series.entries] == ["q1", "q2", "q3"]

    def test_non_increasing_and_sums_to_mean_difference(self):
        base, target = self._vectors()
        series = topic_delta_series(base, target)
        deltas = [delta for _, delta in series.entries]
        assert all(deltas[i] >= deltas[i + 1] for i in range(len(deltas) - 1))
        n = len(base.scores)
        expected = n * (arp(target).value - arp(base).value)
        assert math.fsum(deltas) == pytest.approx(expected, abs=1e-9)

    def test_topic_mismatch_rejected(self):
        base = TopicScoreVector(NDCG, "sys", "t1", {"q1": 0.2})
        target = TopicScoreVector(NDCG, "sys", "t2", {"q2": 0.5})
        with pytest.raises(DataError):
            topic_delta_series(base, target)

    def test_tag_mismatch_rejected(self):
        base = TopicScoreVector(NDCG, "sys", "t1", {"q1": 0.2})
        target = TopicScoreVector(NDCG, "other", "t2", {"q1": 0.5})
        with pytest.raises(DataError):
            topic_delta_series(base, target)

    def test_four_vectors_fit(self):
        vectors = four_vectors()
        assert topic_delta_series(*vectors[:2]).pair == EEPair("E1", "E2")
        assert pivot_delta_series(*vectors).pair == EEPair("E1", "E2")

    @pytest.mark.parametrize(
        "case", [c for c in MISFITS if c[1] == (1,)], ids=lambda case: case[0]
    )
    def test_misfit_system_vector_rejected(self, case):
        with pytest.raises(DataError, match=case[3]):
            topic_delta_series(*misfit(case)[:2])

    @pytest.mark.parametrize("case", MISFITS, ids=lambda case: case[0])
    def test_misfit_vector_rejected_in_pivot_delta_series(self, case):
        with pytest.raises(DataError, match=case[3]):
            pivot_delta_series(*misfit(case))

    def test_min_max_match_loop_oracle(self):
        base, target = self._vectors()
        series = topic_delta_series(base, target)
        expected = [target.scores[t] - base.scores[t] for t in base.scores]
        assert series.entries[0][1] == max(expected)
        assert series.entries[-1][1] == min(expected)

    def test_pivot_delta_variant(self):
        qrels_base, runs_base, topics = synthetic_environment(300)
        qrels_target, runs_target, _ = synthetic_environment(301)
        from persisteval.measures import score_run

        sys_b = score_run(runs_base["sys"], qrels_base, NDCG, topics, "t1")
        piv_b = score_run(runs_base["pivot"], qrels_base, NDCG, topics, "t1")
        sys_t = score_run(runs_target["sys"], qrels_target, NDCG, topics, "t2")
        piv_t = score_run(runs_target["pivot"], qrels_target, NDCG, topics, "t2")
        series = pivot_delta_series(sys_b, sys_t, piv_b, piv_t)
        by_topic = dict(series.entries)
        for topic in topics:
            expected = (sys_t.scores[topic] - piv_t.scores[topic]) - (
                sys_b.scores[topic] - piv_b.scores[topic]
            )
            assert by_topic[topic] == pytest.approx(expected, abs=1e-12)

    def test_series_csv(self):
        base, target = self._vectors()
        text = series_csv(topic_delta_series(base, target))
        lines = text.splitlines()
        assert lines[0] == "system,measure,base_ee,target_ee,topic,delta"
        assert len(lines) == 4
