from __future__ import annotations

import csv
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from persisteval.errors import DataError, UsageError
from persisteval.measures import (
    BPREF, NDCG, P_AT_10, ARPValue, MeasureId, TopicScoreVector, arp,
)
from persisteval.persistence import EEPair, PersistenceCell, persistence_cell
from persisteval.report import (
    PersistenceTable,
    ScatterPoint,
    TableCell,
    TableRow,
    TopicDeltaSeries,
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

from oracles import (
    ORACLE_CELL_NUMBERS,
    oracle_render_table_csv,
    oracle_render_table_text,
    oracle_scatter_csv,
    oracle_series_csv,
    oracle_table_rows,
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
        other_base = cells[0]._replace(pair=EEPair("t0", cells[0].pair.target_label))
        with pytest.raises(DataError, match="duplicate cell"):
            persistence_table(list(cells) + [other_base])

    def test_mixed_pivots_rejected(self, cells):
        other = cells[0]._replace(pivot_tag="other")
        with pytest.raises(DataError):
            persistence_table([cells[1], other])

    def test_system_that_is_the_pivot_rejected(self, cells):
        as_pivot = cells[1]._replace(system_tag=cells[1].pivot_tag)
        with pytest.raises(DataError) as excinfo:
            persistence_table([cells[0], as_pivot])
        assert str(excinfo.value) == "cells[1]: system and pivot share the tag 'pivot'"

    @pytest.mark.parametrize("order", list(itertools.permutations(["tag", "number", "duplicate"])))
    def test_the_earliest_faulty_cell_is_named(self, cells, order):
        """A cell whose system is the pivot, a cell holding inf and a cell that
        repeats cells[0]'s target, in each order: the first of them is named."""
        first = cells[0]
        system, name, target = first.system_tag, first.measure.name, first.pair.target_label
        faults = {  # each fault's edit and its message, for the cell at {}
            "tag": (
                lambda c: c._replace(system_tag=c.pivot_tag),
                "{}: system and pivot share the tag 'pivot'",
            ),
            "number": (
                lambda c: c._replace(effect_ratio=math.inf),
                "{}.effect_ratio must be finite, got inf",
            ),
            "duplicate": (
                lambda c: cells[0],
                f"duplicate cell: system {system!r} has two cells targeting {target!r} for {name}",
            ),
        }
        faulty = [faults[fault][0](cell) for fault, cell in zip(order, cells[1:4])]
        with pytest.raises(DataError) as excinfo:
            persistence_table([cells[0], *faulty, *cells[4:]])
        assert str(excinfo.value) == faults[order[0]][1].format("cells[1]")

    @pytest.mark.parametrize(
        "faulty, message",
        [
            (  # a tag and a number: the tag
                [lambda c: c._replace(system_tag="pivot", p_value=math.nan)],
                "cells[1]: system and pivot share the tag 'pivot'",
            ),
            (  # two numbers: the first in CELL_NUMBERS order
                [lambda c: c._replace(p_value=math.inf, arp_target=ARPValue(-math.inf, 3))],
                "cells[1].arp_target.value must be finite, got -inf",
            ),
            (  # a number and a repeated target: the number
                [lambda c: c, lambda c: c._replace(effect_ratio=math.inf)],
                "cells[2].effect_ratio must be finite, got inf",
            ),
            (  # all three in the later of two cells: the earlier cell's tag
                [lambda c: c._replace(system_tag="pivot")] * 2
                + [lambda c: c._replace(system_tag="pivot", delta_ri=math.inf)],
                "cells[1]: system and pivot share the tag 'pivot'",
            ),
        ],
        ids=["tag-and-number", "two-numbers", "number-and-duplicate", "all-three"],
    )
    def test_within_one_cell_the_tag_then_a_number_then_a_repeat(self, cells, faulty, message):
        with pytest.raises(DataError) as excinfo:
            persistence_table([cells[0], *(edit(cells[1]) for edit in faulty), *cells[2:]])
        assert str(excinfo.value) == message

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            persistence_table([])

    def test_inconsistent_pivot_means_rejected(self, cells):
        """beta's last bpref cell, based in t1, gives the pivot another mean
        there than alpha's bpref cells, which come first."""
        last = cells[-1]
        assert (last.system_tag, last.measure, last.pair.base_label) == ("beta", BPREF, "t1")
        moved = last._replace(pivot_arp_base=ARPValue(0.5, 8))
        known = last.pivot_arp_base.value
        with pytest.raises(DataError) as excinfo:
            persistence_table([*cells[:-1], moved])
        assert str(excinfo.value) == f"inconsistent pivot means for bpref in 't1': {known} vs 0.5"

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

    def test_degenerate_cell_round_trips_exactly(self):
        """Constant system scores make the cross t-test degenerate. Its
        statistic, -inf in the t-test, is None in the cell with its reason,
        and cells.json keeps both."""

        def vector(tag, label, values):
            return TopicScoreVector(P_AT_10, tag, label, dict(zip(("q1", "q2", "q3"), values)))

        pivot = [0.1, 0.2, 0.3]
        cell = persistence_cell(
            vector("sys", "t1", [0.25] * 3), vector("sys", "t2", [0.5] * 3),
            vector("pivot", "t1", pivot), vector("pivot", "t2", pivot),
        )
        assert cell.t_statistic is None and cell.degenerate_t
        assert cell.undefined_flags == ("t_statistic: non-finite (degenerate variance)",)
        table = persistence_table([cell])
        assert table_from_json(table_to_json(table)) == table

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

    @pytest.mark.parametrize(
        "cell, shown",
        [
            (TableCell(arp=0.5), ["0.500", "undef", "-", "-", "-"]),
            (TableCell(), ["-", "-", "-", "-", "-"]),
            (TableCell(p_value=0.5), ["-", "-", "undef", "undef", "0.500"]),
            (TableCell(0.5, 0.1, 0.2, None, 0.5), ["0.500", "0.100", "0.200", "undef", "0.500"]),
        ],
    )
    def test_a_missing_change_is_undefined_beside_its_anchor(self, cell, shown):
        # A missing RD is undefined when the cell has an ARP, a missing DRI
        # or ER when it has a p-value; otherwise it does not apply.
        row = TableRow("sys", "t2", {"nDCG": cell})
        text = render_table_text(PersistenceTable("pivot", (NDCG,), (), (row,), ()))
        assert text.splitlines()[3].split(" | ")[1].split() == shown

    def test_significant_arp_is_starred(self, cells):
        marked = [cells[0]._replace(p_vs_pivot_target=0.001)]
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


# Labels with the characters CSV quotes and non-ASCII ones; numbers with
# None, signed zeros and values that round to -0.000 or 0.000.
csv_labels = st.text(
    st.sampled_from([",", '"', "\n", "\r", "é", "☃", " "]) | st.characters(codec="utf-8"),
    min_size=1,
    max_size=5,
)
edge_numbers = st.sampled_from([0.0, -0.0, -0.0004, 0.0004, -0.0005, 1.0, -1e-300, 0.1 + 0.2])
numbers = st.none() | edge_numbers | st.floats(allow_nan=False, allow_infinity=False)
render_measures = st.sampled_from([P_AT_10, NDCG, BPREF, MeasureId("ndcg", 20)])
table_cells = st.builds(
    TableCell,
    arp=numbers,
    result_delta=numbers,
    delta_ri=numbers,
    effect_ratio=numbers,
    p_value=numbers,
    significant=st.none() | st.booleans(),
)


@st.composite
def tables(draw):
    measures = draw(st.lists(render_measures, min_size=1, max_size=3, unique=True))
    row_cells = st.fixed_dictionaries({m.name: table_cells for m in measures})
    rows = st.builds(TableRow, csv_labels, csv_labels, row_cells)
    rows = draw(st.lists(rows, min_size=1, max_size=5))
    return PersistenceTable(draw(csv_labels), tuple(measures), (), tuple(rows), ())


pairs = st.builds(EEPair, csv_labels, csv_labels)
scatter_points = st.lists(
    st.builds(ScatterPoint, csv_labels, render_measures, pairs, numbers, numbers, st.booleans()),
    max_size=5,
)
entries = st.lists(st.tuples(csv_labels, edge_numbers | st.floats(allow_nan=False)), max_size=5)
series = st.builds(TopicDeltaSeries, csv_labels, render_measures, pairs, entries.map(tuple))


def records(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


class TestRenderersMatchTheOracle:
    """The column-at-a-time renderers write byte for byte what the
    row-by-row ones in oracles.py write with csv.writer and a formatter per
    value."""

    @given(tables())
    def test_table_text(self, table):
        assert render_table_text(table) == oracle_render_table_text(table)

    @given(tables())
    def test_table_csv(self, table):
        text = render_table_csv(table)
        assert text == oracle_render_table_csv(table)
        # A quoted line break stays inside its record.
        rows = records(text)[1:]
        assert len(rows) == len(table.rows) * len(table.measures)
        assert [row[:2] for row in rows[:: len(table.measures)]] == [
            [row.system_tag, row.ee_label] for row in table.rows
        ]

    @given(scatter_points)
    def test_scatter_csv(self, points):
        text = scatter_csv(points)
        assert text == oracle_scatter_csv(points)
        assert [row[0] for row in records(text)[1:]] == [point.system_tag for point in points]

    @given(series)
    def test_series_csv(self, entries):
        text = series_csv(entries)
        assert text == oracle_series_csv(entries)
        assert [row[4] for row in records(text)[1:]] == [topic for topic, _ in entries.entries]

    def test_one_row_table_and_empty_series(self):
        cell = TableCell(arp=-0.0, result_delta=-0.0004, significant=True)
        table = PersistenceTable("p,1", (NDCG,), (), (TableRow('a"b', "t\r1", {"nDCG": cell}),), ())
        assert render_table_text(table) == oracle_render_table_text(table)
        assert render_table_csv(table) == oracle_render_table_csv(table)
        # A lone carriage return is quoted too, so the record stays whole.
        assert '"a""b","t\r1",nDCG,-0.0,-0.0004,,,,true\n' in render_table_csv(table)
        assert "0.000*" in render_table_text(table) and "-0.000" in render_table_text(table)
        empty = TopicDeltaSeries("a", NDCG, EEPair("t1", "t2"), ())
        header = "system,measure,base_ee,target_ee,topic,delta\n"
        assert series_csv(empty) == oracle_series_csv(empty) == header
        assert scatter_csv([]) == oracle_scatter_csv([])


# Pairs that chain (t1 -> t2 -> t3), fan out from t1, replicate t2 on itself
# and give t3 and t4 a second base; few distinct means, so that a pivot base
# mean of zero and equal means come up.
ORACLE_PAIRS = [
    EEPair(*pair)
    for pair in (("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("t1", "t4"), ("t3", "t4"), ("t2", "t2"))
]
oracle_means = st.sampled_from([0.0, 0.25, 0.5, 0.75])
oracle_changes = st.none() | st.sampled_from([-0.5, 0.0, 1.5])
oracle_p_values = st.sampled_from([0.01, 0.05, 0.5])


@st.composite
def oracle_cases(draw):
    """Cells of up to three systems over two measures, each system targeting
    an EE at most once per measure, and an ee_order. In about one case in
    four one cell moves a pivot mean, which the other cells may contradict.
    In about one case in three one more cell is invalid: its pivot differs,
    its system is its pivot, one of its numbers is not finite, or it repeats
    the target of another; and in about one in five the ee_order drops or
    repeats a label."""
    labels = ["t1", "t2", "t3", "t4"]
    pivot = {(m, label): draw(oracle_means) for m in (P_AT_10, NDCG) for label in labels}
    tags = st.sampled_from(["alpha", "beta", "gamma"])
    systems = draw(st.lists(tags, min_size=1, max_size=3, unique=True))
    cells = []
    for system in systems:
        for measure in (P_AT_10, NDCG):
            pairs = st.lists(
                st.sampled_from(ORACLE_PAIRS), min_size=0 if cells else 1, max_size=3,
                unique_by=lambda pair: pair.target_label,
            )
            for pair in draw(pairs):
                cells.append(PersistenceCell(
                    system, "pivot", measure, pair,
                    ARPValue(draw(oracle_means), 5), ARPValue(draw(oracle_means), 5),
                    ARPValue(pivot[measure, pair.base_label], 5),
                    ARPValue(pivot[measure, pair.target_label], 5),
                    draw(oracle_changes), None, None, draw(oracle_changes), draw(oracle_changes),
                    None, draw(oracle_p_values), draw(oracle_p_values), draw(oracle_p_values),
                ))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(cells) - 1))
        cells[i] = cells[i]._replace(pivot_arp_target=ARPValue(0.125, 5))
    fault = draw(st.sampled_from([None] * 8 + ["pivot", "self", "number", "target"]))
    if fault is not None:
        cell = draw(st.sampled_from(cells))
        if fault == "pivot":
            cell = cell._replace(pivot_tag="other")
        elif fault == "self":
            cell = cell._replace(system_tag="pivot")
        elif fault == "number":
            field, *arp = draw(st.sampled_from(ORACLE_CELL_NUMBERS)).split(".")
            value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            cell = cell._replace(**{field: ARPValue(value, 5) if arp else value})
        else:
            same_target = [p for p in ORACLE_PAIRS if p.target_label == cell.pair.target_label]
            cell = cell._replace(pair=draw(st.sampled_from(same_target)))
        cells.append(cell)
    order = draw(st.permutations(labels))
    order = draw(st.sampled_from([order] * 8 + [order[1:], order + order[:1]]))
    return draw(st.permutations(cells)), order


class TestTableRowsMatchTheOracle:
    """persistence_table builds the rows the two-pass oracle builds, and
    refuses invalid cells, a bad ee_order and contradicting pivot means
    with the oracle's message, the first fault first."""

    @given(oracle_cases())
    @example(([], ["t1", "t2"]))
    def test_rows(self, case):
        cells, ee_order = case
        try:
            expected = oracle_table_rows(cells, ee_order)
        except ValueError as exc:
            with pytest.raises(DataError) as excinfo:
                persistence_table(cells, ee_order)
            assert str(excinfo.value) == str(exc)
            return
        built = [
            (row.system_tag, row.ee_label, {name: tuple(c) for name, c in row.cells.items()})
            for row in persistence_table(cells, ee_order).rows
        ]
        assert built == expected


class TestScatter:
    def test_ideal_point_not_excluded(self, cells):
        points = er_dri_points(cells)
        assert len(points) == len(cells)
        for point in points:
            if point.x is not None and abs(point.x) <= 10 and point.y is not None:
                assert not point.excluded

    def test_outlier_exclusion_uses_reported_outlier_value(self, cells):
        outlier = cells[0]._replace(effect_ratio=E5_P10_LT_EFFECT_RATIO)
        points = er_dri_points([outlier])
        assert points[0].excluded and points[0].x == E5_P10_LT_EFFECT_RATIO

    def test_undefined_er_excluded(self, cells):
        undefined = cells[0]._replace(effect_ratio=None)
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

        sys_b = score_run(runs_base["sys"].judged(qrels_base), NDCG, topics, "t1")
        piv_b = score_run(runs_base["pivot"].judged(qrels_base), NDCG, topics, "t1")
        sys_t = score_run(runs_target["sys"].judged(qrels_target), NDCG, topics, "t2")
        piv_t = score_run(runs_target["pivot"].judged(qrels_target), NDCG, topics, "t2")
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
