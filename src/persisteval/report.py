"""Assemble persistence cells into presentation artifacts.

Three artifacts are produced from a list of PersistenceCells that share a
pivot:

- a persistence table with one row per (system, environment) and one
  column group per measure, each group holding ARP, RD (result delta),
  DRI (delta of relative improvements), ER (effect ratio), and p (the
  cross-environment t-test). Base-environment rows carry the ideal values
  RD=0, DRI=0, ER=1, p=1; pivot rows carry only ARP and RD. An ARP is
  starred when the system differs significantly (p < 0.05) from the pivot
  within that environment.
- scatter points of effect ratio against delta-RI, one per cell, with an
  exclusion flag for outliers (|ER| above a threshold) so plots can keep a
  readable scale. Fully persistent systems sit at (1, 0).
- per-topic delta series: target-minus-base score differences per topic,
  sorted from largest gain to largest loss.

Text rendering rounds to 3 decimals; CSV and JSON keep full precision.
Rendering is deterministic: the same cells produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from operator import attrgetter

from .errors import DataError, Record, UsageError
from .measures import TopicScoreVector
from .persistence import (
    EEPair,
    PersistenceCell,
    cell_from_dict,
    cell_to_dict,
    check_fit,
    check_same_topics,
    result_delta,
    topic_deltas,
)
from .run_io import json_member, json_strings, json_typed, parse_json

SIGNIFICANCE_ALPHA = 0.05
DEFAULT_ER_EXCLUSION = 10.0

# How a table cell's field came to be empty.
NOT_APPLICABLE = "-"
UNDEFINED = "undef"
# The cell fields that are None when undefined.
_UNDEFINABLE = ("result_delta", "delta_ri", "effect_ratio")
# The numbers of a cell, all finite in a table (a JSON number too large for a
# float decodes to inf); a degenerate t-test's infinite statistic is not one.
_NUMBERS = (
    "arp_base.value", "arp_target.value", "pivot_arp_base.value", "pivot_arp_target.value",
    "result_delta", "ri_base", "ri_target", "delta_ri", "effect_ratio", "p_value",
    "p_vs_pivot_base", "p_vs_pivot_target",
)
_numbers = attrgetter(*_NUMBERS)


class TableCell(
    Record,
    namedtuple(
        "TableCell",
        "arp result_delta delta_ri effect_ratio p_value significant undefined_fields",
        defaults=(None, None, None, None, None, None, frozenset()),
    ),
):
    """One measure's values for one (system, EE) row. ``None`` fields are
    rendered as undefined when named in ``undefined_fields``, otherwise as
    structurally not applicable."""

    __slots__ = ()


class TableRow(Record, namedtuple("TableRow", "system_tag ee_label cells")):
    """One (system, EE) row; ``cells`` maps each measure name to a TableCell."""

    __slots__ = ()


class PersistenceTable(
    Record, namedtuple("PersistenceTable", "pivot_tag measures ee_order rows cells")
):
    """The rows to render plus the cells behind them, sorted by system,
    measure name, base and target label. ``measures`` are the MeasureIds
    sorted by name and ``ee_order`` the row chronology."""

    __slots__ = ()


class ScatterPoint(Record, namedtuple("ScatterPoint", "system_tag measure pair x y excluded")):
    """One cell's point: ``x`` is its effect ratio, ``y`` its delta of
    relative improvements."""

    __slots__ = ()


class TopicDeltaSeries(Record, namedtuple("TopicDeltaSeries", "system_tag measure pair entries")):
    """One system's (topic, delta) entries, delta descending."""

    __slots__ = ()


def _cell_sort_key(cell: PersistenceCell) -> tuple:
    return (cell.system_tag, cell.measure.name, cell.pair.base_label, cell.pair.target_label)


def _check_cells(cells: Sequence[PersistenceCell]) -> tuple[PersistenceCell, ...]:
    if not cells:
        raise DataError("cannot build a table from zero cells")
    pivots = {c.pivot_tag for c in cells}
    if len(pivots) != 1:
        raise DataError(f"cells mix pivots: {sorted(pivots)}")
    # A target row shows one cell per measure; a repeated pair repeats its target.
    targets: set[tuple] = set()
    for i, cell in enumerate(cells):
        for name, value in zip(_NUMBERS, _numbers(cell)):
            if value is not None and not math.isfinite(value):
                raise DataError(f"cells[{i}].{name} must be finite, got {value}")
        key = (cell.system_tag, cell.measure.name, cell.pair.target_label)
        if key in targets:
            raise DataError(
                f"duplicate cell: system {cell.system_tag!r} has two cells targeting "
                f"{cell.pair.target_label!r} for {cell.measure.name}"
            )
        targets.add(key)
    return tuple(sorted(cells, key=_cell_sort_key))


def persistence_table(
    cells: Sequence[PersistenceCell], ee_order: Sequence[str] | None = None
) -> PersistenceTable:
    """Build the persistence table from cells sharing one pivot.

    ``ee_order`` fixes the row chronology (base snapshots first); when
    omitted it falls back to base labels then target labels, each sorted.
    """
    ordered_cells = _check_cells(cells)
    pivot_tag = ordered_cells[0].pivot_tag
    measures = tuple(sorted({c.measure for c in ordered_cells}, key=lambda m: m.name))
    names = [m.name for m in measures]
    bases = {c.pair.base_label for c in ordered_cells}
    labels = bases | {c.pair.target_label for c in ordered_cells}
    if ee_order is None:
        order = tuple(sorted(bases) + sorted(labels - bases))
    else:
        missing = labels - set(ee_order)
        if missing:
            raise DataError(f"ee_order does not cover {sorted(missing)}")
        if len(set(ee_order)) < len(ee_order):
            raise DataError(f"ee_order repeats a label: {json.dumps(list(ee_order))}")
        order = tuple(label for label in ee_order if label in labels)
    systems = sorted({c.system_tag for c in ordered_cells})

    by_target: dict[tuple[str, str, str], PersistenceCell] = {}
    by_base: dict[tuple[str, str, str], PersistenceCell] = {}
    pivot_base_label: dict[tuple[str, str], str] = {}  # (measure name, target) -> base
    pivot_arps: dict[tuple[str, str], float] = {}  # (measure name, ee) -> pivot mean
    for c in ordered_cells:
        name, base, target = c.measure.name, c.pair.base_label, c.pair.target_label
        by_target[(c.system_tag, name, target)] = c
        by_base.setdefault((c.system_tag, name, base), c)
        pivot_base_label.setdefault((name, target), base)
        for ee, value in ((base, c.pivot_arp_base.value), (target, c.pivot_arp_target.value)):
            known = pivot_arps.setdefault((name, ee), value)
            if known != value:
                raise DataError(
                    f"inconsistent pivot means for {name} in {ee!r}: {known} vs {value}"
                )

    rows: list[TableRow] = []
    for ee in order:
        row_cells: dict[str, TableCell] = {}
        for name in names:
            key = (name, ee)
            if key not in pivot_arps:
                row_cells[name] = TableCell()
                continue
            rd: float | None = 0.0
            base_label = pivot_base_label.get(key)
            if base_label is not None:
                rd = result_delta(pivot_arps[(name, base_label)], pivot_arps[key])
            undefined = frozenset() if rd is not None else frozenset({"result_delta"})
            row_cells[name] = TableCell(
                arp=pivot_arps[key], result_delta=rd, undefined_fields=undefined
            )
        rows.append(TableRow(system_tag=pivot_tag, ee_label=ee, cells=row_cells))

    for system in systems:
        for ee in order:
            row_cells = {}
            for name in names:
                target_cell = by_target.get((system, name, ee))
                base_cell = by_base.get((system, name, ee))
                if target_cell is not None:
                    undefined = {n for n in _UNDEFINABLE if getattr(target_cell, n) is None}
                    row_cells[name] = TableCell(
                        arp=target_cell.arp_target.value,
                        result_delta=target_cell.result_delta,
                        delta_ri=target_cell.delta_ri,
                        effect_ratio=target_cell.effect_ratio,
                        p_value=target_cell.p_value,
                        significant=target_cell.p_vs_pivot_target < SIGNIFICANCE_ALPHA,
                        undefined_fields=frozenset(undefined),
                    )
                elif base_cell is not None:
                    row_cells[name] = TableCell(
                        arp=base_cell.arp_base.value,
                        result_delta=0.0,
                        delta_ri=0.0,
                        effect_ratio=1.0,
                        p_value=1.0,
                        significant=base_cell.p_vs_pivot_base < SIGNIFICANCE_ALPHA,
                    )
                else:
                    row_cells[name] = TableCell()
            rows.append(TableRow(system_tag=system, ee_label=ee, cells=row_cells))

    return PersistenceTable(
        pivot_tag=pivot_tag,
        measures=measures,
        ee_order=order,
        rows=tuple(rows),
        cells=ordered_cells,
    )


def _fmt3(value: float | None, *, undefined: bool = False, star: bool = False) -> str:
    if value is None:
        return UNDEFINED if undefined else NOT_APPLICABLE
    if value == 0:
        value = 0.0
    return f"{value:.3f}" + ("*" if star else "")


VALUE_COLUMNS = ("ARP", "RD", "DRI", "ER", "p")


def _cell_strings(cell: TableCell) -> list[str]:
    return [
        _fmt3(cell.arp, star=bool(cell.significant)),
        _fmt3(cell.result_delta, undefined="result_delta" in cell.undefined_fields),
        _fmt3(cell.delta_ri, undefined="delta_ri" in cell.undefined_fields),
        _fmt3(cell.effect_ratio, undefined="effect_ratio" in cell.undefined_fields),
        _fmt3(cell.p_value),
    ]


def render_table_text(table: PersistenceTable) -> str:
    """Aligned plain-text table, one column group per measure."""
    # A line is a list of column groups: the system and EE, then one group
    # of VALUE_COLUMNS per measure. The header line counts toward the widths.
    names = [m.name for m in table.measures]
    lines = [[["system", "EE"], *([list(VALUE_COLUMNS)] * len(names))]]
    for row in table.rows:
        groups = [_cell_strings(row.cells[name]) for name in names]
        lines.append([[row.system_tag, row.ee_label], *groups])
    widths = [
        [max(len(line[g][i]) for line in lines) for i in range(len(group))]
        for g, group in enumerate(lines[0])
    ]

    def fmt(line: list[list[str]]) -> str:
        ids = "  ".join(v.ljust(w) for v, w in zip(line[0], widths[0]))
        groups = [
            "  ".join(v.rjust(w) for v, w in zip(values, ws))
            for values, ws in zip(line[1:], widths[1:])
        ]
        return " | ".join([ids, *groups])

    titles = " | ".join(
        name.ljust(sum(ws) + 2 * (len(ws) - 1)) for name, ws in zip(names, widths[1:])
    )
    head = [f"pivot: {table.pivot_tag}", f"{fmt([['', '']])} | {titles}".rstrip()]
    return "\n".join(head + [fmt(line) for line in lines]) + "\n"


def _csv(header: str, rows: Iterable[Sequence[str | float | None]]) -> str:
    """CSV text with a header line, quoting fields that hold a comma, a
    quote or a line break. ``None`` is written as an empty field and a
    float as its repr, which keeps full precision."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buffer.getvalue()


def render_table_csv(table: PersistenceTable) -> str:
    """One row per system x EE x measure, full precision."""
    names = [m.name for m in table.measures]
    rows = []
    for row in table.rows:
        for name in names:
            cell = row.cells[name]
            significant = "" if cell.significant is None else str(cell.significant).lower()
            rows.append(
                [
                    row.system_tag,
                    row.ee_label,
                    name,
                    cell.arp,
                    cell.result_delta,
                    cell.delta_ri,
                    cell.effect_ratio,
                    cell.p_value,
                    significant,
                ]
            )
    return _csv(
        "system,ee,measure,arp,result_delta,delta_ri,effect_ratio,p_value,significant", rows
    )


def table_to_json(table: PersistenceTable) -> str:
    """Structured form: metadata plus the full-precision cells. Feeding it
    back through table_from_json reproduces the table exactly."""
    payload = {
        "pivot_tag": table.pivot_tag,
        "ee_order": list(table.ee_order),
        "measures": [m.name for m in table.measures],
        "cells": [cell_to_dict(c) for c in table.cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_from_json(text: str, *, path: str | None = None) -> PersistenceTable:
    """Rebuild a table from table_to_json's form. Each field must have its
    JSON type; the cells are checked as persistence_table checks them."""
    payload = parse_json(text, path=path)
    try:
        payload = json_typed(payload, dict, "the cells file")
        cells = [
            cell_from_dict(entry, f"cells[{i}]")
            for i, entry in enumerate(json_member(payload, "cells", list))
        ]
        ee_order = json_strings(json_member(payload, "ee_order", list), "ee_order")
        return persistence_table(cells, ee_order)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed table JSON: {exc}", path=path) from exc


def check_er_exclusion(threshold: float) -> None:
    """Raise a UsageError unless ``threshold`` is a positive, finite |ER| bound."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageError(f"the |ER| threshold must be positive and finite, got {threshold}")


def er_dri_points(
    cells: Sequence[PersistenceCell],
    exclusion_threshold: float = DEFAULT_ER_EXCLUSION,
) -> tuple[ScatterPoint, ...]:
    """One scatter point per cell, in the order of ``cells`` (the cells of
    a ``PersistenceTable`` are sorted); outliers with |ER| above the
    threshold (or undefined coordinates) are flagged excluded rather than
    dropped."""
    check_er_exclusion(exclusion_threshold)
    points = []
    for cell in cells:
        x, y = cell.effect_ratio, cell.delta_ri
        excluded = x is None or y is None or abs(x) > exclusion_threshold
        points.append(
            ScatterPoint(
                system_tag=cell.system_tag,
                measure=cell.measure,
                pair=cell.pair,
                x=x,
                y=y,
                excluded=excluded,
            )
        )
    return tuple(points)


def scatter_csv(points: Iterable[ScatterPoint]) -> str:
    return _csv(
        "system,measure,base_ee,target_ee,effect_ratio,delta_ri,excluded",
        (
            [
                point.system_tag,
                point.measure.name,
                point.pair.base_label,
                point.pair.target_label,
                point.x,
                point.y,
                str(point.excluded).lower(),
            ]
            for point in points
        ),
    )


def _series(
    sys_base: TopicScoreVector,
    sys_target: TopicScoreVector,
    base: Mapping[str, float],
    target: Mapping[str, float],
) -> TopicDeltaSeries:
    """Per-topic target-minus-base values, sorted by delta descending (ties
    by topic id), labelled with the system vectors' tag, measure and EEs."""
    check_same_topics(base.keys(), target.keys(), "base", "target")
    entries = sorted(((t, target[t] - base[t]) for t in base), key=lambda e: (-e[1], e[0]))
    return TopicDeltaSeries(
        system_tag=sys_base.run_tag,
        measure=sys_base.measure,
        pair=EEPair(sys_base.ee_label, sys_target.ee_label),
        entries=tuple(entries),
    )


def topic_delta_series(base: TopicScoreVector, target: TopicScoreVector) -> TopicDeltaSeries:
    """Per-topic target-minus-base changes of one system's own scores."""
    check_fit((base, target))
    return _series(base, target, base.scores, target.scores)


def pivot_delta_series(
    sys_base: TopicScoreVector,
    sys_target: TopicScoreVector,
    piv_base: TopicScoreVector,
    piv_target: TopicScoreVector,
) -> TopicDeltaSeries:
    """Series of the change in per-topic improvement over the pivot: the
    target EE's system-minus-pivot delta minus the base EE's, per topic."""
    check_fit((sys_base, sys_target), (piv_base, piv_target))
    base, target = topic_deltas(sys_base, piv_base), topic_deltas(sys_target, piv_target)
    return _series(sys_base, sys_target, base, target)


def series_csv(series: TopicDeltaSeries) -> str:
    return _csv(
        "system,measure,base_ee,target_ee,topic,delta",
        (
            [
                series.system_tag,
                series.measure.name,
                series.pair.base_label,
                series.pair.target_label,
                topic,
                delta,
            ]
            for topic, delta in series.entries
        ),
    )
