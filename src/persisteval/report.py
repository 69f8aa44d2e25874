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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DataError, ParseError
from .measures import MeasureId, TopicScoreVector
from .persistence import (
    EEPair,
    PersistenceCell,
    TopicDeltaVector,
    cell_from_dict,
    cell_to_dict,
    check_same_topics,
    result_delta,
)

SIGNIFICANCE_ALPHA = 0.05
DEFAULT_ER_EXCLUSION = 10.0

# How a table cell's field came to be empty.
NOT_APPLICABLE = "-"
UNDEFINED = "undef"


@dataclass(frozen=True)
class TableCell:
    """One measure's values for one (system, EE) row. ``None`` fields are
    rendered as undefined when named in ``undefined_fields``, otherwise as
    structurally not applicable."""

    arp: float | None = None
    result_delta: float | None = None
    delta_ri: float | None = None
    effect_ratio: float | None = None
    p_value: float | None = None
    significant: bool | None = None
    undefined_fields: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TableRow:
    system_tag: str
    ee_label: str
    cells: Mapping[str, TableCell]  # keyed by measure name


@dataclass(frozen=True)
class PersistenceTable:
    pivot_tag: str
    measures: tuple[MeasureId, ...]
    ee_order: tuple[str, ...]
    rows: tuple[TableRow, ...]
    cells: tuple[PersistenceCell, ...]


@dataclass(frozen=True)
class ScatterPoint:
    system_tag: str
    measure: MeasureId
    pair: EEPair
    x: float | None  # effect ratio
    y: float | None  # delta of relative improvements
    excluded: bool


@dataclass(frozen=True)
class TopicDeltaSeries:
    system_tag: str
    measure: MeasureId
    pair: EEPair
    entries: tuple[tuple[str, float], ...]  # (topic, delta), delta descending


def _cell_sort_key(cell: PersistenceCell) -> tuple:
    return (cell.system_tag, cell.measure.name, cell.pair.base_label, cell.pair.target_label)


def _check_cells(cells: Sequence[PersistenceCell]) -> tuple[PersistenceCell, ...]:
    if not cells:
        raise DataError("cannot build a table from zero cells")
    pivots = {c.pivot_tag for c in cells}
    if len(pivots) != 1:
        raise DataError(f"cells mix pivots: {sorted(pivots)}")
    seen: set[tuple] = set()
    for cell in cells:
        key = _cell_sort_key(cell)
        if key in seen:
            raise DataError(
                f"duplicate cell for system {cell.system_tag!r}, "
                f"measure {cell.measure.name}, pair {cell.pair.key}"
            )
        seen.add(key)
    targets: set[tuple] = set()
    for cell in cells:
        key = (cell.system_tag, cell.measure.name, cell.pair.target_label)
        if key in targets:
            raise DataError(
                f"system {cell.system_tag!r} has two pairs targeting "
                f"{cell.pair.target_label!r} for {cell.measure.name}"
            )
        targets.add(key)
    return tuple(sorted(cells, key=_cell_sort_key))


def _derive_ee_order(cells: Sequence[PersistenceCell]) -> tuple[str, ...]:
    bases = sorted({c.pair.base_label for c in cells})
    targets = sorted(
        {c.pair.target_label for c in cells} - {c.pair.base_label for c in cells}
    )
    return tuple(bases + targets)


def _pivot_arps(cells: Sequence[PersistenceCell]) -> dict[tuple[str, str], float]:
    """(measure name, ee) -> pivot mean, cross-checked across cells."""
    arps: dict[tuple[str, str], float] = {}
    for cell in cells:
        for ee, value in (
            (cell.pair.base_label, cell.pivot_arp_base.value),
            (cell.pair.target_label, cell.pivot_arp_target.value),
        ):
            key = (cell.measure.name, ee)
            if key in arps and arps[key] != value:
                raise DataError(
                    f"inconsistent pivot means for {cell.measure.name} in {ee!r}: "
                    f"{arps[key]} vs {value}"
                )
            arps[key] = value
    return arps


def persistence_table(
    cells: Sequence[PersistenceCell], ee_order: Sequence[str] | None = None
) -> PersistenceTable:
    """Build the persistence table from cells sharing one pivot.

    ``ee_order`` fixes the row chronology (base snapshots first); when
    omitted it falls back to base labels then target labels, each sorted.
    """
    ordered_cells = _check_cells(cells)
    pivot_tag = ordered_cells[0].pivot_tag
    measures = tuple(
        sorted({c.measure for c in ordered_cells}, key=lambda m: m.name)
    )
    labels = {c.pair.base_label for c in ordered_cells} | {
        c.pair.target_label for c in ordered_cells
    }
    if ee_order is None:
        order = _derive_ee_order(ordered_cells)
    else:
        order = tuple(ee_order)
        missing = labels - set(order)
        if missing:
            raise DataError(f"ee_order does not cover {sorted(missing)}")
        order = tuple(label for label in order if label in labels)
    pivot_arps = _pivot_arps(ordered_cells)
    systems = sorted({c.system_tag for c in ordered_cells})

    by_target: dict[tuple[str, str, str], PersistenceCell] = {
        (c.system_tag, c.measure.name, c.pair.target_label): c for c in ordered_cells
    }
    by_base: dict[tuple[str, str, str], PersistenceCell] = {}
    pivot_base_label: dict[tuple[str, str], str] = {}  # (measure name, target) -> base
    for c in ordered_cells:
        by_base.setdefault((c.system_tag, c.measure.name, c.pair.base_label), c)
        pivot_base_label.setdefault((c.measure.name, c.pair.target_label), c.pair.base_label)

    rows: list[TableRow] = []
    for ee in order:
        row_cells: dict[str, TableCell] = {}
        for measure in measures:
            key = (measure.name, ee)
            if key not in pivot_arps:
                row_cells[measure.name] = TableCell()
                continue
            rd: float | None = 0.0
            undefined: set[str] = set()
            base_label = pivot_base_label.get(key)
            if base_label is not None:
                rd = result_delta(pivot_arps[(measure.name, base_label)], pivot_arps[key])
                if rd is None:
                    undefined.add("result_delta")
            row_cells[measure.name] = TableCell(
                arp=pivot_arps[key], result_delta=rd, undefined_fields=frozenset(undefined)
            )
        rows.append(TableRow(system_tag=pivot_tag, ee_label=ee, cells=row_cells))

    for system in systems:
        for ee in order:
            row_cells = {}
            for measure in measures:
                target_cell = by_target.get((system, measure.name, ee))
                base_cell = by_base.get((system, measure.name, ee))
                if target_cell is not None:
                    undefined = {
                        name
                        for name, value in (
                            ("result_delta", target_cell.result_delta),
                            ("delta_ri", target_cell.delta_ri),
                            ("effect_ratio", target_cell.effect_ratio),
                        )
                        if value is None
                    }
                    row_cells[measure.name] = TableCell(
                        arp=target_cell.arp_target.value,
                        result_delta=target_cell.result_delta,
                        delta_ri=target_cell.delta_ri,
                        effect_ratio=target_cell.effect_ratio,
                        p_value=target_cell.p_value,
                        significant=target_cell.p_vs_pivot_target < SIGNIFICANCE_ALPHA,
                        undefined_fields=frozenset(undefined),
                    )
                elif base_cell is not None:
                    row_cells[measure.name] = TableCell(
                        arp=base_cell.arp_base.value,
                        result_delta=0.0,
                        delta_ri=0.0,
                        effect_ratio=1.0,
                        p_value=1.0,
                        significant=base_cell.p_vs_pivot_base < SIGNIFICANCE_ALPHA,
                    )
                else:
                    row_cells[measure.name] = TableCell()
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
    id_headers = ["system", "EE"]
    id_rows = [[row.system_tag, row.ee_label] for row in table.rows]
    id_widths = [
        max(len(header), *(len(r[i]) for r in id_rows))
        for i, header in enumerate(id_headers)
    ]
    group_rows: list[list[list[str]]] = [
        [_cell_strings(row.cells[m.name]) for m in table.measures] for row in table.rows
    ]
    group_widths: list[list[int]] = []
    for g, measure in enumerate(table.measures):
        widths = [
            max(len(VALUE_COLUMNS[i]), *(len(rows[g][i]) for rows in group_rows))
            for i in range(len(VALUE_COLUMNS))
        ]
        group_widths.append(widths)

    def fmt_id(values: list[str]) -> str:
        return "  ".join(v.ljust(id_widths[i]) for i, v in enumerate(values))

    def fmt_group(g: int, values: list[str]) -> str:
        return "  ".join(v.rjust(group_widths[g][i]) for i, v in enumerate(values))

    lines = [f"pivot: {table.pivot_tag}"]
    group_titles = " | ".join(
        measure.name.ljust(sum(group_widths[g]) + 2 * (len(VALUE_COLUMNS) - 1))
        for g, measure in enumerate(table.measures)
    )
    lines.append(f"{fmt_id(['', ''])} | {group_titles}".rstrip())
    header_groups = " | ".join(
        fmt_group(g, list(VALUE_COLUMNS)) for g in range(len(table.measures))
    )
    lines.append(f"{fmt_id(id_headers)} | {header_groups}")
    for r, row in enumerate(table.rows):
        body = " | ".join(fmt_group(g, group_rows[r][g]) for g in range(len(table.measures)))
        lines.append(f"{fmt_id(id_rows[r])} | {body}")
    return "\n".join(lines) + "\n"


def _csv_value(value: float | None) -> str:
    if value is None:
        return ""
    return repr(value)


def _csv(header: str, rows: Iterable[Sequence[str]]) -> str:
    """CSV text with a header line, quoting fields that hold a comma, a
    quote or a line break."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buffer.getvalue()


def render_table_csv(table: PersistenceTable) -> str:
    """One row per system x EE x measure, full precision."""
    rows = []
    for row in table.rows:
        for measure in table.measures:
            cell = row.cells[measure.name]
            significant = "" if cell.significant is None else str(cell.significant).lower()
            rows.append(
                [
                    row.system_tag,
                    row.ee_label,
                    measure.name,
                    _csv_value(cell.arp),
                    _csv_value(cell.result_delta),
                    _csv_value(cell.delta_ri),
                    _csv_value(cell.effect_ratio),
                    _csv_value(cell.p_value),
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
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno, path=path) from exc
    try:
        cells = [cell_from_dict(entry) for entry in payload["cells"]]
        ee_order = [str(label) for label in payload["ee_order"]]
    except (KeyError, TypeError, DataError) as exc:
        raise DataError(f"malformed table JSON: {exc}", path=path) from exc
    return persistence_table(cells, ee_order)


def er_dri_points(
    cells: Sequence[PersistenceCell],
    exclusion_threshold: float = DEFAULT_ER_EXCLUSION,
) -> tuple[ScatterPoint, ...]:
    """One scatter point per cell; outliers with |ER| above the threshold
    (or undefined coordinates) are flagged excluded rather than dropped."""
    if not (math.isfinite(exclusion_threshold) and exclusion_threshold > 0):
        raise DataError(
            f"exclusion threshold must be positive and finite, got {exclusion_threshold}"
        )
    points = []
    for cell in sorted(cells, key=_cell_sort_key):
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
                _csv_value(point.x),
                _csv_value(point.y),
                str(point.excluded).lower(),
            ]
            for point in points
        ),
    )


def _sorted_series(deltas: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(deltas.items(), key=lambda item: (-item[1], item[0])))


def topic_delta_series(
    base: TopicScoreVector, target: TopicScoreVector
) -> TopicDeltaSeries:
    """Per-topic target-minus-base changes of one system's own scores,
    sorted by delta descending (ties by topic id)."""
    if base.run_tag != target.run_tag:
        raise DataError(f"run tags differ: {base.run_tag!r} vs {target.run_tag!r}")
    if base.measure != target.measure:
        raise DataError(f"measures differ: {base.measure.name} vs {target.measure.name}")
    check_same_topics(base.topics, target.topics, "base", "target")
    deltas = {t: target.scores[t] - base.scores[t] for t in base.scores}
    return TopicDeltaSeries(
        system_tag=base.run_tag,
        measure=base.measure,
        pair=EEPair(base.ee_label, target.ee_label),
        entries=_sorted_series(deltas),
    )


def pivot_delta_series(
    base_deltas: TopicDeltaVector,
    target_deltas: TopicDeltaVector,
    system_tag: str,
    measure: MeasureId,
) -> TopicDeltaSeries:
    """Series of the change in per-topic improvement over the pivot: the
    target EE's system-minus-pivot delta minus the base EE's, per topic."""
    check_same_topics(base_deltas.deltas.keys(), target_deltas.deltas.keys(), "base", "target")
    deltas = {
        t: target_deltas.deltas[t] - base_deltas.deltas[t] for t in base_deltas.deltas
    }
    return TopicDeltaSeries(
        system_tag=system_tag,
        measure=measure,
        pair=EEPair(base_deltas.ee_label, target_deltas.ee_label),
        entries=_sorted_series(deltas),
    )


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
                repr(delta),
            ]
            for topic, delta in series.entries
        ),
    )
