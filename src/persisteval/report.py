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

import json
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from contextlib import suppress
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from .errors import DataError, Record, UsageError, one_line
from .measures import TopicScoreVector, parse_measure
from .persistence import (
    CELL_NUMBERS,
    EEPair,
    PersistenceCell,
    cell_to_dict,
    cells_from_dicts,
    check_distinct_tags,
    check_fit,
    check_same_topics,
    result_delta,
    topic_deltas,
)
from .run_io import MISSING, json_fields, json_strings, json_typed, parse_json

SIGNIFICANCE_ALPHA = 0.05
DEFAULT_ER_EXCLUSION = 10.0

# How a table cell's field came to be empty.
NOT_APPLICABLE = "-"
UNDEFINED = "undef"
# The numbers of a cell, all finite in a table (a JSON number too large for a
# float decodes to inf).
_numbers = attrgetter(*CELL_NUMBERS)


class TableCell(
    Record,
    namedtuple(
        "TableCell",
        "arp result_delta delta_ri effect_ratio p_value significant",
        defaults=(None,) * 6,
    ),
):
    """One measure's values for one (system, EE) row. A None RD is undefined
    when the cell has an ARP, a None DRI or ER when it has a p-value; any
    other None is not applicable."""

    __slots__ = ()


_EMPTY = TableCell()


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


# A cell's place in the table, unique to it: system, measure name, base and target label.
_cell_sort_key = attrgetter("system_tag", "measure.name", "pair.base_label", "pair.target_label")


def persistence_table(cells: Sequence[PersistenceCell], ee_order: Sequence[str]) -> PersistenceTable:
    """Build the persistence table from cells sharing one pivot.

    ``ee_order``, the snapshots in chronological order, fixes the row order;
    it must name each label the cells hold, and may name others.
    DataErrors, in the order raised: zero cells; mixed pivots; per cell in
    input order, a system that is its pivot or a non-finite number (each
    naming the cell), or a repeated target; an ``ee_order`` that misses or
    repeats a label; in table order, two pivot means in one EE.
    """
    if not cells:
        raise DataError("cannot build a table from zero cells")
    pivots = {c.pivot_tag for c in cells}
    if len(pivots) != 1:
        raise DataError(f"cells mix pivots: {sorted(pivots)}")
    (pivot_tag,) = pivots
    # Every check runs over a whole column; only when one fails is each cell
    # checked in input order, so that the earliest fault is the one named.
    places = list(map(_cell_sort_key, cells))
    numbers = filter(None, chain.from_iterable(map(_numbers, cells)))  # drops None and 0.0
    if (
        pivot_tag in set(map(itemgetter(0), places))
        or not all(map(math.isfinite, numbers))
        or len(set(map(itemgetter(0, 1, 3), places))) < len(places)
    ):
        targets = set()  # (system, measure name, target): a target row shows one cell per measure
        for i, (cell, (system, name, _, target)) in enumerate(zip(cells, places)):
            check_distinct_tags(system, pivot_tag, f"cells[{i}]")
            for field, value in zip(CELL_NUMBERS, _numbers(cell)):
                if value is not None and not math.isfinite(value):
                    raise DataError(f"cells[{i}].{field} must be finite, got {value}")
            if (system, name, target) in targets:
                raise DataError(
                    f"duplicate cell: system {system!r} has two cells targeting {target!r} "
                    f"for {name}"
                )
            targets.add((system, name, target))
    places, ordered_cells = zip(*sorted(zip(places, cells)))
    measures = tuple(sorted(set(map(attrgetter("measure"), cells)), key=attrgetter("name")))
    names = [m.name for m in measures]
    labels = {base for _, _, base, _ in places} | {target for *_, target in places}
    missing = labels - set(ee_order)
    if missing:
        raise DataError(f"ee_order does not cover {sorted(missing)}")
    if len(set(ee_order)) < len(ee_order):
        raise DataError(f"ee_order repeats a label: {json.dumps(list(ee_order))}")
    order = tuple(label for label in ee_order if label in labels)

    # Keyed by (row tag, EE, measure name): each cell fills its system's row at
    # its target, and the first cell to target an EE fills the pivot's row
    # there. A row not filled shows the ideal values of the first cell based
    # in its EE, for that cell's system and for the pivot, else _EMPTY.
    means: dict[tuple[str, str], float] = {}  # (EE, measure name) -> the pivot's mean
    filled: dict[tuple[str, str, str], TableCell] = {}
    ideal: dict[tuple[str, str, str], TableCell] = {}
    for c, (system, name, base, target) in zip(ordered_cells, places):
        piv_base, piv_target = c.pivot_arp_base.value, c.pivot_arp_target.value
        for ee, mean in ((base, piv_base), (target, piv_target)):
            known = means.setdefault((ee, name), mean)
            if known != mean:
                raise DataError(f"inconsistent pivot means for {name} in {ee!r}: {known} vs {mean}")
        if (pivot_tag, target, name) not in filled:
            rd = result_delta(piv_base, piv_target)
            filled[pivot_tag, target, name] = TableCell(piv_target, rd)
        sig_target = c.p_vs_pivot_target < SIGNIFICANCE_ALPHA
        filled[system, target, name] = TableCell(
            c.arp_target.value, c.result_delta, c.delta_ri, c.effect_ratio, c.p_value, sig_target
        )
        if (system, base, name) not in ideal:
            sig_base = c.p_vs_pivot_base < SIGNIFICANCE_ALPHA
            ideal[system, base, name] = TableCell(c.arp_base.value, 0.0, 0.0, 1.0, 1.0, sig_base)
            ideal.setdefault((pivot_tag, base, name), TableCell(piv_base, 0.0))

    shown = ideal | filled
    rows = tuple(
        TableRow(who, ee, {name: shown.get((who, ee, name), _EMPTY) for name in names})
        for who in (pivot_tag, *dict.fromkeys(place[0] for place in places))
        for ee in order
    )
    return PersistenceTable(pivot_tag, measures, order, rows, ordered_cells)


VALUE_COLUMNS = ("ARP", "RD", "DRI", "ER", "p")


def _columns(records: Sequence[tuple], width: int) -> list[tuple]:
    """The ``width`` columns of ``records``, all empty if there are none."""
    return list(zip(*records)) or [()] * width


def _fmt3(values: Sequence[float | None], anchors: Iterable = repeat(None)) -> list[str]:
    """Each value to 3 decimals (adding 0.0 turns -0.0 into 0.0). A None is
    UNDEFINED where the row's value in the ``anchors`` column is not None,
    else NOT_APPLICABLE."""
    return [
        f"{v + 0.0:.3f}" if v is not None else NOT_APPLICABLE if a is None else UNDEFINED
        for v, a in zip(values, anchors)
    ]


def _aligned(column: list[str], justify) -> list[str]:
    """``column`` padded by ``justify`` (str.ljust or str.rjust) to its widest string."""
    return list(map(justify, column, repeat(max(map(len, column)))))


def render_table_text(table: PersistenceTable) -> str:
    """Aligned plain-text table, one column group per measure and one line per row."""
    # Each column holds its title, then one string per row. A group of
    # columns (the system and EE, then VALUE_COLUMNS per measure) joins
    # them with two spaces, and a line joins its groups with " | ".
    names = [m.name for m in table.measures]
    rows = table.rows
    groups = [[
        _aligned(["system", *[one_line(row.system_tag) for row in rows]], str.ljust),
        _aligned(["EE", *[one_line(row.ee_label) for row in rows]], str.ljust),
    ]]
    for name in names:
        arp, rd, dri, er, p, significant = _columns([r.cells[name] for r in rows], 6)
        starred = [
            text + "*" if star and value is not None else text
            for text, star, value in zip(_fmt3(arp), significant, arp)
        ]
        columns = (starred, _fmt3(rd, arp), _fmt3(dri, p), _fmt3(er, p), _fmt3(p))
        groups.append(
            [_aligned([title, *column], str.rjust) for title, column in zip(VALUE_COLUMNS, columns)]
        )
    lines = [list(map("  ".join, zip(*group))) for group in groups]
    titles = " | ".join(name.ljust(len(group[0])) for name, group in zip(names, lines[1:]))
    head = [f"pivot: {one_line(table.pivot_tag)}", f"{' ' * len(lines[0][0])} | {titles}".rstrip()]
    return "\n".join(head + list(map(" | ".join, zip(*lines)))) + "\n"


def _csv(header: str, columns: Sequence[Sequence[str | float | None]]) -> str:
    """CSV text with a header line and one line per index of ``columns``.
    A label holding a comma, a quote, CR or LF is quoted as csv.writer does
    (each quote doubled), once per distinct label in a column of strings.
    Any other column holds numbers, each written as its repr (which keeps
    full precision), or None, written as an empty field."""

    def field(label: str) -> str:
        if any(c in label for c in ',"\r\n'):
            return '"' + label.replace('"', '""') + '"'
        return label

    fields = []
    for column in columns:
        if column and type(column[0]) is str:
            quoted = {label: field(label) for label in set(column)}
            fields.append(map(quoted.__getitem__, column))
        else:
            fields.append(["" if value is None else repr(value) for value in column])
    return "\n".join([header, *map(",".join, zip(*fields))]) + "\n"


def render_table_csv(table: PersistenceTable) -> str:
    """One row per system x EE x measure, full precision."""
    names = [m.name for m in table.measures]
    rows = table.rows
    cells = [row.cells[name] for row in rows for name in names]
    arp, rd, dri, er, p, significant = _columns(cells, 6)
    return _csv(
        "system,ee,measure,arp,result_delta,delta_ri,effect_ratio,p_value,significant",
        [
            [row.system_tag for row in rows for _ in names],
            [row.ee_label for row in rows for _ in names],
            names * len(rows),
            arp, rd, dri, er, p,
            ["" if s is None else str(s).lower() for s in significant],
        ],
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


# The fields of cells.json, as json_fields reads them.
_TABLE_FIELDS = (
    ("cells", list, None, MISSING, MISSING), ("ee_order", list, json_strings, MISSING, MISSING),
    ("measures", list, json_strings, MISSING, ()), ("pivot_tag", str, None, MISSING, ""),
)


def table_from_json(text: str, *, path: str | None = None) -> PersistenceTable:
    """Rebuild a table from table_to_json's form. Each field must have its JSON type, the cells
    pass persistence_table's checks, and a given pivot_tag and measures set must be theirs."""
    payload = parse_json(text, path=path)
    try:
        data = json_typed(payload, dict, "the cells file")
        records, order, names, pivot = json_fields(data, _TABLE_FIELDS)
        table = persistence_table(cells_from_dicts(records), order)
        if "pivot_tag" in data and pivot != table.pivot_tag:
            raise ValueError(f"pivot_tag {pivot!r} is not the cells' pivot {table.pivot_tag!r}")
        measures, listed = [m.name for m in table.measures], set(names)
        with suppress(ValueError):  # each name as parse_measure reads it, if all are measures
            listed = set(map(parse_measure, names))
        if "measures" in data and listed != set(table.measures):
            raise ValueError(f"measures {list(names)} are not the cells' measures {measures}")
        return table
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed table JSON: {exc}", path=path) from exc


def check_er_exclusion(threshold: float) -> float:
    """``threshold`` if it is a positive, finite |ER| bound, else a UsageError."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageError(f"the |ER| threshold must be positive and finite, got {threshold}")
    return threshold


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
        points.append(ScatterPoint(cell.system_tag, cell.measure, cell.pair, x, y, excluded))
    return tuple(points)


def scatter_csv(points: Iterable[ScatterPoint]) -> str:
    systems, measures, pairs, x, y, excluded = _columns(list(points), 6)
    bases, targets = _columns(pairs, 2)
    names = {m: m.name for m in set(measures)}
    return _csv(
        "system,measure,base_ee,target_ee,effect_ratio,delta_ri,excluded",
        [
            systems, [names[m] for m in measures], bases, targets, x, y,
            [str(e).lower() for e in excluded],
        ],
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
    topics, deltas = _columns(series.entries, 2)
    pair = series.pair
    labels = (series.system_tag, series.measure.name, pair.base_label, pair.target_label)
    return _csv(
        "system,measure,base_ee,target_ee,topic,delta",
        [*([label] * len(topics) for label in labels), topics, deltas],
    )
