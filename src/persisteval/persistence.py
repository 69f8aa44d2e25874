"""Pivot-based persistence measures over pairs of evaluation environments.

An evaluation environment (EE) is one test-collection snapshot. To compare
a system's effectiveness between a base EE and a later target EE, its
scores in each EE are related to a pivot run evaluated in the same EE,
factoring out the environment change:

- result_delta: relative change of the system's own mean score between
  EEs, (mean_base - mean_target) / mean_base. Negative means the system
  got more effective; 0 is ideal persistence.
- relative_improvement: (mean_system - mean_pivot) / mean_pivot within a
  single EE.
- delta_ri: relative improvement in the base EE minus the one in the
  target EE; 0 is ideal, positive means the system lost ground relative
  to the pivot.
- effect_ratio: mean per-topic improvement over the pivot in the target
  EE divided by the same mean in the base EE; 1 is ideal, values in (0, 1)
  mean the effect shrank, values above 1 mean it grew. The two means are
  normalized independently, so the topic counts may differ.

Zero denominators never raise: the affected quantity becomes None with a
reason string, as does the infinite t statistic of a degenerate t-test, so
report cells can render an explicit "undefined" rather than an infinity.

``persistence_cell`` assembles all of the above for one
(system, measure, EE pair), together with an unpaired t-test between the
system's own per-topic score distributions in the two EEs and, for
significance marking in reports, between system and pivot within each EE.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence, Set
from itertools import chain, repeat
from operator import itemgetter

from .errors import DataError, Record
from .measures import ARPValue, TopicScoreVector, arp, parse_measure
from .run_io import MISSING, json_checked, json_fields, json_object, json_strings, json_typed
from .stats import mean, t_test_unpaired


class EEPair(Record, namedtuple("EEPair", "base_label target_label")):
    """A (base, target) pair of evaluation environment labels. Equal labels
    are allowed for self-replication checks."""

    __slots__ = ()

    def __new__(cls, base_label: str, target_label: str):
        if not base_label or not target_label:
            raise DataError("evaluation environment labels must be non-empty")
        return tuple.__new__(cls, (base_label, target_label))

    @property
    def key(self) -> str:
        return f"{self.base_label}-{self.target_label}"


def result_delta(mean_base: float, mean_target: float) -> float | None:
    """Relative change between mean scores; None when the base mean is 0."""
    if mean_base == 0.0:
        return None
    return (mean_base - mean_target) / mean_base


def relative_improvement(mean_system: float, mean_pivot: float) -> float | None:
    """Relative improvement of the system over the pivot within one EE;
    None when the pivot mean is 0."""
    if mean_pivot == 0.0:
        return None
    return (mean_system - mean_pivot) / mean_pivot


def delta_ri(ri_base: float | None, ri_target: float | None) -> float | None:
    """Difference of relative improvements across EEs; propagates None."""
    if ri_base is None or ri_target is None:
        return None
    return ri_base - ri_target


def check_same_topics(a: Set[str], b: Set[str], a_name: str, b_name: str) -> None:
    """Raise a DataError naming the topics only one of two sets holds."""
    only_a, only_b = a - b, b - a
    if only_a or only_b:
        raise DataError(
            f"topic sets differ: only in {a_name} {sorted(only_a)}, "
            f"only in {b_name} {sorted(only_b)}"
        )


def check_fit(system: Sequence[TopicScoreVector], pivot: Sequence[TopicScoreVector] = ()) -> None:
    """Raise a DataError unless score vectors fit together. ``system`` holds
    one run's vectors (base, then target) and ``pivot`` the pivot's in the
    same environments, or none: one measure, one tag per run, and within an
    environment one label and one topic set for system and pivot."""
    measure = system[0].measure
    for who, vectors in (("system", system), ("pivot", pivot)):
        for vector in vectors:
            if vector.measure != measure:
                raise DataError(f"measure mismatch: {measure.name} vs {vector.measure.name}")
            if vector.run_tag != vectors[0].run_tag:
                tags = f"{vectors[0].run_tag!r} vs {vector.run_tag!r}"
                raise DataError(f"{who} run tags differ across environments: {tags}")
    for sys_v, piv_v in zip(system, pivot):
        if sys_v.ee_label != piv_v.ee_label:
            raise DataError(f"environment mismatch: {sys_v.ee_label!r} vs {piv_v.ee_label!r}")
        check_same_topics(sys_v.scores.keys(), piv_v.scores.keys(), "system vector", "pivot vector")


def check_distinct_tags(system_tag: str, pivot_tag: str, where: str = "") -> None:
    """Raise a DataError if a system and its pivot share one run tag;
    ``where`` prefixes the message with the path of the cell."""
    if system_tag == pivot_tag:
        prefix = f"{where}: " if where else ""
        raise DataError(f"{prefix}system and pivot share the tag {system_tag!r}")


def topic_deltas(system: TopicScoreVector, pivot: TopicScoreVector) -> dict[str, float]:
    """Per-topic system-minus-pivot differences within one EE. Both vectors
    must come from the same EE and measure and cover the same topics."""
    check_fit((system,), (pivot,))
    return {t: system.scores[t] - pivot.scores[t] for t in system.scores}


def effect_ratio(
    target_deltas: Mapping[str, float], base_deltas: Mapping[str, float]
) -> float | None:
    """Ratio of mean per-topic improvements, target EE over base EE.

    The two means are normalized by their own topic counts, which may
    differ; both maps must be non-empty. Returns None when the base mean
    is 0 (the cell is rendered as undefined, never as an infinity).
    """
    target_mean, base_mean = mean(target_deltas.values()), mean(base_deltas.values())
    if base_mean == 0.0:
        return None
    return target_mean / base_mean


# The fields of a JSON object as json_fields reads them: (key, JSON type,
# decode, null, default). Without a decoder a value is its own JSON form.
_PAIR_FIELDS = (("base", str, None, MISSING, MISSING), ("target", str, None, MISSING, MISSING))
_ARP_FIELDS = (("value", float, None, MISSING, MISSING), ("n_topics", int, None, MISSING, MISSING))
_pair, _arp = json_object(_PAIR_FIELDS, EEPair._make), json_object(_ARP_FIELDS, ARPValue._make)
# Each PersistenceCell field, in order.
_FIELDS = (
    ("system_tag", str, None, MISSING, MISSING),
    ("pivot_tag", str, None, MISSING, MISSING),
    ("measure", str, json_checked(parse_measure), MISSING, MISSING),
    ("pair", dict, _pair, MISSING, MISSING),
    ("arp_base", dict, _arp, MISSING, MISSING),
    ("arp_target", dict, _arp, MISSING, MISSING),
    ("pivot_arp_base", dict, _arp, MISSING, MISSING),
    ("pivot_arp_target", dict, _arp, MISSING, MISSING),
    ("result_delta", float, None, None, MISSING),
    ("ri_base", float, None, None, MISSING),
    ("ri_target", float, None, None, MISSING),
    ("delta_ri", float, None, None, MISSING),
    ("effect_ratio", float, None, None, MISSING),
    ("t_statistic", float, None, None, MISSING),
    ("p_value", float, None, MISSING, MISSING),
    ("p_vs_pivot_base", float, None, MISSING, MISSING),
    ("p_vs_pivot_target", float, None, MISSING, MISSING),
    ("degenerate_t", bool, None, MISSING, False),
    ("undefined_flags", list, json_strings, MISSING, ()),
)
_NAMES = [f[0] for f in _FIELDS]
# The attribute paths of a cell's numbers: each ARP's value, then each number field.
CELL_NUMBERS = (
    *(f"{key}.value" for key, _, decode, *_ in _FIELDS if decode is _arp),
    *(key for key, kind, *_ in _FIELDS if kind is float),
)
_DEFAULTS = [f[4] for f in _FIELDS if f[4] is not MISSING]


class PersistenceCell(Record, namedtuple("PersistenceCell", _NAMES, defaults=_DEFAULTS)):
    """Everything measured for one (system, measure, EE pair) against one
    pivot: the four mean scores, the persistence quantities, the cross-EE
    t-test on the system's own topic scores, and the within-EE
    system-vs-pivot p-values used for significance marking. A quantity
    that is undefined is None, with its reason in ``undefined_flags``."""

    __slots__ = ()


def persistence_cell(
    sys_base: TopicScoreVector,
    sys_target: TopicScoreVector,
    piv_base: TopicScoreVector,
    piv_target: TopicScoreVector,
    *,
    t_variant: str = "student_pooled",
) -> PersistenceCell:
    """Compute one persistence cell from the system's and the pivot's score
    vectors in the base and the target EE.

    The measure and the EE pair are those of the vectors. Within each EE
    the system and pivot vectors must cover the same topics; the base and
    target topic sets may differ (the non-strict mode, where each
    environment is evaluated on its own available topics).
    """
    check_fit((sys_base, sys_target), (piv_base, piv_target))
    system_tag, pivot_tag = sys_base.run_tag, piv_base.run_tag
    check_distinct_tags(system_tag, pivot_tag)
    pair = EEPair(sys_base.ee_label, sys_target.ee_label)

    arp_sys_base, arp_sys_target = arp(sys_base), arp(sys_target)
    arp_piv_base, arp_piv_target = arp(piv_base), arp(piv_target)

    undefined: list[str] = []
    rd = result_delta(arp_sys_base.value, arp_sys_target.value)
    if rd is None:
        undefined.append("result_delta: base mean is zero")
    ri = relative_improvement(arp_sys_base.value, arp_piv_base.value)
    if ri is None:
        undefined.append("ri_base: pivot mean is zero in the base environment")
    ri_prime = relative_improvement(arp_sys_target.value, arp_piv_target.value)
    if ri_prime is None:
        undefined.append("ri_target: pivot mean is zero in the target environment")
    dri = delta_ri(ri, ri_prime)

    er = effect_ratio(topic_deltas(sys_target, piv_target), topic_deltas(sys_base, piv_base))
    if er is None:
        undefined.append("effect_ratio: mean base delta is zero")

    # The t-test sums exactly (fsum), so the order of the samples is moot.
    sys_b, sys_t = list(sys_base.scores.values()), list(sys_target.scores.values())
    cross = t_test_unpaired(sys_b, sys_t, t_variant)
    t = cross.t_statistic if math.isfinite(cross.t_statistic) else None
    if t is None:
        undefined.append("t_statistic: non-finite (degenerate variance)")
    vs_pivot_base = t_test_unpaired(sys_b, list(piv_base.scores.values()), t_variant)
    vs_pivot_target = t_test_unpaired(sys_t, list(piv_target.scores.values()), t_variant)

    return PersistenceCell(
        system_tag=system_tag,
        pivot_tag=pivot_tag,
        measure=sys_base.measure,
        pair=pair,
        arp_base=arp_sys_base,
        arp_target=arp_sys_target,
        pivot_arp_base=arp_piv_base,
        pivot_arp_target=arp_piv_target,
        result_delta=rd,
        ri_base=ri,
        ri_target=ri_prime,
        delta_ri=dri,
        effect_ratio=er,
        t_statistic=t,
        p_value=cross.p_value,
        p_vs_pivot_base=vs_pivot_base.p_value,
        p_vs_pivot_target=vs_pivot_target.p_value,
        degenerate_t=cross.degenerate,
        undefined_flags=tuple(undefined),
    )


def cell_to_dict(cell: PersistenceCell) -> dict:
    """JSON-ready form with fixed field names. An undefined value becomes
    null; its reason lives in undefined_flags."""
    record = cell._asdict()
    for name in ("arp_base", "arp_target", "pivot_arp_base", "pivot_arp_target"):
        record[name] = record[name]._asdict()
    record.update(measure=cell.measure.name, undefined_flags=list(cell.undefined_flags))
    record["pair"] = {"base": cell.pair.base_label, "target": cell.pair.target_label}
    return record


# cells_from_dicts reads a chunk of _CHUNK records at a time, a column at a
# time. It takes a chunk only if each record is an object of exactly the 19
# fields, its pair and ARPs objects of their two keys, and each value of exactly
# its JSON type or a null that its field reads; then each distinct measure name
# and pair is checked once. Any other chunk (so a refused record costs only its
# chunk) is read by cell_from_dict, the home of every lenient form and message.
_CHUNK = 256
_ARP = [itemgetter("value"), itemgetter("n_topics")]
# The types that each field, each pair label, each ARP value and count and each flag may hold.
_KINDS = [{kind} if null is MISSING else {kind, type(None)} for _, kind, _, null, _ in _FIELDS]
_KINDS += [{str}, {str}, *[{float}, {int}] * 4, {str}]


def cells_from_dicts(records: list) -> list[PersistenceCell]:
    """The cells of JSON records (see cell_from_dict); errors name record i ``cells[i]``."""
    cells: list[PersistenceCell] = []
    for start in range(0, len(records), _CHUNK):
        chunk = records[start : start + _CHUNK]
        cells += _columnwise(chunk) or [
            cell_from_dict(record, f"cells[{i}]") for i, record in enumerate(chunk, start)
        ]
    return cells


def _columnwise(records: list) -> list[PersistenceCell] | None:
    """The cells of ``records`` if every record passes the column checks, else None."""
    if set(map(type, records)) - {dict} or set(map(len, records)) - {len(_NAMES)}:
        return None
    try:  # a KeyError is an absent key, a TypeError a pair or an ARP that is no object
        columns = [list(map(itemgetter(key), records)) for key in _NAMES]
        labels = [list(map(itemgetter(key), columns[3])) for key in ("base", "target")]
        arps = [[list(map(get, column)) for get in _ARP] for column in columns[4:8]]
    except (KeyError, TypeError):
        return None
    typed = (*columns, *labels, *chain(*arps), chain.from_iterable(columns[-1]))
    sizes = set(map(len, chain(*columns[3:8])))  # of the pairs and ARPs
    if sizes - {2} or any(set(map(type, column)) - kinds for column, kinds in zip(typed, _KINDS)):
        return None
    try:
        measures = {name: parse_measure(name) for name in set(columns[2])}
        pairs = {pair: EEPair(*pair) for pair in set(zip(*labels))}
    except (ValueError, DataError):
        return None
    # Neither record class checks its values, so each is built as the tuple it is.
    values = (
        *columns[:2], map(measures.__getitem__, columns[2]), map(pairs.__getitem__, zip(*labels)),
        *(map(tuple.__new__, repeat(ARPValue), zip(*arp)) for arp in arps),
        *columns[8:-1], map(tuple, columns[-1]),
    )
    return list(map(tuple.__new__, repeat(PersistenceCell), zip(*values)))


def cell_from_dict(data: dict, where: str = "") -> PersistenceCell:
    """Rebuild a cell from its JSON form (inverse of cell_to_dict), one field at a time:
    the first value that fails its JSON type raises a DataError that names its path
    below ``where``, the record's own path (e.g. ``cells[3]``)."""
    try:
        json_typed(data, dict, where or "the record")
        return PersistenceCell(*json_fields(data, _FIELDS, where))
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed persistence cell record: {exc}") from exc
