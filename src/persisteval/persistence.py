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

Zero denominators never raise: the affected quantity becomes None and a
reason string is recorded, so report cells can render an explicit
"undefined" rather than an infinity.

``persistence_cell`` assembles all of the above for one
(system, measure, EE pair), together with an unpaired t-test between the
system's own per-topic score distributions in the two EEs and, for
significance marking in reports, between system and pivot within each EE.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import AbstractSet, Mapping, Sequence

from .errors import DataError
from .measures import ARPValue, MeasureId, TopicScoreVector, arp, parse_measure
from .run_io import json_checked, json_member, json_strings, json_typed
from .stats import mean, t_test_unpaired


@dataclass(frozen=True, slots=True)
class EEPair:
    """A (base, target) pair of evaluation environment labels. Equal labels
    are allowed for self-replication checks."""

    base_label: str
    target_label: str

    def __post_init__(self):
        if not self.base_label or not self.target_label:
            raise DataError("evaluation environment labels must be non-empty")

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


def check_same_topics(a: AbstractSet[str], b: AbstractSet[str], a_name: str, b_name: str) -> None:
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


@dataclass(frozen=True, slots=True)
class PersistenceCell:
    """Everything measured for one (system, measure, EE pair) against one
    pivot: the four mean scores, the persistence quantities, the cross-EE
    t-test on the system's own topic scores, and the within-EE
    system-vs-pivot p-values used for significance marking."""

    system_tag: str
    pivot_tag: str
    measure: MeasureId
    pair: EEPair
    arp_base: ARPValue
    arp_target: ARPValue
    pivot_arp_base: ARPValue
    pivot_arp_target: ARPValue
    result_delta: float | None
    ri_base: float | None
    ri_target: float | None
    delta_ri: float | None
    effect_ratio: float | None
    t_statistic: float
    p_value: float
    p_vs_pivot_base: float
    p_vs_pivot_target: float
    degenerate_t: bool = False
    undefined_flags: tuple[str, ...] = field(default_factory=tuple)


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
    if system_tag == pivot_tag:
        raise DataError(f"system and pivot share the tag {system_tag!r}")
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
        t_statistic=cross.t_statistic,
        p_value=cross.p_value,
        p_vs_pivot_base=vs_pivot_base.p_value,
        p_vs_pivot_target=vs_pivot_target.p_value,
        degenerate_t=cross.degenerate,
        undefined_flags=tuple(undefined),
    )


# (JSON type, encode, decode, null) of each PersistenceCell field, by its
# annotation. A value is checked against its JSON type before ``decode``
# gets it with its path; no encoder or decoder means the value is its own
# JSON form. ``null`` is what a JSON null reads as (MISSING: not allowed).
_CODECS = {
    "str": (str, None, None, MISSING),
    "float": (float, None, None, MISSING),
    "float | None": (float, None, None, None),
    "bool": (bool, None, None, MISSING),
    "tuple[str, ...]": (list, list, json_strings, MISSING),
    "MeasureId": (
        str, lambda m: m.name, lambda name, where: json_checked(where, parse_measure, name), MISSING
    ),
    "EEPair": (
        dict,
        lambda p: {"base": p.base_label, "target": p.target_label},
        lambda d, where: json_checked(
            where, EEPair, json_member(d, "base", str, where), json_member(d, "target", str, where)
        ),
        MISSING,
    ),
    "ARPValue": (
        dict,
        lambda a: {"value": a.value, "n_topics": a.n_topics},
        lambda d, where: ARPValue(
            json_member(d, "value", float, where), json_member(d, "n_topics", int, where)
        ),
        MISSING,
    ),
}
# A degenerate t-test's statistic is infinite; JSON holds it as null.
_T_CODEC = (float, None, None, math.inf)
# (name, JSON type, encode, decode, null, default) per field; a field with a
# default may be absent.
_FIELDS = [
    (
        f.name,
        *(_T_CODEC if f.name == "t_statistic" else _CODECS[f.type]),
        f.default if f.default_factory is MISSING else f.default_factory(),
    )
    for f in fields(PersistenceCell)
]
_NAMES = [f[0] for f in _FIELDS]
_NONFINITE_T_FLAG = "t_statistic: non-finite (degenerate variance)"


def cell_to_dict(cell: PersistenceCell) -> dict:
    """JSON-ready form with fixed field names. Undefined values and a
    non-finite t statistic become null; the reasons live in undefined_flags."""
    record = {}
    for name, _, encode, _, _, _ in _FIELDS:
        value = getattr(cell, name)
        record[name] = value if encode is None else encode(value)
    if not math.isfinite(cell.t_statistic):
        record["t_statistic"] = None
        if _NONFINITE_T_FLAG not in record["undefined_flags"]:
            record["undefined_flags"].append(_NONFINITE_T_FLAG)
    return record


def cell_from_dict(data: dict, where: str = "") -> PersistenceCell:
    """Rebuild a cell from its JSON form (inverse of cell_to_dict). Each
    field must have its JSON type; ``where`` is the record's path in error
    messages, e.g. ``cells[3]``."""
    prefix = f"{where}." if where else ""
    try:
        json_typed(data, dict, where or "the record")
        values = []
        for (name, kind, _, decode, null, default), value in zip(_FIELDS, map(data.get, _NAMES)):
            # Only a value of another type (or none) takes json_member's path.
            if type(value) is not kind:
                value = json_member(data, name, kind, where, default, null)
            values.append(value if decode is None else decode(value, prefix + name))
        return PersistenceCell(*values)
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed persistence cell record: {exc}") from exc
