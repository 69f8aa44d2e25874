"""The value records: immutable named tuples that equal only a record of
their own class, and whose ``_replace`` and ``_make`` run the class's checks."""

from __future__ import annotations

import math
from collections import namedtuple

import pytest

import persisteval as pe
from persisteval.errors import DataError, Record
from persisteval.report import TableCell, TableRow

P_AT_10, NDCG, BPREF = map(pe.parse_measure, ("p@10", "ndcg", "bpref"))
PAIR = pe.EEPair("t1", "t2")
ARP = pe.ARPValue(0.25, 10)
CELL = pe.PersistenceCell(
    "sys", "pivot", NDCG, PAIR, ARP, ARP, ARP, ARP, 0.0, None, 0.5, None, 1.0,
    math.inf, 0.01, 0.5, 0.2, True, ("ri_base: pivot mean is zero in the base environment",),
)
TABLE_CELL = TableCell(0.25, 0.0, None, 1.0, 0.5, False)
ROW = TableRow("sys", "t2", {"nDCG": TABLE_CELL})

# One instance of each public record class, built fresh on each call.
RECORDS = {
    "TTestResult": lambda: pe.TTestResult(1.5, 18.0, 0.15, "welch"),
    "Run": lambda: pe.Run("sys", {"q1": ("d1", "d2")}),
    "Qrels": lambda: pe.Qrels({"q1": {"d1": 2}}),
    "MeasureId": lambda: pe.MeasureId("ndcg", 20),
    "TopicScoreVector": lambda: pe.TopicScoreVector(P_AT_10, "sys", "t1", {"q1": 0.5}),
    "ARPValue": lambda: pe.ARPValue(0.25, 10),
    "EEPair": lambda: pe.EEPair("t1", "t2"),
    "PersistenceCell": lambda: CELL._replace(),
    "TableCell": lambda: TABLE_CELL._replace(),
    "TableRow": lambda: ROW._replace(),
    "PersistenceTable": lambda: pe.PersistenceTable("pivot", (NDCG,), ("t2",), (ROW,), (CELL,)),
    "ScatterPoint": lambda: pe.ScatterPoint("sys", NDCG, PAIR, None, 0.5, True),
    "TopicDeltaSeries": lambda: pe.TopicDeltaSeries("sys", NDCG, PAIR, (("q1", 0.5),)),
    "CorpusSnapshot": lambda: pe.CorpusSnapshot("a", {"https://x": 3}),
    "DiffSummary": lambda: pe.DiffSummary(("https://a",), (), ("https://c",)),
}


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_is_a_record_of_its_name(self, name):
        record = RECORDS[name]()
        assert type(record).__name__ == name and isinstance(record, Record)

    def test_equal_and_hash_within_its_class(self, name):
        first, second = RECORDS[name](), RECORDS[name]()
        assert first == second and not first != second
        if hashable(tuple(first)):
            assert hash(first) == hash(second)
        else:  # a record holding a dict is no more hashable than the dict
            with pytest.raises(TypeError):
                hash(first)

    def test_never_equals_a_tuple_or_another_class(self, name):
        record = RECORDS[name]()
        other = type("Other", (Record, namedtuple("Other", record._fields)), {"__slots__": ()})
        for value in (tuple(record), other(*record)):
            assert record != value and value != record
            assert not record == value and not value == record

    def test_repr_names_each_field(self, name):
        record = RECORDS[name]()
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(record._fields, record))
        assert repr(record) == f"{name}({fields})"

    def test_assignment_raises_attribute_error(self, name):
        record = RECORDS[name]()
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_replace_and_make_rebuild_an_equal_record(self, name):
        record = RECORDS[name]()
        assert record._replace() == record == type(record)._make(record)


def test_measure_name_is_not_a_field():
    measure = pe.MeasureId("ndcg", 20)
    assert measure.name == "nDCG@20" and "name" not in measure._fields
    assert repr(measure) == "MeasureId(kind='ndcg', cut=20)"
    assert measure == pe.parse_measure("ndcg@20")
    assert hash(measure) == hash(pe.parse_measure("nDCG@20"))


@pytest.mark.parametrize(
    "record, changes, error",
    [
        (pe.EEPair("t1", "t2"), {"base_label": ""}, DataError),
        (pe.EEPair("t1", "t2"), {"target_label": ""}, DataError),
        (NDCG, {"kind": "map"}, ValueError),
        (P_AT_10, {"cut": 0}, ValueError),
        (NDCG, {"cut": 0}, ValueError),
        (P_AT_10, {"cut": None}, ValueError),
        (BPREF, {"cut": 5}, ValueError),
    ],
    ids=[
        "eepair-base", "eepair-target", "measure-kind", "measure-k", "measure-cutoff",
        "measure-k-missing", "measure-bpref-cut",
    ],
)
def test_replace_and_make_run_the_checks(record, changes, error):
    with pytest.raises(error):
        record._replace(**changes)
    values = [changes.get(field, value) for field, value in zip(record._fields, record)]
    with pytest.raises(error):
        type(record)._make(values)


def test_every_public_record_class_is_checked():
    classes = {name for name in pe.__all__ if isinstance(getattr(pe, name), type)}
    records = {name for name in classes if issubclass(getattr(pe, name), Record)}
    assert records | {"TableCell", "TableRow"} == set(RECORDS)
