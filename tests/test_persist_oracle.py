"""The whole ``persist`` pipeline against an independent one.

Hypothesis builds small jobs from raw files, the command runs them
in-process, and every number, undefined flag and series value it writes
is compared with ``oracles.oracle_persist``, which shares no code with the
package. A job the command refuses must be one the oracle refuses too.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persisteval.cli import EXIT_OK, main

from oracles import oracle_persist

TOPICS = [f"q{i}" for i in range(1, 9)]
DOCS = [f"d{i}" for i in range(8)]
# p@5 and nDCG@3 cut a ranking of up to six documents.
MEASURES = ["p@5", "ndcg", "ndcg@3", "bpref"]
SYSTEMS = ["a", "b", "c"]
PIVOT = "base"
# Of the cell fields, those whose value is a number or None, and how close
# the package must come to the oracle. The scores agree to rounding; the
# t-test is scipy's or a textbook formula, and the package's p-value is
# accurate to well below 1e-10.
NUMBERS = {
    "result_delta": 1e-12, "ri_base": 1e-12, "ri_target": 1e-12, "delta_ri": 1e-12,
    "effect_ratio": 1e-12, "t_statistic": 1e-9, "p_value": 1e-10,
    "p_vs_pivot_base": 1e-10, "p_vs_pivot_target": 1e-10,
}
ARPS = ("arp_base", "arp_target", "pivot_arp_base", "pivot_arp_target")

judgments = st.dictionaries(st.sampled_from(DOCS), st.sampled_from([1, 0, 2, 0]), min_size=1)


@st.composite
def runs(draw, tag, judged, kind):
    """One run file's text. A ranked run retrieves some judged topics with
    tied scores. A blind run retrieves only an unjudged document, so it
    scores 0 everywhere; a fixed run ranks d0, d1, d2 on every judged topic,
    so in a snapshot whose topics share one set of judgments it scores the
    same on each: constant samples, the degenerate t-test."""
    rankings = {}
    for topic in judged:
        if kind == "blind":
            rankings[topic] = {"x0": 1}
        elif kind == "fixed":
            rankings[topic] = {"d0": 3, "d1": 2, "d2": 1}
        elif draw(st.integers(0, 3)) < 3:
            docs = draw(st.lists(st.sampled_from(DOCS), min_size=1, max_size=6, unique=True))
            rankings[topic] = {doc: draw(st.integers(1, 3)) for doc in docs}
    if not rankings:
        rankings[judged[0]] = {"d0": 1}
    lines = []
    for topic, scored in rankings.items():
        for rank, (doc, score) in enumerate(scored.items(), start=1):
            lines.append(f"{topic} Q0 {doc} {rank} {score} {tag}")
    return "\n".join(lines) + "\n"


@st.composite
def jobs(draw):
    """(manifest, files): 2 to 4 snapshots whose 3 to 8 topics leave and
    join, optional topics files, a pivot and 1 to 3 systems with a run in
    each snapshot, 1 to 3 measures and pairs with distinct targets."""
    labels = [f"s{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    tags = [PIVOT, *SYSTEMS[: draw(st.integers(1, 3))]]
    kinds = {tag: draw(st.sampled_from(["ranked", "ranked", "fixed"])) for tag in tags}
    files, environments, run_specs = {}, [], []
    for label in labels:
        # A window of the topics, so that early topics leave and late ones join.
        first = draw(st.integers(0, 2))
        judged = TOPICS[first : draw(st.integers(first + 3, len(TOPICS)))]
        shared = draw(judgments) if draw(st.booleans()) else None
        lines = []
        for topic in judged:
            for doc, grade in (shared or draw(judgments)).items():
                lines.append(f"{topic} 0 {doc} {grade}")
        files[f"{label}.qrels"] = "\n".join(lines) + "\n"
        environment = {"label": label, "qrels": f"{label}.qrels"}
        if draw(st.integers(0, 3)) == 3:
            listed = draw(st.lists(st.sampled_from(TOPICS), min_size=2, max_size=8, unique=True))
            files[f"{label}.topics"] = "# topics\n" + "\n".join(listed) + "\n"
            environment["topics"] = f"{label}.topics"
        environments.append(environment)
        for tag in tags:
            kind = "blind" if draw(st.integers(0, 5)) == 5 else kinds[tag]
            files[f"{tag}.{label}.run"] = draw(runs(tag, judged, kind))
            run_specs.append({"tag": tag, "environment": label, "path": f"{tag}.{label}.run"})
    targets = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels), unique=True))
    manifest = {
        "environments": environments,
        "runs": run_specs,
        "pivot": PIVOT,
        "measures": draw(st.lists(st.sampled_from(MEASURES), min_size=1, max_size=3, unique=True)),
        "pairs": [[draw(st.sampled_from(labels)), target] for target in targets],
        "options": {
            "strict_topics": draw(st.booleans()),
            "t_test": draw(st.sampled_from(["student", "welch"])),
            "series": draw(st.sampled_from(["raw", "pivot-delta"])),
        },
    }
    return manifest, files


def run_persist(manifest, files, root: Path) -> int:
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    job = root / "job.json"
    job.write_text(json.dumps(manifest), encoding="utf-8")
    return main(["persist", "--config", str(job), "--output", str(root / "out")])


def written_series(out: Path) -> dict:
    """(system, measure, base, target) -> {topic: delta} of each series
    file, checking that its rows run by delta descending, then topic."""
    series = {}
    for path in (out / "series").iterdir():
        header, *rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
        assert header == ["system", "measure", "base_ee", "target_ee", "topic", "delta"]
        entries = [(topic, float(delta)) for *_, topic, delta in rows]
        assert entries == sorted(entries, key=lambda e: (-e[1], e[0]))
        series[tuple(rows[0][:4])] = dict(entries)
    return series


def assert_cell_matches(cell: dict, expected: dict) -> None:
    assert cell["undefined_flags"] == expected["undefined_flags"]
    assert cell["degenerate_t"] == expected["degenerate_t"]
    for name in ("system_tag", "pivot_tag", "measure", "pair"):
        assert cell[name] == expected[name]
    for name in ARPS:
        assert cell[name]["n_topics"] == expected[name]["n_topics"]
        assert cell[name]["value"] == pytest.approx(expected[name]["value"], rel=1e-12, abs=1e-15)
    for name, tolerance in NUMBERS.items():
        value, wanted = cell[name], expected[name]
        assert (value is None) == (wanted is None), name
        if value is not None:
            assert value == pytest.approx(wanted, rel=tolerance, abs=tolerance), name


@settings(max_examples=25)
@given(jobs())
def test_persist_matches_the_oracle(job):
    manifest, files = job
    expected = oracle_persist(manifest, files)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        code = run_persist(manifest, files, root)
        if expected == 3:
            assert code == 3
            return
        assert code == EXIT_OK
        written = json.loads((root / "out" / "cells.json").read_text(encoding="utf-8"))
        series = written_series(root / "out")
    cells = {
        (c["system_tag"], c["measure"], c["pair"]["base"], c["pair"]["target"]): c
        for c in written["cells"]
    }
    assert cells.keys() == expected["cells"].keys()
    for key, cell in cells.items():
        assert_cell_matches(cell, expected["cells"][key])
    assert series.keys() == expected["series"].keys()
    for key, deltas in series.items():
        assert deltas.keys() == expected["series"][key].keys()
        for topic, delta in deltas.items():
            assert delta == pytest.approx(expected["series"][key][topic], rel=1e-12, abs=1e-12)
