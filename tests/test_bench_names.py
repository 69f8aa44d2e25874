"""The benchmark reads its per-layer figures from traced spans by name
(``module.function``). A function that is renamed, moved or made private
would read as 0 there without any error, so every name the benchmark reads
must still be a function that its tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


class Reads(dict):
    """An empty dict that records every key it is asked for."""

    def __init__(self, names: set[str]):
        super().__init__()
        self.names = names

    def get(self, key, default=None):
        self.names.add(key)
        return default

    def __getitem__(self, key):
        self.names.add(key)
        return 0


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py loaded as a module, with bench/ on sys.path for its imports."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        # Forget the benchmark's modules (checks, tracer, workloads) again.
        for name, loaded in list(sys.modules.items()):
            if str(getattr(loaded, "__file__", None) or "").startswith(str(BENCH)):
                del sys.modules[name]


@pytest.fixture(scope="module")
def names_read(bench_run, tmp_path_factory) -> set[str]:
    """The function names ``layer_metrics`` reads from a traced run's totals."""
    names: set[str] = set()
    tracer = bench_run.tracer
    totals = tracer.function_totals
    tracer.function_totals = lambda doc: (Reads(names), Reads(names), Reads(names))
    try:
        workload = SimpleNamespace(sizes={})
        bench_run.layer_metrics({"spans": []}, tmp_path_factory.mktemp("out"), workload, {})
    finally:
        tracer.function_totals = totals
    return names


def test_names_cover_the_per_layer_metrics(bench_run, names_read):
    counters = {
        "run_io.load_run",
        "measures.score_run",
        "stats.t_test_unpaired",
        "persistence.persistence_cell",
        "report.topic_delta_series",
        "report.pivot_delta_series",
    }
    renderers = {f"report.{name}" for name in bench_run.RENDERERS}
    # Function-level self times, except report.render, the sum over RENDERERS.
    functions = {
        name[: -len(".self_s")]
        for name in bench_run.PER_LAYER
        if name.endswith(".self_s") and name.count(".") == 2
    } - {"report.render"}
    assert counters | renderers | functions <= names_read


def test_each_name_read_is_a_traced_function(bench_run, names_read):
    tracer = bench_run.tracer
    missing = []
    for name in sorted(names_read):
        layer, attr = name.split(".")
        module = importlib.import_module(f"persisteval.{layer}")
        obj = getattr(module, attr, None)
        # The selection of Tracer.install: public functions of the module itself.
        traced = (
            layer in tracer.LAYERS
            and not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
            and name not in tracer.PER_TOPIC
            and (layer != "cli" or attr in tracer.CLI_FUNCTIONS)
        )
        if not traced:
            missing.append(name)
    assert missing == []
