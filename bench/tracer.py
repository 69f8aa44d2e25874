"""Traced run of the persisteval CLI in one process, and the analysis of its
spans.

Run as a child process with the package on the path:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json persist --config ...

It wraps the public functions of every persisteval module at every name the
package, the CLI and the other modules resolve them through, runs
``persisteval.cli.main`` with the remaining arguments, and after it returns
writes the spans it kept in memory (name, start, end, parent) to SPANS.json.
``function_totals`` and ``layer_self`` turn such a file into self times: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "run_io", "measures", "stats", "persistence", "report", "corpus_diff")

# The CLI's own work (argument handling, the command pipelines, writing the
# artifacts) stays in main's span, so only these cli functions get spans.
CLI_FUNCTIONS = ("main", "load_job_config")

# Called once per topic and run inside score_run: a span each would cost more
# than the work it measures, so their time stays in score_run's self time.
PER_TOPIC = frozenset({"measures.score_topic", "measures.p_at_k", "measures.ndcg", "measures.bpref"})

# Functions whose first argument is the path of an input file.
LOADERS = frozenset({"run_io.load_run", "run_io.load_qrels", "run_io.load_topics", "corpus_diff.load_manifest"})


def _fingerprint(value):
    """Equal values for hashable arguments, identity for the rest (runs and
    qrels are loaded once, so identity tells them apart)."""
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


class Tracer:
    """Holds the spans of one traced run and the wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self.notes: dict[int, object] = {}  # span index -> call detail
        self._stack: list[int] = []
        self._argument_keys: dict[tuple, int] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, notes, clock = self.spans, self._stack, self.notes, time.perf_counter
        note = self._note_for(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if note is not None:
                notes[index] = note(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def _note_for(self, name: str, fn):
        signature = inspect.signature(fn)
        if name in LOADERS:
            return lambda args, kwargs: str(next(iter(signature.bind(*args, **kwargs).arguments.values())))
        if name == "measures.score_run":

            def note(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(_fingerprint(v) for v in bound.arguments.values())
                topics = bound.arguments.get("topics")
                return [
                    self._argument_keys.setdefault(key, len(self._argument_keys)),
                    len(topics) if topics is not None else 0,
                ]

            return note
        return None

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"persisteval.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in PER_TOPIC
                    or (layer == "cli" and attr not in CLI_FUNCTIONS)
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "persisteval" and not module_name.startswith("persisteval."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def write(self, path: Path) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans,
            "notes": sorted(self.notes.items()),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def function_totals(doc: dict) -> tuple[dict[str, float], Counter, dict[str, list]]:
    """Per function name: summed self time, call count and call notes."""
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name_id, start, end, _) in enumerate(spans):
        name = names[name_id]
        self_s[name] += end - start - covered[index]
        calls[name] += 1
    notes: dict[str, list] = defaultdict(list)
    for index, value in doc["notes"]:
        notes[names[spans[index][0]]].append(value)
    return self_s, calls, notes


def layer_self(self_s: dict[str, float]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        totals[name.split(".", 1)[0]] += seconds
    return totals


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from persisteval import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
