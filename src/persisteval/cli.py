"""Command-line front end.

Commands:

- ``score``: score one run against one qrels file and write per-topic and
  mean (ARP) outputs.
- ``persist``: run the full persistence pipeline described by a JSON job
  manifest: parse every declared environment, compute the core topics,
  build one persistence cell per (system != pivot, measure, pair), and
  write the table, scatter, and per-topic series artifacts.
- ``corpus-diff``: classify document evolution between two snapshot
  manifests (added / removed / changed / unchanged).
- ``report``: re-render the table and scatter artifacts from a previously
  written cells JSON file.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed input, 3 data mismatch (empty topic intersection, missing pivot
run, conflicting records). Diagnostics go to stderr; output files are
written deterministically so re-runs are byte-identical.

The PERSISTEVAL_OUTPUT environment variable supplies the default output
directory when neither the manifest nor --output names one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus_diff import diff_collections, format_diff, load_manifest, snapshot_from_dir
from .errors import DataError, DiagnosticWarning, EvaluationError, ParseError, UsageError
from .measures import (
    MeasureId,
    TopicScoreVector,
    arp,
    format_scores,
    parse_measure,
    score_run,
    scores_to_json,
)
from .persistence import EEPair, PersistenceCell, persistence_cell, topic_deltas
from .report import (
    DEFAULT_ER_EXCLUSION,
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
from .run_io import (
    Qrels,
    Run,
    TopicSet,
    core_topics,
    load_qrels,
    load_run,
    load_topics,
    read_input,
)
from .stats import VARIANTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DATA = 3

OUTPUT_ENV_VAR = "PERSISTEVAL_OUTPUT"

_T_TEST_NAMES = {"student": "student_pooled", "student_pooled": "student_pooled", "welch": "welch"}


@dataclass
class EESpec:
    label: str
    qrels_path: Path
    topics_path: Path | None = None


@dataclass
class RunSpec:
    tag: str
    ee_label: str
    path: Path


@dataclass
class JobConfig:
    """A persistence job: environments, runs, pivot, measures, pairs, and
    output options. Paths are resolved relative to the manifest file."""

    environments: list[EESpec]
    runs: list[RunSpec]
    pivot: str
    measures: list[MeasureId]
    pairs: list[EEPair]
    output: Path | None = None
    t_variant: str = "student_pooled"
    er_exclude: float = DEFAULT_ER_EXCLUSION
    strict_topics: bool = True
    series_mode: str = "raw"  # "raw" or "pivot-delta"

    def validate(self) -> None:
        labels = [ee.label for ee in self.environments]
        if len(set(labels)) != len(labels):
            raise UsageError("duplicate environment labels in manifest")
        declared = set(labels)
        seen_runs: set[tuple[str, str]] = set()
        for run in self.runs:
            if run.ee_label not in declared:
                raise UsageError(
                    f"run {run.tag!r} references undeclared environment {run.ee_label!r}"
                )
            key = (run.tag, run.ee_label)
            if key in seen_runs:
                raise UsageError(
                    f"run tag {run.tag!r} declared twice for environment {run.ee_label!r}"
                )
            seen_runs.add(key)
        for index, pair in enumerate(self.pairs):
            for label in (pair.base_label, pair.target_label):
                if label not in declared:
                    raise UsageError(f"pair {pair.key} references undeclared environment {label!r}")
            if pair in self.pairs[:index]:
                raise UsageError(f"pair {pair.key} is declared twice")
        if not self.pairs:
            raise UsageError("manifest declares no environment pairs")
        if not self.measures:
            raise UsageError("manifest declares no measures")
        tags = {run.tag for run in self.runs}
        if self.pivot not in tags:
            raise UsageError(f"pivot {self.pivot!r} is not a declared run tag")
        if self.t_variant not in VARIANTS:
            raise UsageError(f"unknown t-test variant {self.t_variant!r}")
        if self.series_mode not in ("raw", "pivot-delta"):
            raise UsageError(f"unknown series mode {self.series_mode!r}")
        _check_er_exclude(self.er_exclude)
        # Pivot availability is a data property of the job, not a usage bug.
        pair_labels = {p.base_label for p in self.pairs} | {p.target_label for p in self.pairs}
        for label in sorted(pair_labels):
            if (self.pivot, label) not in seen_runs:
                raise DataError(
                    f"pivot {self.pivot!r} has no run in environment {label!r}"
                )


def _check_er_exclude(threshold: float) -> float:
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageError(f"--er-exclude must be positive and finite, got {threshold}")
    return threshold


def _parse_measure_list(text: str) -> list[MeasureId]:
    measures = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            measures.append(parse_measure(token))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not measures:
        raise UsageError("empty measure list")
    return measures


def _parse_pair_list(text: str) -> list[EEPair]:
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise UsageError(f"pair must look like BASE:TARGET, got {token!r}")
        pairs.append(EEPair(parts[0], parts[1]))
    if not pairs:
        raise UsageError("empty pair list")
    return pairs


def load_job_config(path: Path, args: argparse.Namespace) -> JobConfig:
    """Read the JSON manifest and apply command-line overrides."""
    try:
        raw = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno, path=str(path)) from exc
    base_dir = path.parent

    def _resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base_dir / candidate

    try:
        environments = [
            EESpec(
                label=str(entry["label"]),
                qrels_path=_resolve(entry["qrels"]),
                topics_path=_resolve(entry["topics"]) if entry.get("topics") else None,
            )
            for entry in raw.get("environments", [])
        ]
        runs = [
            RunSpec(
                tag=str(entry["tag"]),
                ee_label=str(entry["environment"]),
                path=_resolve(entry["path"]),
            )
            for entry in raw.get("runs", [])
        ]
        options = raw.get("options", {})
        t_test_raw = str(options.get("t_test", "student"))
        config = JobConfig(
            environments=environments,
            runs=runs,
            pivot=str(raw.get("pivot", "")),
            measures=[parse_measure(str(m)) for m in raw.get("measures", [])],
            pairs=[EEPair(str(p[0]), str(p[1])) for p in raw.get("pairs", [])],
            output=_resolve(str(raw["output"])) if raw.get("output") else None,
            t_variant=_T_TEST_NAMES.get(t_test_raw, t_test_raw),
            er_exclude=float(options.get("er_exclude", DEFAULT_ER_EXCLUSION)),
            strict_topics=bool(options.get("strict_topics", True)),
            series_mode=str(options.get("series", "raw")),
        )
    except (
        AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError, DataError
    ) as exc:
        raise UsageError(f"malformed manifest {path}: {exc}") from exc

    if args.pivot is not None:
        config.pivot = args.pivot
    if args.measures is not None:
        config.measures = _parse_measure_list(args.measures)
    if args.pairs is not None:
        config.pairs = _parse_pair_list(args.pairs)
    if args.t_test is not None:
        config.t_variant = _T_TEST_NAMES.get(args.t_test, args.t_test)
    if args.er_exclude is not None:
        config.er_exclude = args.er_exclude
    if args.strict_topics is not None:
        config.strict_topics = args.strict_topics
    if args.series is not None:
        config.series_mode = args.series
    if args.output is not None:
        config.output = Path(args.output)
    config.validate()
    return config


def _safe_name(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9._@-]", "_", token)


def _default_output(explicit: Path | None) -> Path:
    if explicit is not None:
        return explicit
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path(".")


def _write(path: Path, content: str, written: list[str], root: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    written.append(path.relative_to(root).as_posix())


def cmd_score(args: argparse.Namespace) -> int:
    measures = _parse_measure_list(args.measures)
    run = load_run(Path(args.run))
    qrels = load_qrels(Path(args.qrels))
    if args.topics:
        topics = load_topics(Path(args.topics))
    else:
        topics = run.topics | qrels.topics
    out_dir = _default_output(Path(args.output) if args.output else None)
    written: list[str] = []
    arp_payload: dict[str, dict] = {}
    for measure in measures:
        vector = score_run(run, qrels, measure, topics)
        stem = f"{_safe_name(run.run_tag)}.{measure.key}"
        _write(out_dir / f"{stem}.scores.txt", format_scores(vector), written, out_dir)
        _write(out_dir / f"{stem}.scores.json", scores_to_json(vector), written, out_dir)
        mean = arp(vector)
        arp_payload[measure.name] = {"value": mean.value, "n_topics": mean.n_topics}
        print(f"{run.run_tag} {measure.name} arp {mean.value:.6f} n={mean.n_topics}")
    _write(
        out_dir / f"{_safe_name(run.run_tag)}.arp.json",
        json.dumps({"run_tag": run.run_tag, "measures": arp_payload}, indent=2, sort_keys=True)
        + "\n",
        written,
        out_dir,
    )
    for name in written:
        print(f"wrote {name}")
    return EXIT_OK


@dataclass
class _Environment:
    spec: EESpec
    qrels: Qrels
    runs: dict[str, Run] = field(default_factory=dict)
    topics: TopicSet = frozenset()


def _load_environments(config: JobConfig) -> dict[str, _Environment]:
    environments: dict[str, _Environment] = {}
    for spec in config.environments:
        environments[spec.label] = _Environment(spec=spec, qrels=load_qrels(spec.qrels_path))
    for run_spec in config.runs:
        env = environments[run_spec.ee_label]
        env.runs[run_spec.tag] = load_run(run_spec.path, expected_tag=run_spec.tag)
    for env in environments.values():
        if env.spec.topics_path is not None:
            env.topics = load_topics(env.spec.topics_path)
        else:
            env.topics = env.qrels.topics.union(*(run.topics for run in env.runs.values()))
    return environments


def cmd_persist(args: argparse.Namespace) -> int:
    config = load_job_config(Path(args.config), args)
    environments = _load_environments(config)
    out_dir = _default_output(config.output)

    core = core_topics([environments[label].topics for label in sorted(environments)])
    if config.strict_topics and not core:
        raise DataError("core topic intersection across environments is empty")

    system_tags = sorted(
        {run.tag for run in config.runs if run.tag != config.pivot}
    )
    cells: list[PersistenceCell] = []
    series_blobs: list[tuple[str, str]] = []
    # Each (tag, environment, measure, topic set) is scored once. The
    # pivot's vectors serve every system; a system's are dropped after it.
    pivot_vectors: dict[tuple, TopicScoreVector] = {}
    for system in system_tags:
        system_vectors: dict[tuple, TopicScoreVector] = {}

        def vector(
            tag: str, env: _Environment, measure: MeasureId, topics: TopicSet
        ) -> TopicScoreVector:
            cache = pivot_vectors if tag == config.pivot else system_vectors
            key = (tag, env.spec.label, measure, topics)
            if key not in cache:
                cache[key] = score_run(env.runs[tag], env.qrels, measure, topics, env.spec.label)
            return cache[key]

        for pair in config.pairs:
            base_env = environments[pair.base_label]
            target_env = environments[pair.target_label]
            if system not in base_env.runs or system not in target_env.runs:
                raise DataError(
                    f"system {system!r} has no run in environment pair {pair.key}"
                )
            # Cells score each environment on the core topics or, when not
            # strict, on its own; series use the topics both environments
            # share, so both series modes stay defined.
            if config.strict_topics:
                topics_base = topics_target = shared = core
            else:
                topics_base, topics_target = base_env.topics, target_env.topics
                if not topics_base or not topics_target:
                    raise DataError(f"environment in pair {pair.key} has no topics")
                shared = topics_base & topics_target
                if not shared:
                    raise DataError(
                        f"no shared topics between {pair.base_label!r} and {pair.target_label!r}"
                    )
            name_tail = f"{_safe_name(pair.base_label)}-{_safe_name(pair.target_label)}.csv"
            for measure in config.measures:
                cells.append(
                    persistence_cell(
                        vector(system, base_env, measure, topics_base),
                        vector(system, target_env, measure, topics_target),
                        vector(config.pivot, base_env, measure, topics_base),
                        vector(config.pivot, target_env, measure, topics_target),
                        t_variant=config.t_variant,
                    )
                )
                sys_base = vector(system, base_env, measure, shared)
                sys_target = vector(system, target_env, measure, shared)
                if config.series_mode == "raw":
                    series = topic_delta_series(sys_base, sys_target)
                else:
                    series = pivot_delta_series(
                        topic_deltas(sys_base, vector(config.pivot, base_env, measure, shared)),
                        topic_deltas(sys_target, vector(config.pivot, target_env, measure, shared)),
                        system,
                        measure,
                    )
                name = f"{_safe_name(system)}.{measure.key}.{name_tail}"
                series_blobs.append((name, series_csv(series)))

    ee_order = [spec.label for spec in config.environments]
    table = persistence_table(cells, ee_order=ee_order)
    points = er_dri_points(cells, config.er_exclude)

    written: list[str] = []
    _write(out_dir / "table.txt", render_table_text(table), written, out_dir)
    _write(out_dir / "table.csv", render_table_csv(table), written, out_dir)
    _write(out_dir / "cells.json", table_to_json(table), written, out_dir)
    _write(out_dir / "scatter.csv", scatter_csv(points), written, out_dir)
    for name, blob in sorted(series_blobs):
        _write(out_dir / "series" / name, blob, written, out_dir)
    for name in sorted(written):
        print(f"wrote {name}")
    return EXIT_OK


def cmd_corpus_diff(args: argparse.Namespace) -> int:
    if args.from_dirs:
        snapshot_a = snapshot_from_dir(Path(args.manifest_a))
        snapshot_b = snapshot_from_dir(Path(args.manifest_b))
    else:
        snapshot_a = load_manifest(Path(args.manifest_a))
        snapshot_b = load_manifest(Path(args.manifest_b))
    summary = diff_collections(snapshot_a, snapshot_b, collect_urls=args.verbose)
    sys.stdout.write(format_diff(summary, snapshot_a.label, snapshot_b.label, verbose=args.verbose))
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "a": snapshot_a.label,
            "b": snapshot_b.label,
            **summary.to_dict(include_urls=args.verbose),
        }
        (out_dir / "corpus_diff.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print("wrote corpus_diff.json")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    table = table_from_json(read_input(args.cells), path=args.cells)
    threshold = DEFAULT_ER_EXCLUSION if args.er_exclude is None else args.er_exclude
    points = er_dri_points(table.cells, _check_er_exclude(threshold))
    out_dir = _default_output(Path(args.output) if args.output else None)
    written: list[str] = []
    _write(out_dir / "table.txt", render_table_text(table), written, out_dir)
    _write(out_dir / "table.csv", render_table_csv(table), written, out_dir)
    _write(out_dir / "scatter.csv", scatter_csv(points), written, out_dir)
    for name in written:
        print(f"wrote {name}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this toolkit reserves 2 for parse
    errors, so remap usage problems to exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="persisteval", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    score = subparsers.add_parser("score", help="score one run against one qrels file")
    score.add_argument("run", help="TREC run file")
    score.add_argument("qrels", help="TREC qrels file")
    score.add_argument("--measures", required=True, help="comma list, e.g. p@10,ndcg,bpref")
    score.add_argument("--topics", help="topic list file (default: run and qrels topics)")
    score.add_argument("--output", help="output directory")
    score.set_defaults(handler=cmd_score)

    persist = subparsers.add_parser("persist", help="run a persistence job from a manifest")
    persist.add_argument("--config", required=True, help="JSON job manifest")
    persist.add_argument("--pivot", help="pivot run tag (overrides manifest)")
    persist.add_argument("--measures", help="comma list, e.g. p@10,ndcg,bpref")
    persist.add_argument("--pairs", help="comma list of BASE:TARGET environment pairs")
    persist.add_argument("--t-test", choices=sorted(_T_TEST_NAMES), help="t-test variant")
    persist.add_argument("--er-exclude", type=float, help="|ER| threshold for scatter exclusion")
    persist.add_argument(
        "--strict-topics",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="score every environment on the shared core topics (default: on)",
    )
    persist.add_argument(
        "--series",
        choices=["raw", "pivot-delta"],
        help="per-topic series: raw score changes or changes of the improvement over the pivot",
    )
    persist.add_argument("--output", help="output directory (overrides manifest)")
    persist.set_defaults(handler=cmd_persist)

    diff = subparsers.add_parser("corpus-diff", help="compare two corpus snapshot manifests")
    diff.add_argument("manifest_a", help="older manifest (url<TAB>length) or directory")
    diff.add_argument("manifest_b", help="newer manifest (url<TAB>length) or directory")
    diff.add_argument("--from-dirs", action="store_true", help="treat inputs as document directories")
    diff.add_argument("--verbose", action="store_true", help="also list the URLs per class")
    diff.add_argument("--output", help="directory for a JSON summary")
    diff.set_defaults(handler=cmd_corpus_diff)

    report = subparsers.add_parser("report", help="re-render artifacts from a cells JSON file")
    report.add_argument("cells", help="cells.json written by the persist command")
    report.add_argument("--er-exclude", type=float, help="|ER| threshold for scatter exclusion")
    report.add_argument("--output", help="output directory")
    report.set_defaults(handler=cmd_report)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", DiagnosticWarning)
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except EvaluationError as exc:  # DataError and any other data fault
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
