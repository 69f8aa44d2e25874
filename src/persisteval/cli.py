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
import gc
import json
import os
import re
import sys
import warnings
from dataclasses import dataclass
from itertools import product
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
from .persistence import EEPair, PersistenceCell, persistence_cell
from .report import (
    DEFAULT_ER_EXCLUSION,
    PersistenceTable,
    check_er_exclusion,
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
    TopicSet,
    core_topics,
    json_checked,
    json_member,
    json_typed,
    load_qrels,
    load_run,
    load_topics,
    parse_json,
    read_input,
)
from .stats import VARIANTS, check_t_variant

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DATA = 3
_EXIT_CODES = {UsageError: EXIT_USAGE, ParseError: EXIT_PARSE}

OUTPUT_ENV_VAR = "PERSISTEVAL_OUTPUT"


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
            # The table holds one cell per target; a repeated pair repeats it.
            for first in self.pairs[:index]:
                if first.target_label == pair.target_label:
                    raise UsageError(
                        f"pairs {first.key} and {pair.key} both target {pair.target_label!r}"
                    )
        if not self.pairs:
            raise UsageError("manifest declares no environment pairs")
        if not self.measures:
            raise UsageError("manifest declares no measures")
        _check_distinct(self.measures)
        tags = {run.tag for run in self.runs}
        if self.pivot not in tags:
            raise UsageError(f"pivot {self.pivot!r} is not a declared run tag")
        series_owners: dict[str, str] = {}
        systems = sorted(tags - {self.pivot})
        if not systems:
            raise UsageError(f"no system run besides the pivot {self.pivot!r}")
        for system, measure, pair in product(systems, self.measures, self.pairs):
            name = _series_name(system, measure, pair)
            owner = (
                f"system {system!r}, {measure.name}, "
                f"pair {pair.base_label!r} -> {pair.target_label!r}"
            )
            if name in series_owners:
                raise UsageError(f"series/{name} would hold both {series_owners[name]} and {owner}")
            series_owners[name] = owner
        check_t_variant(self.t_variant)
        if self.series_mode not in ("raw", "pivot-delta"):
            raise UsageError(f"unknown series mode {self.series_mode!r}")
        check_er_exclusion(self.er_exclude)
        # A missing run is a data property of the job, not a usage bug.
        pair_labels = {p.base_label for p in self.pairs} | {p.target_label for p in self.pairs}
        for tag, label in product([self.pivot, *systems], sorted(pair_labels)):
            if (tag, label) not in seen_runs:
                who = "pivot" if tag == self.pivot else "system"
                raise DataError(f"{who} {tag!r} has no run in environment {label!r}")


def _tokens(text: str, what: str) -> list[str]:
    """The non-empty items of a comma list."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise UsageError(f"empty {what} list")
    return tokens


def _check_distinct(measures: Sequence[MeasureId]) -> None:
    """Raise a UsageError if two names in ``measures`` denote one measure."""
    for index, measure in enumerate(measures):
        if measure in measures[:index]:
            raise UsageError(f"measure {measure.name} is declared twice")


def _parse_measure_list(text: str) -> list[MeasureId]:
    measures = []
    for token in _tokens(text, "measure"):
        try:
            measures.append(parse_measure(token))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return measures


def _parse_pair_list(text: str) -> list[EEPair]:
    pairs = []
    for token in _tokens(text, "pair"):
        parts = token.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise UsageError(f"pair must look like BASE:TARGET, got {token!r}")
        pairs.append(EEPair(parts[0], parts[1]))
    return pairs


def _items(obj: dict, key: str) -> list[tuple[str, object]]:
    """(path, item) for each item of the list ``obj[key]``; none if absent."""
    items = json_member(obj, key, list, default=[])
    return [(f"{key}[{i}]", item) for i, item in enumerate(items)]


def _manifest_pair(where: str, entry) -> EEPair:
    if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
        raise ValueError(
            f"{where}: a pair must be a [base, target] list of two strings, got {json.dumps(entry)}"
        )
    return json_checked(where, EEPair, *entry)


def load_job_config(path: Path, args: argparse.Namespace) -> JobConfig:
    """Read the JSON manifest and apply command-line overrides. Each
    manifest field has one JSON type; a value of another type is a usage
    error that names the field's path."""
    raw = parse_json(read_input(path), path=str(path))
    base_dir = path.parent

    def _resolve(p: str) -> Path:
        if "\0" in p:
            raise ValueError(f"path {json.dumps(p)} holds a NUL character")
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base_dir / candidate

    def _environment(where: str, entry) -> EESpec:
        entry = json_typed(entry, dict, where)
        topics = json_member(entry, "topics", str, where, "")
        return EESpec(
            label=json_member(entry, "label", str, where),
            qrels_path=_resolve(json_member(entry, "qrels", str, where)),
            topics_path=_resolve(topics) if topics else None,
        )

    def _run(where: str, entry) -> RunSpec:
        entry = json_typed(entry, dict, where)
        return RunSpec(
            tag=json_member(entry, "tag", str, where),
            ee_label=json_member(entry, "environment", str, where),
            path=_resolve(json_member(entry, "path", str, where)),
        )

    try:
        raw = json_typed(raw, dict, "the manifest")
        options = json_member(raw, "options", dict, default={})
        output = json_member(raw, "output", str, default="")
        config = JobConfig(
            environments=[_environment(*item) for item in _items(raw, "environments")],
            runs=[_run(*item) for item in _items(raw, "runs")],
            pivot=json_member(raw, "pivot", str, default=""),
            measures=[
                json_checked(where, parse_measure, json_typed(m, str, where))
                for where, m in _items(raw, "measures")
            ],
            pairs=[_manifest_pair(*item) for item in _items(raw, "pairs")],
            output=_resolve(output) if output else None,
            t_variant=json_member(options, "t_test", str, "options", "student"),
            er_exclude=json_member(options, "er_exclude", float, "options", DEFAULT_ER_EXCLUSION),
            strict_topics=json_member(options, "strict_topics", bool, "options", True),
            series_mode=json_member(options, "series", str, "options", "raw"),
        )
    except (ValueError, DataError) as exc:
        raise UsageError(f"malformed manifest {path}: {exc}") from exc

    if args.pivot is not None:
        config.pivot = args.pivot
    if args.measures is not None:
        config.measures = _parse_measure_list(args.measures)
    if args.pairs is not None:
        config.pairs = _parse_pair_list(args.pairs)
    if args.t_test is not None:
        config.t_variant = args.t_test
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


def _series_name(system: str, measure: MeasureId, pair: EEPair) -> str:
    """File name, under ``series/``, of one system's series for one measure
    and pair."""
    base, target = _safe_name(pair.base_label), _safe_name(pair.target_label)
    return f"{_safe_name(system)}.{measure.key}.{base}-{target}.csv"


def _restrict(vector: TopicScoreVector, topics: TopicSet) -> TopicScoreVector:
    """The vector's scores on ``topics`` alone. A topic's score does not
    depend on the topic set."""
    scores = {t: vector.scores[t] for t in sorted(topics)}
    return TopicScoreVector(vector.measure, vector.run_tag, vector.ee_label, scores)


def _default_output(explicit: Path | None) -> Path:
    if explicit is not None:
        return explicit
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path(".")


def _write(out_dir: Path, files: Sequence[tuple[str, str]]) -> None:
    """Write each (name, content) under ``out_dir``, then list the names."""
    for name, content in files:
        path = out_dir / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        except OSError as exc:  # e.g. a file where a directory should be
            raise UsageError(f"cannot write {path}: {exc}") from exc
    for name, _ in files:
        print(f"wrote {name}")


def _artifacts(table: PersistenceTable, er_exclude: float) -> list[tuple[str, str]]:
    """The table and scatter files, which ``report`` re-renders from ``cells.json``."""
    points = er_dri_points(table.cells, er_exclude)
    return [
        ("table.txt", render_table_text(table)),
        ("table.csv", render_table_csv(table)),
        ("scatter.csv", scatter_csv(points)),
    ]


def cmd_score(args: argparse.Namespace) -> int:
    measures = _parse_measure_list(args.measures)
    _check_distinct(measures)
    run = load_run(Path(args.run))
    qrels = load_qrels(Path(args.qrels))
    if args.topics:
        topics = load_topics(Path(args.topics))
    else:
        topics = run.topics | qrels.topics
    out_dir = _default_output(Path(args.output) if args.output else None)
    files: list[tuple[str, str]] = []
    arp_payload: dict[str, dict] = {}
    for measure in measures:
        vector = score_run(run, qrels, measure, topics)
        stem = f"{_safe_name(run.run_tag)}.{measure.key}"
        files.append((f"{stem}.scores.txt", format_scores(vector)))
        files.append((f"{stem}.scores.json", scores_to_json(vector)))
        mean = arp(vector)
        arp_payload[measure.name] = {"value": mean.value, "n_topics": mean.n_topics}
        print(f"{run.run_tag} {measure.name} arp {mean.value:.6f} n={mean.n_topics}")
    payload = {"run_tag": run.run_tag, "measures": arp_payload}
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    files.append((f"{_safe_name(run.run_tag)}.arp.json", blob))
    _write(out_dir, files)
    return EXIT_OK


def cmd_persist(args: argparse.Namespace) -> int:
    config = load_job_config(Path(args.config), args)
    qrels = {spec.label: load_qrels(spec.qrels_path) for spec in config.environments}
    runs = {(run.tag, run.ee_label): load_run(run.path, run.tag) for run in config.runs}
    topics: dict[str, TopicSet] = {}
    for spec in config.environments:
        if spec.topics_path is not None:
            topics[spec.label] = load_topics(spec.topics_path)
        else:
            run_topics = (run.topics for (_, label), run in runs.items() if label == spec.label)
            topics[spec.label] = qrels[spec.label].topics.union(*run_topics)

    # Strict mode scores each environment on the core topics, else on its own.
    if config.strict_topics:
        core = core_topics([topics[label] for label in sorted(topics)])
        if not core:
            raise DataError("core topic intersection across environments is empty")
        topics = dict.fromkeys(topics, core)
    # Series use the topics a pair shares, so both series modes stay defined.
    shared = {pair: topics[pair.base_label] & topics[pair.target_label] for pair in config.pairs}
    for pair, common in shared.items():
        if not common:
            raise DataError(
                f"no shared topics between {pair.base_label!r} and {pair.target_label!r}"
            )

    system_tags = sorted({run.tag for run in config.runs if run.tag != config.pivot})
    labels = sorted({p.base_label for p in config.pairs} | {p.target_label for p in config.pairs})
    cells: list[PersistenceCell] = []
    files = []
    for measure in config.measures:
        # Each (tag, environment) is scored once per measure.
        scored = {
            (tag, label): score_run(runs[tag, label], qrels[label], measure, topics[label], label)
            for tag in (config.pivot, *system_tags)
            for label in labels
        }
        for system, pair in product(system_tags, config.pairs):
            keys = product((system, config.pivot), (pair.base_label, pair.target_label))
            vectors = [scored[key] for key in keys]
            cells.append(persistence_cell(*vectors, t_variant=config.t_variant))
            vectors = [_restrict(v, shared[pair]) for v in vectors]
            if config.series_mode == "raw":
                series = topic_delta_series(*vectors[:2])
            else:
                series = pivot_delta_series(*vectors)
            files.append((f"series/{_series_name(system, measure, pair)}", series_csv(series)))

    table = persistence_table(cells, ee_order=[spec.label for spec in config.environments])
    files += [("cells.json", table_to_json(table)), *_artifacts(table, config.er_exclude)]
    _write(_default_output(config.output), sorted(files))
    return EXIT_OK


def cmd_corpus_diff(args: argparse.Namespace) -> int:
    load = snapshot_from_dir if args.from_dirs else load_manifest
    snapshot_a, snapshot_b = load(Path(args.manifest_a)), load(Path(args.manifest_b))
    summary = diff_collections(snapshot_a, snapshot_b)
    sys.stdout.write(format_diff(summary, snapshot_a.label, snapshot_b.label, verbose=args.verbose))
    if args.output:
        payload = {
            "a": snapshot_a.label,
            "b": snapshot_b.label,
            **summary.to_dict(include_urls=args.verbose),
        }
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write(Path(args.output), [("corpus_diff.json", blob)])
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    table = table_from_json(read_input(args.cells), path=args.cells)
    files = _artifacts(table, args.er_exclude)
    _write(_default_output(Path(args.output) if args.output else None), files)
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
    persist.add_argument("--t-test", choices=sorted(VARIANTS), help="t-test variant")
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
    report.set_defaults(handler=cmd_report, er_exclude=DEFAULT_ER_EXCLUSION)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The parsed data holds no reference cycles, so reference counting
    # frees it; the cycle collector would only rescan it, over and over.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    with warnings.catch_warnings():
        warnings.simplefilter("always", DiagnosticWarning)
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except EvaluationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            # DataError and any other data fault exit 3.
            return _EXIT_CODES.get(type(exc), EXIT_DATA)
        finally:
            if gc_was_enabled:
                gc.enable()


if __name__ == "__main__":
    sys.exit(main())
