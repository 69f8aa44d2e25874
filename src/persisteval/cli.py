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
from collections import namedtuple
from collections.abc import Sequence
from itertools import product
from pathlib import Path

from .errors import DataError, DiagnosticWarning, EvaluationError, ParseError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DATA = 3
_EXIT_CODES = {UsageError: EXIT_USAGE, ParseError: EXIT_PARSE}

OUTPUT_ENV_VAR = "PERSISTEVAL_OUTPUT"
SERIES_MODES = ("pivot-delta", "raw")

EESpec = namedtuple("EESpec", "label qrels_path topics_path")
RunSpec = namedtuple("RunSpec", "tag ee_label path")


class JobConfig(
    namedtuple(
        "JobConfig",
        "environments runs pivot measures pairs output strict_topics t_test er_exclude series",
    )
):
    """A persistence job: environments, runs, pivot, measures, pairs, and
    output options. Paths are resolved relative to the manifest file. The
    options are checked where they are read, so that an error names the
    manifest field or the flag a bad value came from."""

    __slots__ = ()

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
        for pair in self.pairs:
            for label in (pair.base_label, pair.target_label):
                if label not in declared:
                    raise UsageError(f"pair {pair.key} references undeclared environment {label!r}")
        tags = {run.tag for run in self.runs}
        if self.pivot not in tags:
            raise UsageError(f"pivot {self.pivot!r} is not a declared run tag")
        series_owners: dict[str, str] = {}
        systems = sorted(tags - {self.pivot})
        if not systems:
            raise UsageError(f"no system run besides the pivot {self.pivot!r}")
        out_dir = _default_output(self.output)
        for system, measure, pair in product(systems, self.measures, self.pairs):
            name = _series_name(system, measure, pair)
            _check_name(out_dir, f"series/{name}")
            owner = (
                f"system {system!r}, {measure.name}, "
                f"pair {pair.base_label!r} -> {pair.target_label!r}"
            )
            if name in series_owners:
                raise UsageError(f"series/{name} would hold both {series_owners[name]} and {owner}")
            series_owners[name] = owner
        for path in sorted((out_dir / "series").glob("*.csv")):  # one job per output directory
            if path.name not in series_owners:
                raise UsageError(f"{path} is not a series of this job; use a new output directory")
        # A missing run is a data property of the job, not a usage bug.
        pair_labels = {p.base_label for p in self.pairs} | {p.target_label for p in self.pairs}
        for tag, label in product([self.pivot, *systems], sorted(pair_labels)):
            if (tag, label) not in seen_runs:
                who = "pivot" if tag == self.pivot else "system"
                raise DataError(f"{who} {tag!r} has no run in environment {label!r}")


def _comma_list(text: str) -> list[str]:
    """The JSON form of a comma-list flag: its non-empty items."""
    return [token.strip() for token in text.split(",") if token.strip()]


def _pair_list(text: str) -> list[list[str]]:
    """The JSON form of --pairs: ``a:b,c:d`` is [["a", "b"], ["c", "d"]]."""
    return [token.split(":") for token in _comma_list(text)]


def _read_measures(names: list, where: str) -> list[MeasureId]:
    """The measures of a list of names: at least one, none named twice."""
    from .measures import parse_measure
    from .run_io import json_checked, json_typed

    measures = []
    for i, name in enumerate(names):
        path = f"{where}[{i}]"
        measure = json_checked(parse_measure)(json_typed(name, str, path), path)
        if measure in measures:
            raise ValueError(f"{path}: measure {measure.name} is declared twice")
        measures.append(measure)
    if not measures:
        raise ValueError(f"{where} is empty")
    return measures


def _check_series(mode: str) -> str:
    if mode not in SERIES_MODES:
        raise UsageError(f"unknown series mode {mode!r}; expected one of {list(SERIES_MODES)}")
    return mode


def _flag(flag: str, read, value):
    """A flag's value read as the field it overrides: its error names the flag."""
    try:
        return value if read is None else read(value, flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_job_config(path: Path, args: argparse.Namespace) -> JobConfig:
    """Read the JSON manifest and apply command-line overrides. Each
    manifest field has one JSON type and one reader; a value of another
    type, or one its reader refuses, is a usage error that names the
    field's path. A flag overrides its field only after the manifest has
    passed, and its value goes through the field's reader."""
    from .persistence import EEPair
    from .report import DEFAULT_ER_EXCLUSION, check_er_exclusion
    from .run_io import MISSING, json_checked, json_fields, json_object, json_typed, parse_json
    from .run_io import read_input
    from .stats import check_t_variant

    raw = parse_json(read_input(path), path=str(path))

    def file(text: str, where: str) -> Path:
        """A path of the manifest; a relative one is under the manifest's directory."""
        if not text:
            raise ValueError(f"{where}: path is empty")
        if "\0" in text:
            raise ValueError(f"{where}: path {json.dumps(text)} holds a NUL character")
        return path.parent / text

    def optional_file(text: str, where: str) -> Path | None:
        return file(text, where) if text else None

    def pairs(items: list, where: str) -> list[EEPair]:
        """The pairs of [base, target] lists: at least one, no two with one target."""
        targets: dict[str, EEPair] = {}  # target label -> pair
        for i, item in enumerate(items):
            at = f"{where}[{i}]"
            if not (type(item) is list and len(item) == 2 and all(type(x) is str for x in item)):
                shape = "a pair must be a [base, target] list of two strings"
                raise ValueError(f"{at}: {shape}, got {json.dumps(item)}")
            pair = json_checked(EEPair._make)(item, at)
            first = targets.setdefault(pair.target_label, pair)
            if first is not pair:
                target = pair.target_label
                raise ValueError(f"{at}: pairs {first.key} and {pair.key} both target {target!r}")
        if not targets:
            raise ValueError(f"{where} is empty")
        return list(targets.values())

    def objects(fields, build):
        """The reader of a list of objects, each read by ``json_object(fields, build)``."""
        read = json_object(fields, build)
        return lambda items, where: [read(item, f"{where}[{i}]") for i, item in enumerate(items)]

    # Each field: (key, JSON type, reader, null, default) as json_fields reads
    # it, then, if the flag --<key> overrides it, the JSON form of its value.
    environment = (
        ("label", str, None, MISSING, MISSING),
        ("qrels", str, file, MISSING, MISSING),
        ("topics", str, optional_file, MISSING, ""),
    )
    run = (
        ("tag", str, None, MISSING, MISSING),
        ("environment", str, None, MISSING, MISSING),
        ("path", str, file, MISSING, MISSING),
    )
    option_fields = (
        ("strict_topics", bool, None, MISSING, True, bool),
        ("t_test", str, json_checked(check_t_variant), MISSING, "student", str),
        ("er_exclude", float, json_checked(check_er_exclusion), MISSING, DEFAULT_ER_EXCLUSION, float),
        ("series", str, json_checked(_check_series), MISSING, "raw", str),
    )
    top_level = (
        ("environments", list, objects(environment, EESpec._make), MISSING, []),
        ("runs", list, objects(run, RunSpec._make), MISSING, []),
        ("pivot", str, None, MISSING, "", str),
        ("measures", list, _read_measures, MISSING, MISSING, _comma_list),
        ("pairs", list, pairs, MISSING, MISSING, _pair_list),
        # A relative --output is under the working directory.
        ("output", str, optional_file, MISSING, "", os.path.abspath),
        ("options", dict, None, MISSING, {}),
    )
    try:
        *fields, options = json_fields(json_typed(raw, dict, "the manifest"), top_level)
        settings = json_fields(options, option_fields, "options")
    except ValueError as exc:
        raise UsageError(f"malformed manifest {path}: {exc}") from exc

    overrides = {}
    for key, _, read, _, _, *form in (*top_level, *option_fields):
        value = getattr(args, key) if form else None
        if value is not None:
            overrides[key] = _flag(f"--{key.replace('_', '-')}", read, form[0](value))
    config = JobConfig(*fields, *settings)._replace(**overrides)
    config.validate()
    return config


def _safe_name(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9._@-]", "_", token)


def _series_name(system: str, measure: MeasureId, pair: EEPair) -> str:
    """File name, under ``series/``, of one system's series for one measure
    and pair."""
    base, target = _safe_name(pair.base_label), _safe_name(pair.target_label)
    return f"{_safe_name(system)}.{measure.key}.{base}-{target}.csv"


def _default_output(explicit: Path | str | None) -> Path:
    return Path(explicit or os.environ.get(OUTPUT_ENV_VAR) or ".")


def _check_name(out_dir: Path, name: str) -> None:  # 255 bytes is NAME_MAX on Linux
    if any(len(part.encode("utf-8")) > 255 for part in Path(name).parts):
        raise UsageError(f"cannot write {out_dir / name}: file name longer than 255 bytes")


def _write(out_dir: Path, files: Sequence[tuple[str, str]]) -> None:
    """Write each (name, content) under ``out_dir``, then list the names. Each
    file goes first to a temporary name in its own directory, and only once all
    are written are they renamed into place, so a failed write keeps the old files."""
    for name, _ in files:
        _check_name(out_dir, name)
    written: list[tuple[Path, Path]] = []  # (temporary, final); never a series/*.csv
    try:
        for name, content in files:
            path = out_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary = path.with_name(f".persisteval-{len(written)}.tmp")
            written.append((temporary, path))  # before writing, so a partial file is removed
            temporary.write_text(content, encoding="utf-8")
        for _, path in written:  # a directory in the way would stop the renames part-way
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError("Is a directory")
        for temporary, path in written:
            os.replace(temporary, path)
    except OSError as exc:  # e.g. a file where a directory should be
        for temporary, _ in written:
            temporary.unlink(missing_ok=True)
        raise UsageError(f"cannot write {path}: {exc}") from exc
    for name, _ in files:
        print(f"wrote {name}")


def _artifacts(table: PersistenceTable, er_exclude: float) -> list[tuple[str, str]]:
    """The table and scatter files, which ``report`` re-renders from ``cells.json``."""
    from .report import er_dri_points, render_table_csv, render_table_text, scatter_csv

    points = er_dri_points(table.cells, er_exclude)
    return [
        ("table.txt", render_table_text(table)),
        ("table.csv", render_table_csv(table)),
        ("scatter.csv", scatter_csv(points)),
    ]


def cmd_score(args: argparse.Namespace) -> int:
    from .measures import arp, score_run
    from .run_io import load_qrels, load_run, snapshot_topics

    measures = _flag("--measures", _read_measures, _comma_list(args.measures))
    run, qrels = load_run(Path(args.run)), load_qrels(Path(args.qrels))
    topics = snapshot_topics(qrels, [run], args.topics or None)
    run = run.judged(qrels, max(measure.depth for measure in measures))
    files: list[tuple[str, str]] = []
    arp_payload: dict[str, dict] = {}
    for measure in measures:
        vector = score_run(run, measure, topics)  # its topics in sorted order
        mean = arp_payload[measure.name] = arp(vector)._asdict()
        rows = [*vector.scores.items(), ("all", mean["value"])]
        text = "".join(f"{topic} {measure.name} {score:.6f}\n" for topic, score in rows)
        record = {**vector._asdict(), "measure": measure.name, "arp": mean}
        stem = f"{_safe_name(run.run_tag)}.{measure.key}"
        files.append((f"{stem}.scores.txt", text))
        files.append((f"{stem}.scores.json", json.dumps(record, indent=2, sort_keys=True) + "\n"))
        print(f"{run.run_tag} {measure.name} arp {mean['value']:.6f} n={mean['n_topics']}")
    blob = json.dumps({"run_tag": run.run_tag, "measures": arp_payload}, indent=2, sort_keys=True)
    files.append((f"{_safe_name(run.run_tag)}.arp.json", blob + "\n"))
    _write(_default_output(args.output), files)
    return EXIT_OK


def cmd_persist(args: argparse.Namespace) -> int:
    from .measures import score_run
    from .persistence import persistence_cell
    from .report import (
        persistence_table, pivot_delta_series, series_csv, table_to_json, topic_delta_series,
    )
    from .run_io import core_topics, load_qrels, load_run, snapshot_topics

    config = load_job_config(Path(args.config), args)
    qrels = {spec.label: load_qrels(spec.qrels_path) for spec in config.environments}
    depth = max(measure.depth for measure in config.measures)
    runs = {}
    for run in config.runs:  # judged as it loads, so no doc id outlives loading
        runs[run.tag, run.ee_label] = load_run(run.path, run.tag).judged(qrels[run.ee_label], depth)
    topics = {
        ee.label: snapshot_topics(
            qrels[ee.label], [r for (_, at), r in runs.items() if at == ee.label], ee.topics_path
        )
        for ee in config.environments
    }

    # Strict mode scores each environment on the core topics, else on its own.
    if config.strict_topics:
        topics = dict.fromkeys(topics, core_topics(topics))
    # Series use the topics a pair shares, so both series modes stay defined.
    shared = {p: sorted(topics[p.base_label] & topics[p.target_label]) for p in config.pairs}
    for pair, common in shared.items():
        if not common:
            raise DataError(
                f"no shared topics between {pair.base_label!r} and {pair.target_label!r}"
            )
        for label in pair:
            if len(topics[label]) < 2:
                raise DataError(
                    f"environment {label!r} has 1 topic to score; the t-tests need at least 2"
                )

    system_tags = sorted({run.tag for run in config.runs if run.tag != config.pivot})
    labels = sorted({p.base_label for p in config.pairs} | {p.target_label for p in config.pairs})
    cells: list[PersistenceCell] = []
    files = []
    for measure in config.measures:
        # Each (tag, environment) is scored once per measure.
        scored = {
            (tag, label): score_run(runs[tag, label], measure, topics[label], label)
            for tag in (config.pivot, *system_tags)
            for label in labels
        }
        for system, pair in product(system_tags, config.pairs):
            keys = product((system, config.pivot), (pair.base_label, pair.target_label))
            vectors = [scored[key] for key in keys]
            cells.append(persistence_cell(*vectors, t_variant=config.t_test))
            # A topic's score does not depend on the topic set.
            vectors = [v._replace(scores={t: v.scores[t] for t in shared[pair]}) for v in vectors]
            if config.series == "raw":
                series = topic_delta_series(*vectors[:2])
            else:
                series = pivot_delta_series(*vectors)
            files.append((f"series/{_series_name(system, measure, pair)}", series_csv(series)))

    table = persistence_table(cells, ee_order=[spec.label for spec in config.environments])
    files += [("cells.json", table_to_json(table)), *_artifacts(table, config.er_exclude)]
    _write(_default_output(config.output), sorted(files))
    return EXIT_OK


def cmd_corpus_diff(args: argparse.Namespace) -> int:
    from .corpus_diff import diff_collections, diff_json, format_diff
    from .corpus_diff import load_manifest, snapshot_from_dir

    load = snapshot_from_dir if args.from_dirs else load_manifest
    snapshot_a, snapshot_b = load(Path(args.manifest_a)), load(Path(args.manifest_b))
    summary, labels = diff_collections(snapshot_a, snapshot_b), (snapshot_a.label, snapshot_b.label)
    del snapshot_a, snapshot_b  # free both url -> length maps before rendering
    sys.stdout.write(format_diff(summary, *labels, verbose=args.verbose))
    if args.output:
        payload = dict(zip("ab", labels), **summary.to_dict(include_urls=args.verbose))
        _write(Path(args.output), [("corpus_diff.json", diff_json(payload))])
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from .report import DEFAULT_ER_EXCLUSION, check_er_exclusion, table_from_json
    from .run_io import json_checked, read_input

    # cells.json does not hold the threshold persist used (README).
    er_exclude = DEFAULT_ER_EXCLUSION if args.er_exclude is None else args.er_exclude
    _flag("--er-exclude", json_checked(check_er_exclusion), er_exclude)
    table = table_from_json(read_input(args.cells), path=args.cells)
    files = _artifacts(table, er_exclude)
    _write(_default_output(args.output), files)
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
    persist.add_argument("--t-test", help="t-test variant: student (default) or welch")
    persist.add_argument("--er-exclude", type=float, help="|ER| threshold for scatter exclusion")
    persist.add_argument(
        "--strict-topics",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="score every environment on the shared core topics (default: on)",
    )
    persist.add_argument(
        "--series",
        help="per-topic series: raw score changes, or pivot-delta: changes of the improvement"
        " over the pivot",
    )
    persist.add_argument(
        "--output", type=lambda text: text or None, help="output directory (overrides manifest)"
    )
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
