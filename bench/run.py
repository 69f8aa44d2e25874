"""Benchmark of the persisteval command-line tool.

One command generates a seeded workload, runs the real CLI on it as child
processes, checks every output and prints the metrics:

    python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Run it from the root of a persisteval checkout; it reads and writes only
inside that checkout (work files go to .bench_work/). With ``--trace 0`` it
reports the end-to-end metrics, measured with tracing off; with
``--trace 1`` it reports the per-layer metrics of a separate traced run
(tracer.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. README.md in this directory
describes the workloads, the metrics and how they are measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

BENCH_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
PINS = BENCH_DIR / "digests.json"
REQUIRED = ("src/persisteval/cli.py", "tests/fixtures/two_ee/job.json", "tests/golden/two_ee", "tests/oracles.py")

# The console-script entry point of the package, as pyproject.toml declares it.
CLI_ENTRY = "import sys; from persisteval.cli import main; sys.exit(main())"
# Set-up of one command: import the CLI, parse the arguments and, for
# persist, read the job manifest. No run, qrels, cells or manifest data.
SETUP_ENTRY = """
import sys
from pathlib import Path
from persisteval import cli
args = cli.build_parser().parse_args(sys.argv[1:])
if args.command == "persist":
    cli.load_job_config(Path(args.config), args)
"""

# A fixed pure-Python loop, run as its own process before each timed run.
# The speed of the shared machine drifts by 20-30% within minutes; timed
# runs and set-up probes are divided by the reference time measured next to
# them and scaled to REFERENCE_S, the loop's median time on the 2-core Xeon
# the bounds were tuned on. README.md (Steadiness) has the evidence.
REFERENCE_ENTRY = "x = 0\nfor i in range(1_000_000):\n    x += i * i % 7\n"
REFERENCE_S = 0.24

# wall_s and setup_s are in reference seconds (see REFERENCE_S); setup_s
# keeps the unit "s" that the benchmark contract prescribes for it.
END_TO_END = {"wall_s": "ref_s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.load_job_config.self_s": "s",
    "cli.output_files": "count",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "run_io.load_run.calls": "count",
    "run_io.load_run.self_s": "s",
    "run_io.parse_run.self_s": "s",
    "run_io.load_qrels.self_s": "s",
    "run_io.input_lines": "count",
    "run_io.lines_per_s": "lines/s",
    "run_io.self_s": "s",
    "measures.score_run.calls": "count",
    "measures.score_run.distinct": "count",
    "measures.score_run.useful_ratio": "ratio",
    "measures.score_run.self_s": "s",
    "measures.topics_per_s": "topics/s",
    "measures.self_s": "s",
    "stats.t_test_unpaired.calls": "count",
    "stats.t_test_unpaired.self_s": "s",
    "stats.self_s": "s",
    "persistence.persistence_cell.calls": "count",
    "persistence.persistence_cell.self_s": "s",
    "persistence.topic_deltas.self_s": "s",
    "persistence.cell_from_dict.self_s": "s",
    "persistence.self_s": "s",
    "report.table_from_json.self_s": "s",
    "report.persistence_table.self_s": "s",
    "report.render.self_s": "s",
    "report.series.calls": "count",
    "report.self_s": "s",
    "corpus_diff.load_manifest.self_s": "s",
    "corpus_diff.parse_manifest.self_s": "s",
    "corpus_diff.diff_collections.self_s": "s",
    "corpus_diff.format_diff.self_s": "s",
    "corpus_diff.urls_per_s": "urls/s",
    "corpus_diff.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
RENDERERS = ("render_table_text", "render_table_csv", "table_to_json", "scatter_csv", "series_csv", "er_dri_points")

MIN_REPS = 3  # timed runs per workload, even when --seconds is shorter
# A run must end within 180 s even when the program is very slow: no child
# may run longer than CHILD_TIMEOUT_S, and no new timed run starts after
# LOOP_DEADLINE_S from the start of the benchmark.
LOOP_DEADLINE_S = 120
SETUP_PER_RUN = 2  # set-up probes after each timed run
POLL_S = 0.02  # memory sampling interval of the process tree
CHILD_TIMEOUT_S = 30


@dataclass
class Sample:
    """One child process: wall time from spawn to exit and peak memory."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: Path
    stderr: Path

    def problems(self) -> list[str]:
        problems = [] if self.returncode == 0 else [f"exit code {self.returncode}"]
        if "Traceback" in self.stderr.read_text(encoding="utf-8", errors="replace"):
            problems.append("traceback on stderr")
        return problems


def _session_pids(sid: int) -> list[int]:
    """Processes of the session led by ``sid``: the command and every
    descendant that did not leave the session."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


def _peak_kb(pid: int) -> int:
    """VmHWM, the process's own peak resident set, in kB (0 once gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _watch(sid: int, deadline: float, stop: threading.Event, peaks: dict[int, int]) -> None:
    while True:
        for pid in _session_pids(sid):
            peaks[pid] = max(peaks.get(pid, 0), _peak_kb(pid))
        if time.perf_counter() > deadline:
            _kill_session(sid)
        if stop.wait(POLL_S):
            return


def _kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> Sample:
    """Run ``cmd`` in a new session and measure it.

    Peak memory covers the whole process tree: it is the larger of the
    kernel's exact peak for the largest single process (``ru_maxrss`` from
    ``wait4``) and the sum of every session member's own peak (``VmHWM``),
    sampled every POLL_S seconds. Only the benchmark's own child processes
    are read; /proc is listed to find them.
    """
    peaks: dict[int, int] = {}
    stop = threading.Event()
    status = None
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, start_new_session=True)
        watcher = threading.Thread(target=_watch, args=(proc.pid, start + CHILD_TIMEOUT_S, stop, peaks))
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            stop.set()
            watcher.join()
            _kill_session(proc.pid)
            if status is None:  # interrupted: reap the killed command
                os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for _ in range(100):  # descendants that outlived the command
        if not _session_pids(proc.pid):
            break
        _kill_session(proc.pid)
        time.sleep(POLL_S)
    peak_kb = max(usage.ru_maxrss, sum(peaks.values()))
    return Sample(wall, peak_kb / 1024.0, proc.returncode, stdout, stderr)


class Runner:
    """Starts the commands of one benchmark run and keeps its tally."""

    def __init__(self, repo: Path, work: Path) -> None:
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "PERSISTEVAL_OUTPUT"}
        self.env["PYTHONPATH"] = str(repo / "src")
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0

    def python(self, args: list[str]) -> Sample:
        self._count += 1
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        return spawn(
            [sys.executable, *args], self.env,
            logs / f"{self._count}.out", logs / f"{self._count}.err",
        )

    def cli(self, args: list[str]) -> Sample:
        return self.python(["-c", CLI_ENTRY, *args])

    def judge(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems[:5])}")


def _more(done: int, minimum: int, started: float, seconds: float) -> bool:
    now = time.perf_counter()
    return now < BENCH_START + LOOP_DEADLINE_S and (done < minimum or now - started < seconds)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.6g}..{q3:.6g}"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _line_count(path: Path, cache: dict[str, int]) -> int:
    key = str(path)
    if key not in cache:
        with path.open("rb") as handle:
            cache[key] = sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))
    return cache[key]


def layer_metrics(doc: dict, out_dir: Path, workload: workloads.Workload, lines: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced run (without trace.overhead_ratio)."""
    self_s, calls, notes = tracer.function_totals(doc)
    layers = tracer.layer_self(self_s)
    score_notes = notes.get("measures.score_run", [])
    distinct = len({key for key, _ in score_notes})
    input_lines = sum(
        _line_count(Path(path), lines)
        for name in ("run_io.load_run", "run_io.load_qrels", "run_io.load_topics")
        for path in notes.get(name, [])
    )
    outputs = [p for p in out_dir.rglob("*") if p.is_file()]
    metrics = {
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.load_job_config.self_s": self_s.get("cli.load_job_config", 0.0),
        "cli.output_files": len(outputs),
        "cli.output_bytes": sum(p.stat().st_size for p in outputs),
        "run_io.load_run.calls": calls["run_io.load_run"],
        "run_io.input_lines": input_lines,
        "run_io.lines_per_s": _ratio(input_lines, layers["run_io"]),
        "measures.score_run.calls": calls["measures.score_run"],
        "measures.score_run.distinct": distinct,
        "measures.score_run.useful_ratio": _ratio(distinct, calls["measures.score_run"]),
        "measures.topics_per_s": _ratio(sum(n for _, n in score_notes), self_s.get("measures.score_run", 0.0)),
        "stats.t_test_unpaired.calls": calls["stats.t_test_unpaired"],
        "persistence.persistence_cell.calls": calls["persistence.persistence_cell"],
        "report.render.self_s": sum(self_s.get(f"report.{name}", 0.0) for name in RENDERERS),
        "report.series.calls": calls["report.topic_delta_series"] + calls["report.pivot_delta_series"],
        "corpus_diff.urls_per_s": _ratio(workload.sizes.get("urls", 0), layers["corpus_diff"]),
        "trace.spans": len(doc["spans"]),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    for name in PER_LAYER:
        if name.endswith(".self_s") and name not in metrics:
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return metrics


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu}


def bench_digest(repo: Path) -> str:
    """sha256 over the benchmark's own files and BENCHMARK.json."""
    digest = hashlib.sha256()
    files = sorted(p for p in BENCH_DIR.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in [*files, repo / "BENCHMARK.json"]:
        if path.is_file():
            digest.update(path.relative_to(repo).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def pinned_problems(name: str, digests: dict[str, str | None]) -> list[str]:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    expected = pins.get(name)
    if not expected:
        return [f"no pinned digests for {name}"]
    return [f"{key}: sha256 differs from the pinned digest" for key, sha in expected.items() if digests.get(key) != sha]


def measure(args, repo: Path, work: Path, runner: Runner, record: dict) -> dict[str, float]:
    # Correctness of the program on the frozen fixture comes first.
    fixture = repo / "tests" / "fixtures" / "two_ee" / "job.json"
    sample = runner.cli(["persist", "--config", str(fixture), "--output", str(work / "two_ee")])
    runner.judge("two_ee", sample.problems() + checks.golden_problems(work / "two_ee", repo / "tests" / "golden" / "two_ee"))

    started = time.perf_counter()
    workload = workloads.generate(args.workload, args.seed, work / "input", args.scale)
    record["generate_s"] = time.perf_counter() - started
    record["inputs"] = workload.sizes

    # A reference run, checked against the generator's knowledge, whose
    # digests every later run must reproduce.
    ref_out = work / "reference"
    sample = runner.cli(workload.command(ref_out))
    problems = sample.problems() or checks.content_problems(workload, ref_out, sample.stdout, repo, args.seed)
    digests = checks.output_digests(workload, ref_out, sample.stdout)
    record["reference_digests"] = digests
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full":
        problems += pinned_problems(workload.name, digests)
    runner.judge("reference run", problems)
    if workload.kind == "persist":
        repro = work / "rerendered"
        sample = runner.cli(["report", str(ref_out / "cells.json"), "--output", str(repro)])
        runner.judge("report on cells.json", sample.problems() + checks.same_files(
            ref_out, repro, ["table.txt", "table.csv", "scatter.csv"]))

    def timed_run(cmd_prefix: list[str], out: Path) -> Sample:
        sample = runner.python([*cmd_prefix, *workload.command(_fresh(out))])
        problems = sample.problems()
        if not problems and checks.output_digests(workload, out, sample.stdout) != digests:
            problems.append("outputs differ from the reference run")
        runner.judge("timed run", problems)
        return sample

    untraced: list[Sample] = []
    if not args.trace:
        reference_s: list[float] = []
        setup: list[tuple[float, float]] = []  # (probe wall time, reference time)
        started = time.perf_counter()
        while _more(len(untraced), MIN_REPS, started, args.seconds):
            reference_s.append(runner.python(["-c", REFERENCE_ENTRY]).wall_s)
            for _ in range(SETUP_PER_RUN):
                probe = runner.python(["-c", SETUP_ENTRY, *workload.command(work / "setup")])
                runner.judge("set-up", probe.problems())
                setup.append((probe.wall_s, reference_s[-1]))
            untraced.append(timed_run(["-c", CLI_ENTRY], work / "out"))
        record["samples"] = {
            "reference_s": reference_s,
            "wall_s": [s.wall_s for s in untraced],
            "peak_rss_mb": [s.peak_rss_mb for s in untraced],
            "setup_s": [wall for wall, _ in setup],
        }
        return {
            "wall_s": REFERENCE_S * _median([s.wall_s / ref for s, ref in zip(untraced, reference_s)]),
            "peak_rss_mb": _median(record["samples"]["peak_rss_mb"]),
            "setup_s": REFERENCE_S * _median([wall / ref for wall, ref in setup]),
        }

    traced: list[tuple[Sample, dict]] = []
    lines: dict[str, int] = {}
    started = time.perf_counter()
    while _more(len(traced), 2, started, args.seconds):
        untraced.append(timed_run(["-c", CLI_ENTRY], work / "out"))
        spans = work / f"spans-{len(traced)}.json"
        out = work / "traced"
        sample = timed_run([str(BENCH_DIR / "tracer.py"), str(spans)], out)
        doc = json.loads(spans.read_text(encoding="utf-8")) if spans.is_file() else {"names": [], "spans": [], "notes": []}
        traced.append((sample, layer_metrics(doc, out, workload, lines)))
        if len(traced) == 1 and spans.is_file():
            records = repo / WORK_DIR / "records"
            shutil.copy(spans, records / f"{args.workload}-seed{args.seed}.spans.json")
    per_run = [m for _, m in traced]
    counts = {k: v for k, v in per_run[0].items() if PER_LAYER[k] == "count"}
    record["counts_repeat"] = all({k: m[k] for k in counts} == counts for m in per_run)
    metrics = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = _ratio(
        _median([s.wall_s for s, _ in traced]), _median([s.wall_s for s in untraced])
    )
    record["samples"] = {
        "untraced_wall_s": [s.wall_s for s in untraced],
        "traced_wall_s": [s.wall_s for s, _ in traced],
    }
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed runs last")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input size; 'tiny' is for the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path.cwd()
    missing = [name for name in REQUIRED if not (repo / name).exists()]
    if missing:
        print(f"bench: run from the root of a persisteval checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = repo / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (repo / WORK_DIR / "records").mkdir(parents=True, exist_ok=True)
    _fresh(work).mkdir(parents=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "machine": machine_facts(), "bench_sha256": bench_digest(repo),
        "loadavg_before": os.getloadavg(),
    }
    runner = Runner(repo, work)
    try:
        metrics = measure(args, repo, work, runner, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    record.update(result=result, failures=runner.failures)
    (repo / WORK_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    sizes = " ".join(f"{k}={v}" for k, v in record.get("inputs", {}).items())
    print(f"# {args.workload} seed {args.seed}: inputs {sizes}; "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(f"# {args.workload} failed_ratio {len(runner.failures)}/{runner.attempted}")
    samples = record.get("samples", {})
    for name, unit in names.items():
        values = samples.get(name, [])
        extra = f" ({len(values)} runs: raw median {_median(values):.6g}{_spread(values)})" if values else ""
        print(f"# {args.workload} {name} {metrics[name]:.6g} {unit}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
