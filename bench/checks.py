"""Correctness checks on the outputs of the program under test.

Every check returns a list of problems; an empty list means the output
passed. The checks judge outputs against what the generator knows about its
own inputs, against the frozen goldens of the ``two_ee`` fixture and against
brute-force measures from ``tests/oracles.py``, never against the program's
own view of its inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

from workloads import Workload

STDOUT = "stdout"  # digest key of a command's standard output


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(workload: Workload, out_dir: Path, stdout: Path) -> dict[str, str | None]:
    """sha256 of each expected output file (None when it is missing). The
    standard output is part of the result only for corpus-diff, whose
    ``--verbose`` listing goes there."""
    digests = {}
    for name in workload.expected:
        path = out_dir / name
        digests[name] = sha256(path) if path.is_file() else None
    if workload.kind == "corpus-diff":
        digests[STDOUT] = sha256(stdout)
    return digests


def golden_problems(out_dir: Path, golden_dir: Path) -> list[str]:
    """Every golden file must exist in ``out_dir`` with identical bytes."""
    problems = []
    for golden in sorted(p for p in golden_dir.rglob("*") if p.is_file()):
        name = golden.relative_to(golden_dir).as_posix()
        produced = out_dir / name
        if not produced.is_file():
            problems.append(f"two_ee: {name} was not written")
        elif produced.read_bytes() != golden.read_bytes():
            problems.append(f"two_ee: {name} differs from its golden copy")
    return problems


def same_files(first: Path, second: Path, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        a, b = first / name, second / name
        if not (a.is_file() and b.is_file()) or a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: re-rendered bytes differ from the persist output")
    return problems


def content_problems(workload: Workload, out_dir: Path, stdout: Path, repo: Path, seed: int) -> list[str]:
    """Check one output against the generator's knowledge of the inputs."""
    problems = [f"{name}: not written" for name in workload.expected if not (out_dir / name).is_file()]
    if problems:
        return problems
    try:
        return _content_problems(workload, out_dir, stdout, repo, seed)
    except (ValueError, KeyError, TypeError) as exc:  # undecodable or malformed output
        return [f"unreadable output: {exc!r}"]


def _content_problems(workload: Workload, out_dir: Path, stdout: Path, repo: Path, seed: int) -> list[str]:
    problems = []
    if workload.kind == "persist":
        cells = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))["cells"]
        return arp_problems(workload, cells, repo, random.Random(seed))
    if workload.kind == "report":
        truth = workload.truth
        if (out_dir / "scatter.csv").read_text(encoding="utf-8") != truth["scatter"]:
            problems.append("scatter.csv: does not match the synthesized cells")
        if (out_dir / "table.csv").read_text(encoding="utf-8") != truth["table_csv"]:
            problems.append("table.csv: does not match the table of the synthesized cells")
        text = (out_dir / "table.txt").read_text(encoding="utf-8")
        if [line.replace("|", " ").split() for line in text.splitlines()] != truth["table_tokens"]:
            problems.append("table.txt: values differ from the table of the synthesized cells")
        return problems
    summary = json.loads((out_dir / "corpus_diff.json").read_text(encoding="utf-8"))
    if summary != workload.truth["summary"]:
        problems.append("corpus_diff.json: classes differ from the generated ones")
    if not stdout.read_text(encoding="utf-8").startswith(workload.truth["stdout_prefix"]):
        problems.append("stdout: verbose listing differs from the generated classes")
    return problems


def _load_oracles(repo: Path):
    spec = importlib.util.spec_from_file_location("bench_oracles", repo / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rankings(path: Path, max_depth: int) -> dict[str, list[str]]:
    """topic -> doc ids by score descending, then doc id descending."""
    per_topic: dict[str, list[tuple[float, str]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        topic, _, doc, _, score, _ = line.split()
        per_topic.setdefault(topic, []).append((float(score), doc))
    return {
        topic: [doc for _, doc in sorted(items, reverse=True)[:max_depth]]
        for topic, items in per_topic.items()
    }


def _judgments(path: Path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        topic, _, doc, grade = line.split()
        out.setdefault(topic, {})[doc] = int(grade)
    return out


def _scorer(oracles, name: str):
    lowered = name.lower()
    if lowered.startswith("p@"):
        k = int(lowered[2:])
        return lambda docs, qrels: oracles.oracle_p_at_k(docs, qrels, k)
    if lowered == "ndcg":
        return lambda docs, qrels: oracles.oracle_ndcg(docs, qrels)
    if lowered.startswith("ndcg@"):
        cutoff = int(lowered[5:])
        return lambda docs, qrels: oracles.oracle_ndcg(docs, qrels, cutoff)
    if lowered == "bpref":
        return oracles.oracle_bpref
    raise ValueError(f"no oracle for measure {name!r}")


def arp_problems(workload: Workload, cells: list[dict], repo: Path, rng: random.Random, samples: int = 4) -> list[str]:
    """Recompute the four ARPs of a seeded sample of cells by brute force."""
    oracles = _load_oracles(repo)
    truth = workload.truth
    env_topics = {label: set(topics) for label, topics in truth["env_topics"].items()}
    core = set.intersection(*env_topics.values())
    rankings, judgments = {}, {}
    problems = []
    for cell in rng.sample(cells, min(samples, len(cells))):
        score = _scorer(oracles, cell["measure"])
        for tag, label, field in (
            (cell["system_tag"], cell["pair"]["base"], "arp_base"),
            (cell["system_tag"], cell["pair"]["target"], "arp_target"),
            (cell["pivot_tag"], cell["pair"]["base"], "pivot_arp_base"),
            (cell["pivot_tag"], cell["pair"]["target"], "pivot_arp_target"),
        ):
            if (tag, label) not in rankings:
                rankings[(tag, label)] = _rankings(
                    workload.root / truth["run_paths"][(tag, label)], truth["max_depth"]
                )
            if label not in judgments:
                judgments[label] = _judgments(workload.root / truth["qrels_paths"][label])
            topics = sorted(core if truth["strict"] else env_topics[label])
            values = [
                score(rankings[(tag, label)].get(t, []), judgments[label].get(t, {})) for t in topics
            ]
            expected = math.fsum(values) / len(values)
            reported = cell[field]
            if reported["n_topics"] != len(topics) or abs(reported["value"] - expected) > 1e-12:
                problems.append(
                    f"cells.json: {tag}/{cell['measure']}/{label} {field} is "
                    f"{reported['value']} over {reported['n_topics']} topics, "
                    f"brute force gives {expected} over {len(topics)}"
                )
    return problems
