"""Seeded inputs for the four benchmark workloads.

Each workload is shaped so that one module of persisteval does most of the
work (see README.md in this directory for the reasons):

- ``deep``: ``persist`` over long rankings; parsing runs dominates (run_io).
- ``wide``: ``persist`` over many short runs, seven measures and fan pairs
  with topic drift; scoring dominates (measures).
- ``rerender``: ``report`` on a synthesized ``cells.json``; decoding and
  rendering dominate (persistence, report).
- ``corpus-diff``: ``corpus-diff --verbose`` on two large manifests
  (corpus_diff).

The same (workload, seed, scale) always gives the same bytes. Generation
draws only from a ``random.Random`` seeded with the workload name and seed,
and writes files in a fixed order. Each
generator also returns what it knows about its inputs (the ``truth``), so
that the checks can judge the program's outputs without trusting it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("deep", "wide", "rerender", "corpus-diff")

# Digests in digests.json are pinned for this seed at the "full" scale.
DEFAULT_SEED = 1

OUTPUT = "{output}"  # placeholder in a workload's argv for the output directory

SCALES = {
    "full": {
        "deep": dict(systems=4, snapshots=3, topics=25, depth=1000, judged=100, pool=1500, over_depth=3),
        "wide": dict(systems=12, snapshots=4, topics=15, drift=1, depth=50, judged=200, pool=400),
        "rerender": dict(systems=600),
        "corpus-diff": dict(urls=100_000),
    },
    "tiny": {
        "deep": dict(systems=2, snapshots=3, topics=4, depth=1000, judged=20, pool=1100, over_depth=1),
        "wide": dict(systems=3, snapshots=4, topics=10, drift=1, depth=20, judged=30, pool=60),
        "rerender": dict(systems=12),
        "corpus-diff": dict(urls=2_000),
    },
}

WIDE_MEASURES = ("p@5", "p@10", "p@20", "ndcg", "ndcg@10", "ndcg@20", "bpref")
PIVOT = "pivot"


@dataclass
class Workload:
    """Generated inputs of one workload plus what the checks need."""

    name: str
    kind: str  # the CLI command: "persist", "report" or "corpus-diff"
    root: Path  # directory holding the inputs
    argv: list[str]  # CLI arguments; OUTPUT marks the output directory
    sizes: dict[str, int]  # input size record
    expected: list[str]  # output files (relative to the output directory) to check
    truth: dict = field(default_factory=dict)

    def command(self, output: Path) -> list[str]:
        return [str(output) if arg == OUTPUT else arg for arg in self.argv]


def generate(name: str, seed: int, root: Path, scale: str = "full") -> Workload:
    """Write the inputs of workload ``name`` under ``root`` (created)."""
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    params = SCALES[scale][name]
    if name == "deep":
        return _deep(root, rng, **params)
    if name == "wide":
        return _wide(root, rng, **params)
    if name == "rerender":
        return _rerender(root, rng, **params)
    if name == "corpus-diff":
        return _corpus_diff(root, rng, **params)
    raise ValueError(f"unknown workload {name!r}")


def _write(path: Path, lines: list[str]) -> tuple[int, int]:
    data = "".join(lines).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return len(lines), len(data)


def _qrels(rng: random.Random, topics: list[str], pool: list[str], judged: int) -> dict[str, dict[str, int]]:
    """topic -> doc -> grade; every topic has a relevant and a non-relevant
    judgment, so no measure is undefined for lack of either."""
    out = {}
    for topic in topics:
        docs = rng.sample(pool, judged)
        grades = {docs[0]: rng.choice((1, 2)), docs[1]: 0}
        for doc in docs[2:]:
            grades[doc] = rng.choices((0, 1, 2), weights=(5, 3, 1))[0]
        out[topic] = grades
    return out


def _run_lines(
    rng: random.Random,
    tag: str,
    bonus: float,
    qrels: dict[str, dict[str, int]],
    topics: list[str],
    pool: list[str],
    depths: dict[str, int],
) -> list[str]:
    """Run lines in rank order. Scores have 4 decimals, so some tie and the
    program's doc-id tie-break decides their order; judged relevant
    documents get a bonus so that systems differ from the pivot."""
    lines = []
    for topic in topics:
        grades = qrels[topic]
        scored = []
        for doc in rng.sample(pool, depths[topic]):
            scored.append((float(f"{rng.random() * 10 + bonus * grades.get(doc, 0):.4f}"), doc))
        scored.sort(key=lambda item: (-item[0], item[1]))
        lines.extend(
            f"{topic} Q0 {doc} {rank} {score:.4f} {tag}\n"
            for rank, (score, doc) in enumerate(scored, start=1)
        )
    return lines


def _persist_job(
    root: Path,
    rng: random.Random,
    *,
    name: str,
    systems: int,
    env_topics: dict[str, list[str]],
    depth: int,
    judged: int,
    pool: int,
    over_depth: int,
    measures: tuple[str, ...],
    pairs: list[tuple[str, str]],
    extra_args: list[str],
    strict: bool,
) -> Workload:
    tags = [PIVOT] + [f"sys{i:02d}" for i in range(1, systems + 1)]
    bonuses = {PIVOT: 1.0, **{tag: 0.5 + 2.5 * i / systems for i, tag in enumerate(tags[1:], 1)}}
    doc_pool = [f"doc{i:05d}" for i in range(pool)]
    sizes = {"run_lines": 0, "qrels_lines": 0, "bytes": 0, "files": 0}
    manifest = {"environments": [], "runs": [], "pivot": PIVOT, "measures": list(measures),
                "pairs": [list(p) for p in pairs], "options": {"t_test": "student"}}
    run_paths, qrels_paths = {}, {}
    for label, topics in env_topics.items():
        grades = _qrels(rng, topics, doc_pool, judged)
        qrels_lines = [
            f"{topic} 0 {doc} {grade}\n"
            for topic in topics
            for doc, grade in sorted(grades[topic].items())
        ]
        rel = f"qrels.{label}.txt"
        lines, size = _write(root / rel, qrels_lines)
        sizes["qrels_lines"] += lines
        sizes["bytes"] += size
        sizes["files"] += 1
        qrels_paths[label] = rel
        manifest["environments"].append({"label": label, "qrels": rel})
        for tag in tags:
            deeper = set(rng.sample(topics, over_depth)) if over_depth else set()
            depths = {t: depth + 50 if t in deeper else depth for t in topics}
            rel = f"runs/{tag}.{label}.run"
            lines, size = _write(
                root / rel, _run_lines(rng, tag, bonuses[tag], grades, topics, doc_pool, depths)
            )
            sizes["run_lines"] += lines
            sizes["bytes"] += size
            sizes["files"] += 1
            run_paths[(tag, label)] = rel
            manifest["runs"].append({"tag": tag, "environment": label, "path": rel})
    (root / "job.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    expected = ["table.txt", "table.csv", "cells.json", "scatter.csv"]
    for tag in tags[1:]:
        for measure in measures:
            key = _measure_key(measure)
            for base, target in pairs:
                expected.append(f"series/{tag}.{key}.{base}-{target}.csv")
    return Workload(
        name=name,
        kind="persist",
        root=root,
        argv=["persist", "--config", str(root / "job.json"), *extra_args, "--output", OUTPUT],
        sizes=sizes,
        expected=expected,
        truth={
            "env_topics": {label: sorted(t) for label, t in env_topics.items()},
            "strict": strict,
            "run_paths": run_paths,
            "qrels_paths": qrels_paths,
            "max_depth": 1000,
        },
    )


def _measure_key(measure: str) -> str:
    return measure.replace("@", "_at_")


def _deep(root, rng, *, systems, snapshots, topics, depth, judged, pool, over_depth) -> Workload:
    ids = [f"{301 + i}" for i in range(topics)]
    labels = [f"t{i}" for i in range(1, snapshots + 1)]
    return _persist_job(
        root, rng, name="deep", systems=systems, env_topics={label: ids for label in labels},
        depth=depth, judged=judged, pool=pool, over_depth=over_depth, measures=("p@10",),
        pairs=[(labels[0], label) for label in labels[1:]], extra_args=[], strict=True,
    )


def _wide(root, rng, *, systems, snapshots, topics, drift, depth, judged, pool) -> Workload:
    base = [f"{401 + i}" for i in range(topics)]
    labels = [f"t{i}" for i in range(1, snapshots + 1)]
    env_topics = {labels[0]: base}
    for k, label in enumerate(labels[1:], start=1):
        # A fixed number of topics leaves and joins in every snapshot, so
        # every topic set differs and call counts do not depend on the seed.
        kept = sorted(set(base) - set(rng.sample(base, drift)))
        env_topics[label] = kept + [f"{k}{j:03d}" for j in range(drift)]
    return _persist_job(
        root, rng, name="wide", systems=systems, env_topics=env_topics, depth=depth,
        judged=judged, pool=pool, over_depth=0, measures=WIDE_MEASURES,
        pairs=[(labels[0], label) for label in labels[1:]],
        extra_args=["--no-strict-topics", "--series", "pivot-delta"], strict=False,
    )


RERENDER_MEASURES = ("P@5", "P@10", "P@20", "nDCG", "nDCG@10", "nDCG@20", "bpref")
RERENDER_LABELS = ("t1", "t2", "t3", "t4")


def _rerender(root, rng, *, systems) -> Workload:
    """A cells.json of systems x 7 measures x 3 pairs, written directly from
    the seed (never by the program under test). A few cells have undefined
    ER or DRI, a non-finite t statistic, or |ER| above the default scatter
    exclusion threshold of 10."""
    pivot_arp = {(m, e): rng.uniform(0.2, 0.5) for m in RERENDER_MEASURES for e in RERENDER_LABELS}
    cells = []
    for s in range(1, systems + 1):
        tag = f"sys{s:04d}"
        for measure in RERENDER_MEASURES:
            arp_base = rng.uniform(0.1, 0.6)
            for target in RERENDER_LABELS[1:]:
                cells.append(_synth_cell(rng, tag, measure, "t1", target, arp_base, pivot_arp))
    payload = {
        "pivot_tag": PIVOT,
        "ee_order": list(RERENDER_LABELS),
        "measures": list(RERENDER_MEASURES),
        "cells": cells,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (root / "cells.json").write_text(text, encoding="utf-8")
    scatter = ["system,measure,base_ee,target_ee,effect_ratio,delta_ri,excluded\n"]
    for cell in sorted(cells, key=lambda c: (c["system_tag"], c["measure"], c["pair"]["base"], c["pair"]["target"])):
        er, dri = cell["effect_ratio"], cell["delta_ri"]
        excluded = er is None or dri is None or abs(er) > 10.0
        scatter.append(
            f"{cell['system_tag']},{cell['measure']},{cell['pair']['base']},{cell['pair']['target']},"
            f"{'' if er is None else repr(er)},{'' if dri is None else repr(dri)},{str(excluded).lower()}\n"
        )
    table_csv, table_tokens = _rerender_table(cells, pivot_arp)
    return Workload(
        name="rerender",
        kind="report",
        root=root,
        argv=["report", str(root / "cells.json"), "--output", OUTPUT],
        sizes={"cells": len(cells), "bytes": len(text.encode("utf-8")), "files": 1},
        expected=["table.txt", "table.csv", "scatter.csv"],
        truth={"scatter": "".join(scatter), "table_csv": table_csv, "table_tokens": table_tokens},
    )


TABLE_COLUMNS = ("ARP", "RD", "DRI", "ER", "p")


def _csv(value: float | None) -> str:
    return "" if value is None else repr(value)


def _fmt3(value: float | None, missing: str, star: bool = False) -> str:
    if value is None:
        return missing
    if value == 0:  # print -0.0 as 0.000
        value = 0.0
    return f"{value:.3f}" + ("*" if star else "")


def _rerender_table(cells: list[dict], pivot_arp: dict) -> tuple[str, list[list[str]]]:
    """The persistence table of the synthesized cells, as the generator
    defines it: the exact ``table.csv`` and, for ``table.txt``, the
    whitespace-separated fields of every line (the column alignment is left
    to the pinned digest).

    The pivot has one row per snapshot with its ARP and its result delta
    from t1. A system's t1 row holds the base ARP and the ideal values RD=0,
    DRI=0, ER=1, p=1; its target rows hold the values of the cell for that
    target. An ARP is starred when its p against the pivot is below 0.05.
    Measures are in name order, systems in tag order."""
    measures = sorted(RERENDER_MEASURES)
    base = RERENDER_LABELS[0]
    by_key = {(c["system_tag"], c["measure"], c["pair"]["target"]): c for c in cells}
    rows = []  # (system, snapshot, measure, arp, rd, dri, er, p, significant, undefined)
    for ee in RERENDER_LABELS:
        for m in measures:
            piv_base, piv = pivot_arp[(m, base)], pivot_arp[(m, ee)]
            rd = 0.0 if ee == base else (piv_base - piv) / piv_base
            rows.append((PIVOT, ee, m, piv, rd, None, None, None, None, "-"))
    for tag in sorted({c["system_tag"] for c in cells}):
        for ee in RERENDER_LABELS:
            for m in measures:
                if ee == base:
                    cell = by_key[(tag, m, RERENDER_LABELS[1])]
                    rows.append((tag, ee, m, cell["arp_base"]["value"], 0.0, 0.0, 1.0, 1.0,
                                 cell["p_vs_pivot_base"] < 0.05, "undef"))
                else:
                    cell = by_key[(tag, m, ee)]
                    rows.append((tag, ee, m, cell["arp_target"]["value"], cell["result_delta"],
                                 cell["delta_ri"], cell["effect_ratio"], cell["p_value"],
                                 cell["p_vs_pivot_target"] < 0.05, "undef"))
    csv = ["system,ee,measure,arp,result_delta,delta_ri,effect_ratio,p_value,significant\n"]
    tokens = [["pivot:", PIVOT], measures, ["system", "EE", *TABLE_COLUMNS * len(measures)]]
    for tag, ee, m, arp, rd, dri, er, p, significant, missing in rows:
        flag = "" if significant is None else str(significant).lower()
        csv.append(f"{tag},{ee},{m},{_csv(arp)},{_csv(rd)},{_csv(dri)},{_csv(er)},{_csv(p)},{flag}\n")
        if m == measures[0]:
            tokens.append([tag, ee])
        # RD, DRI and ER print "undef" when a system's value is undefined;
        # fields the pivot row does not have, and a missing p, print "-".
        tokens[-1] += [
            _fmt3(arp, "-", star=bool(significant)),
            *(_fmt3(value, missing) for value in (rd, dri, er)),
            _fmt3(p, "-"),
        ]
    return "".join(csv), tokens


def _synth_cell(rng, tag, measure, base, target, arp_base, pivot_arp) -> dict:
    arp_target = rng.uniform(0.1, 0.6)
    piv_base, piv_target = pivot_arp[(measure, base)], pivot_arp[(measure, target)]
    ri_base = (arp_base - piv_base) / piv_base
    ri_target = (arp_target - piv_target) / piv_target
    flags = []
    delta_ri = ri_base - ri_target
    effect_ratio = rng.uniform(-1.5, 2.5)
    t_stat = rng.uniform(-4.0, 4.0)
    roll = rng.random()
    if roll < 0.01:
        effect_ratio = None
        flags.append("effect_ratio: mean base delta is zero")
    elif roll < 0.02:
        ri_target = delta_ri = None
        flags.append("ri_target: pivot mean is zero in the target environment")
    elif roll < 0.03:
        t_stat = None
        flags.append("t_statistic: non-finite (degenerate variance)")
    elif roll < 0.05:
        effect_ratio = rng.choice((-1, 1)) * rng.uniform(10.5, 60.0)
    return {
        "system_tag": tag,
        "pivot_tag": PIVOT,
        "measure": measure,
        "pair": {"base": base, "target": target},
        "arp_base": {"value": arp_base, "n_topics": 100},
        "arp_target": {"value": arp_target, "n_topics": 100},
        "pivot_arp_base": {"value": piv_base, "n_topics": 100},
        "pivot_arp_target": {"value": piv_target, "n_topics": 100},
        "result_delta": (arp_base - arp_target) / arp_base,
        "ri_base": ri_base,
        "ri_target": ri_target,
        "delta_ri": delta_ri,
        "effect_ratio": effect_ratio,
        "t_statistic": t_stat,
        "p_value": 0.0 if t_stat is None else rng.random(),
        "p_vs_pivot_base": rng.random(),
        "p_vs_pivot_target": rng.random(),
        "degenerate_t": t_stat is None,
        "undefined_flags": flags,
    }


def _corpus_diff(root, rng, *, urls) -> Workload:
    """Two url<TAB>length manifests over ``urls`` distinct URLs: about 10%
    only in the old one, 12% only in the new one, 20% in both with a new
    length and the rest unchanged."""
    ids = rng.sample(range(16**8), urls)
    names = [f"https://s{i % 997:03d}.example.org/doc/{i:08x}" for i in ids]
    n_removed, n_added, n_changed = urls // 10, urls * 12 // 100, urls // 5
    removed = names[:n_removed]
    added = names[n_removed:n_removed + n_added]
    changed = names[n_removed + n_added:n_removed + n_added + n_changed]
    unchanged = names[n_removed + n_added + n_changed:]
    old, new = {}, {}
    for url in removed + changed + unchanged:
        old[url] = rng.randrange(5_000, 200_000)
    for url in changed:
        new[url] = old[url] + rng.choice((-1, 1)) * rng.randrange(1, 5_000)
    for url in unchanged:
        new[url] = old[url]
    for url in added:
        new[url] = rng.randrange(5_000, 200_000)
    sizes = {"urls": len(old) + len(new), "bytes": 0, "files": 2}
    for file_name, docs in (("a.tsv", old), ("b.tsv", new)):
        order = list(docs)
        rng.shuffle(order)
        _, size = _write(root / file_name, [f"{url}\t{docs[url]}\n" for url in order])
        sizes["bytes"] += size
    classes = {
        "added": sorted(added),
        "removed": sorted(removed),
        "changed": sorted(changed),
        "unchanged": sorted(unchanged),
    }
    summary = {"a": "a.tsv", "b": "b.tsv"}
    for name, members in classes.items():
        summary[name] = len(members)
        summary[f"{name}_urls"] = members
    listing = [
        "comparing a.tsv -> b.tsv\n",
        *(f"{name:<9} {len(members)}\n" for name, members in classes.items()),
        *(f"{name}\t{url}\n" for name, members in classes.items() for url in members),
    ]
    return Workload(
        name="corpus-diff",
        kind="corpus-diff",
        root=root,
        argv=["corpus-diff", str(root / "a.tsv"), str(root / "b.tsv"), "--verbose", "--output", OUTPUT],
        sizes=sizes,
        expected=["corpus_diff.json"],
        truth={"summary": summary, "stdout_prefix": "".join(listing)},
    )
