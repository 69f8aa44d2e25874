from __future__ import annotations

import csv
import gc
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from persisteval import cli, report
from persisteval.cli import EXIT_DATA, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

from oracles import oracle_diff_urls

FIXTURE = Path(__file__).parent / "fixtures" / "two_ee"
GOLDEN_CELLS = Path(__file__).parent / "golden" / "two_ee" / "cells.json"
GOLDEN_NO_STRICT_PIVOT_DELTA = Path(__file__).parent / "golden" / "two_ee_no_strict_pivot_delta"


def run_cli(*argv):
    return main([str(a) for a in argv])


def tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def no_scoring(monkeypatch):
    """Fail the test if persist scores anything."""

    def fail(*args, **kwargs):
        raise AssertionError("scored before the usage check")

    monkeypatch.setattr(cli, "score_run", fail)


def copy_job(tmp_path: Path, edit) -> Path:
    """Copy the two_ee fixture, apply ``edit`` to its parsed job manifest
    and return the copied manifest's path."""
    root = tmp_path / "job"
    shutil.copytree(FIXTURE, root)
    job = root / "job.json"
    config = json.loads(job.read_text(encoding="utf-8"))
    edit(config)
    job.write_text(json.dumps(config), encoding="utf-8")
    return job


def add_tags(*tags):
    def edit(config):
        for tag in tags:
            for ee in ("t1", "t2"):
                config["runs"].append(
                    {"tag": tag, "environment": ee, "path": f"runs/alpha.{ee}.run"}
                )

    return edit


def split_labels(config):
    """Environments a-b, c, a and b-c, with pairs a-b -> c and a -> b-c:
    both pairs join to the file name part a-b-c."""
    qrels = config["environments"][0]["qrels"]
    labels = ("a-b", "c", "a", "b-c")
    config["environments"] = [{"label": label, "qrels": qrels} for label in labels]
    config["runs"] = [
        {"tag": tag, "environment": label, "path": f"runs/{tag}.t1.run"}
        for tag in ("baseline", "alpha")
        for label in labels
    ]
    config["pairs"] = [["a-b", "c"], ["a", "b-c"]]


class TestScoreCommand:
    def test_writes_scores_and_arp(self, tmp_path, capsys):
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10,ndcg", "--output", tmp_path,
        )
        assert code == EXIT_OK
        scores = (tmp_path / "alpha.p_at_10.scores.txt").read_text()
        lines = scores.splitlines()
        assert lines[-1].startswith("all P@10 ")
        assert len(lines) == 11 + 1  # q01..q11 plus the mean row
        payload = json.loads((tmp_path / "alpha.arp.json").read_text())
        assert set(payload["measures"]) == {"P@10", "nDCG"}
        out = capsys.readouterr().out
        assert "alpha P@10 arp" in out

    def test_topic_restriction(self, tmp_path):
        topics = tmp_path / "topics.txt"
        topics.write_text("q01\nq02\n", encoding="utf-8")
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "bpref", "--topics", topics, "--output", tmp_path / "out",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "alpha.bpref.scores.txt").read_text().splitlines()
        assert len(lines) == 3

    def test_missing_file_exits_2_with_path(self, tmp_path, capsys):
        code = run_cli(
            "score", tmp_path / "nope.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10", "--output", tmp_path,
        )
        assert code == EXIT_PARSE
        assert "nope.run" in capsys.readouterr().err

    def test_unknown_measure_exits_1(self, tmp_path):
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "map", "--output", tmp_path,
        )
        assert code == EXIT_USAGE

    def test_repeated_measure_exits_1_before_scoring(self, tmp_path, no_scoring, capsys):
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10,P@10", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert "measure P@10 is declared twice" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_malformed_run_exits_2(self, tmp_path):
        bad = tmp_path / "bad.run"
        bad.write_text("q1 Q0 d1 one 1.0 A\n", encoding="utf-8")
        code = run_cli(
            "score", bad, FIXTURE / "qrels.t1.txt", "--measures", "p@10", "--output", tmp_path
        )
        assert code == EXIT_PARSE

    def test_non_utf8_run_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.run"
        bad.write_bytes(b"q1 Q0 d\xff1 1 1.0 tag\n")
        code = run_cli(
            "score", bad, FIXTURE / "qrels.t1.txt", "--measures", "p@10", "--output", tmp_path
        )
        assert code == EXIT_PARSE
        assert f"{bad}:1:" in capsys.readouterr().err

    def test_non_integer_grade_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "qrels.txt"
        bad.write_text("q01 0 d001 1\nq01 0 d002 high\n", encoding="utf-8")
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", bad,
            "--measures", "p@10", "--output", tmp_path,
        )
        assert code == EXIT_PARSE
        assert f"{bad}:2:" in capsys.readouterr().err

    def test_empty_topic_list_exits_3(self, tmp_path):
        empty = tmp_path / "topics.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10", "--topics", empty, "--output", tmp_path,
        )
        assert code == EXIT_DATA

    def test_written_scores_match_brute_force_oracle(self, tmp_path):
        from oracles import oracle_p_at_k
        from persisteval.run_io import load_qrels, load_run

        topics_file = tmp_path / "topics.txt"
        topics_file.write_text("q01\nq02\nq03\n", encoding="utf-8")
        code = run_cli(
            "score", FIXTURE / "runs" / "beta.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10", "--topics", topics_file, "--output", tmp_path / "out",
        )
        assert code == EXIT_OK
        run = load_run(FIXTURE / "runs" / "beta.t1.run")
        qrels = load_qrels(FIXTURE / "qrels.t1.txt")
        lines = (tmp_path / "out" / "beta.p_at_10.scores.txt").read_text().splitlines()
        per_topic = [line.split() for line in lines[:-1]]
        assert len(per_topic) == 3
        for topic, _, value in per_topic:
            expected = oracle_p_at_k(list(run.docs(topic)), qrels.for_topic(topic), 10)
            assert float(value) == pytest.approx(expected, abs=5e-7)
        mean_value = float(lines[-1].split()[2])
        assert mean_value == pytest.approx(
            sum(float(v) for _, _, v in per_topic) / 3, abs=5e-7
        )


class TestPersistCommand:
    def test_full_pipeline(self, tmp_path):
        code = run_cli("persist", "--config", FIXTURE / "job.json", "--output", tmp_path)
        assert code == EXIT_OK
        names = set(tree(tmp_path))
        assert {"table.txt", "table.csv", "cells.json", "scatter.csv"} <= names
        assert "series/alpha.p_at_10.t1-t2.csv" in names
        payload = json.loads((tmp_path / "cells.json").read_text())
        assert len(payload["cells"]) == 2 * 3  # two systems x three measures
        assert payload["pivot_tag"] == "baseline"
        # Core topics exclude the t1-only q11: every mean is over 10 topics.
        assert all(c["arp_base"]["n_topics"] == 10 for c in payload["cells"])

    def test_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", out1) == EXIT_OK
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", out2) == EXIT_OK
        assert tree(out1) == tree(out2)

    def test_self_replication_pair_produces_ideal_cells(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pairs", "t1:t1", "--output", tmp_path,
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "cells.json").read_text())
        for cell in payload["cells"]:
            assert cell["result_delta"] == 0.0
            assert cell["delta_ri"] == 0.0
            assert cell["effect_ratio"] == 1.0
            assert cell["p_value"] == 1.0

    def test_undeclared_pair_exits_1(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pairs", "t1:t9", "--output", tmp_path,
        )
        assert code == EXIT_USAGE

    def test_unknown_pivot_exits_1(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pivot", "ghost", "--output", tmp_path,
        )
        assert code == EXIT_USAGE

    def test_pivot_missing_in_environment_exits_3(self, tmp_path, capsys):
        config = json.loads((FIXTURE / "job.json").read_text())
        config["runs"] = [
            r for r in config["runs"]
            if not (r["tag"] == "baseline" and r["environment"] == "t2")
        ]
        for run in config["runs"]:
            run["path"] = str(FIXTURE / run["path"])
        config["environments"] = [
            {**e, "qrels": str(FIXTURE / e["qrels"])} for e in config["environments"]
        ]
        config["environments"][0]["topics"] = str(FIXTURE / "topics.t1.txt")
        job = tmp_path / "job.json"
        job.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli("persist", "--config", job, "--output", tmp_path / "out")
        assert code == EXIT_DATA
        assert "pivot" in capsys.readouterr().err

    def test_missing_system_run_exits_3_before_any_input_is_read(
        self, tmp_path, no_scoring, monkeypatch, capsys
    ):
        job = copy_job(
            tmp_path,
            lambda config: config["runs"].remove(
                {"tag": "beta", "environment": "t2", "path": "runs/beta.t2.run"}
            ),
        )

        def fail(*args, **kwargs):
            raise AssertionError("read an input before the run check")

        for name in ("load_qrels", "load_run", "load_topics"):
            monkeypatch.setattr(cli, name, fail)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_DATA
        assert "error: system 'beta' has no run in environment 't2'" in capsys.readouterr().err

    def test_pivot_only_job_exits_1_before_any_input_is_read(
        self, tmp_path, no_scoring, monkeypatch, capsys
    ):
        def pivot_only(config):
            config["runs"] = [
                {"tag": "baseline", "environment": ee, "path": f"missing/baseline.{ee}.run"}
                for ee in ("t1", "t2")
            ]

        def fail(*args, **kwargs):
            raise AssertionError("read an input before the usage check")

        job = copy_job(tmp_path, pivot_only)
        for name in ("load_qrels", "load_run", "load_topics"):
            monkeypatch.setattr(cli, name, fail)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert "error: no system run besides the pivot 'baseline'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_er_exclude_too_large_for_a_float_exits_1(self, tmp_path, no_scoring, capsys):
        job = copy_job(tmp_path, lambda config: config["options"].update(er_exclude="BIG"))
        job.write_text(job.read_text(encoding="utf-8").replace('"BIG"', "1e999"))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert "got inf" in capsys.readouterr().err

    def test_welch_flag_changes_p_values(self, tmp_path):
        out1, out2 = tmp_path / "student", tmp_path / "welch"
        run_cli("persist", "--config", FIXTURE / "job.json", "--output", out1)
        run_cli(
            "persist", "--config", FIXTURE / "job.json", "--t-test", "welch", "--output", out2
        )
        student = json.loads((out1 / "cells.json").read_text())["cells"]
        welch = json.loads((out2 / "cells.json").read_text())["cells"]
        assert any(a["p_value"] != b["p_value"] for a, b in zip(student, welch))

    def test_non_strict_topics_allows_per_environment_bases(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--no-strict-topics", "--output", tmp_path,
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "cells.json").read_text())
        # t1 evaluates its own 11 topics, t2 its shared 10.
        assert all(c["arp_base"]["n_topics"] == 11 for c in payload["cells"])
        assert all(c["arp_target"]["n_topics"] == 10 for c in payload["cells"])

    def test_pivot_delta_series_mode(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--series", "pivot-delta", "--output", tmp_path,
        )
        assert code == EXIT_OK
        raw = tmp_path / "series" / "alpha.ndcg.t1-t2.csv"
        assert raw.exists()

    def test_er_exclude_override(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--er-exclude", "0.01", "--output", tmp_path,
        )
        assert code == EXIT_OK
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        assert all(line.endswith("true") for line in scatter)

    def test_scores_each_vector_once(self, tmp_path, monkeypatch):
        calls = []
        score_run = cli.score_run

        def recording_score_run(run, qrels, measure, topics, ee_label=""):
            calls.append((id(run), id(qrels), measure))
            return score_run(run, qrels, measure, topics, ee_label)

        monkeypatch.setattr(cli, "score_run", recording_score_run)
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--no-strict-topics",
            "--series", "pivot-delta", "--output", tmp_path,
        )
        assert code == EXIT_OK
        # Three runs in each of two environments, three measures: each
        # (run, qrels, measure) once, whatever topics the series share.
        assert len(calls) == len(set(calls)) == 3 * 2 * 3

    def test_no_strict_pivot_delta_matches_golden(self, tmp_path):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--no-strict-topics",
            "--series", "pivot-delta", "--measures", "p@10,ndcg,bpref,ndcg@5",
            "--output", tmp_path,
        )
        assert code == EXIT_OK
        assert tree(tmp_path) == tree(GOLDEN_NO_STRICT_PIVOT_DELTA)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_bad_er_exclude_exits_1(self, tmp_path, threshold):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--er-exclude", threshold, "--output", tmp_path,
        )
        assert code == EXIT_USAGE

    def test_repeated_pair_exits_1_before_scoring(self, tmp_path, no_scoring, capsys):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pairs", "t1:t2,t1:t2", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert "t1-t2" in capsys.readouterr().err

    def test_pairs_sharing_a_target_exit_1_before_scoring(self, tmp_path, no_scoring, capsys):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pairs", "t1:t2,t2:t2", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert "pairs t1-t2 and t2-t2 both target 't2'" in capsys.readouterr().err

    def test_unknown_t_test_exits_1_before_scoring(self, tmp_path, no_scoring, capsys):
        job = copy_job(tmp_path, set_at("options.t_test", "bogus"))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert "unknown t-test variant 'bogus'" in capsys.readouterr().err

    def test_non_strict_job_ignores_the_topics_of_an_unpaired_environment(
        self, tmp_path, capsys
    ):
        def add_t3(config):
            config["options"]["strict_topics"] = False
            config["environments"].append(
                {"label": "t3", "qrels": "qrels.t1.txt", "topics": "topics.t3.txt"}
            )

        job = copy_job(tmp_path, add_t3)
        (job.parent / "topics.t3.txt").write_text("z01\n", encoding="utf-8")
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_OK
        assert "topic intersection is empty" not in capsys.readouterr().err

    def test_pair_without_shared_topics_exits_3_before_scoring(
        self, tmp_path, no_scoring, capsys
    ):
        def disjoint_t2(config):
            config["options"]["strict_topics"] = False
            config["environments"][1]["topics"] = "topics.t2.txt"

        job = copy_job(tmp_path, disjoint_t2)
        (job.parent / "topics.t2.txt").write_text("z01\n", encoding="utf-8")
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_DATA
        assert "no shared topics between 't1' and 't2'" in capsys.readouterr().err

    def test_repeated_measure_exits_1_before_scoring(self, tmp_path, no_scoring, capsys):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--measures", "p@10,P@10", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert "measure P@10 is declared twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda config: config["options"].update(strict_topics="false"),
                "strict_topics must be true or false",
            ),
            (
                lambda config: config.update(pairs=[["t1", "t2", "t3"]]),
                "a pair must be a [base, target] list",
            ),
        ],
        ids=["strict-topics-string", "three-label-pair"],
    )
    def test_wrong_manifest_option_exits_1_before_scoring(
        self, tmp_path, no_scoring, capsys, edit, message
    ):
        job = copy_job(tmp_path, edit)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed manifest {job}" in err and message in err

    @pytest.mark.parametrize(
        "edit, owners",
        [
            (add_tags("a,b", "a_b"), ("system 'a,b'", "system 'a_b'")),
            (split_labels, ("pair 'a-b' -> 'c'", "pair 'a' -> 'b-c'")),
        ],
        ids=["run-tags", "environment-labels"],
    )
    def test_colliding_series_names_exit_1_before_scoring(
        self, tmp_path, no_scoring, capsys, edit, owners
    ):
        job = copy_job(tmp_path, edit)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "would hold both" in err
        assert all(owner in err for owner in owners)

    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_bytes(b'{"pivot": "b\xffase"}')
        assert run_cli("persist", "--config", job, "--output", tmp_path) == EXIT_PARSE
        assert str(job) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest", ["[]", '"job"', '{"options": 1}', '{"options": {"er_exclude": 1%s}}' % ("0" * 400)]
    )
    def test_malformed_manifest_structure_exits_1(self, tmp_path, manifest):
        job = tmp_path / "job.json"
        job.write_text(manifest, encoding="utf-8")
        assert run_cli("persist", "--config", job, "--output", tmp_path) == EXIT_USAGE

    def test_csv_fields_with_commas_read_back(self, tmp_path):
        job_dir = tmp_path / "job"
        shutil.copytree(FIXTURE, job_dir)
        for run_file in job_dir.glob("runs/alpha.*.run"):
            lines = run_file.read_text(encoding="utf-8").splitlines()
            run_file.write_text(
                "".join(line.rsplit(" ", 1)[0] + " a,b\n" for line in lines), encoding="utf-8"
            )
        config = json.loads((job_dir / "job.json").read_text())
        for run in config["runs"]:
            if run["tag"] == "alpha":
                run["tag"] = "a,b"
        (job_dir / "job.json").write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("persist", "--config", job_dir / "job.json", "--output", out) == EXIT_OK

        def read(name):
            with (out / name).open(newline="", encoding="utf-8") as handle:
                return list(csv.reader(handle))

        for name, width in (
            ("table.csv", 9), ("scatter.csv", 7), ("series/a_b.ndcg.t1-t2.csv", 6)
        ):
            rows = read(name)
            assert all(len(row) == width for row in rows)
            assert "a,b" in {row[0] for row in rows}


def set_at(path: str, value):
    """An edit of the parsed manifest that sets the field at ``path``
    (dotted keys; an integer part indexes a list) to ``value``."""

    def edit(config):
        *outer, last = [int(part) if part.isdigit() else part for part in path.split(".")]
        target = config
        for part in outer:
            target = target[part]
        target[last] = value

    return edit


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_strings(value, keys, optional=()) -> bool:
    return (
        isinstance(value, dict)
        and all(isinstance(value.get(key), str) for key in keys)
        and all(isinstance(value.get(key, ""), str) for key in optional)
    )


OPTION_TYPES = {"t_test": str, "strict_topics": bool, "series": str}

# Each manifest field, with whether a value has the field's JSON type.
MANIFEST_FIELDS = {
    "pivot": lambda v: isinstance(v, str),
    "output": lambda v: isinstance(v, str),
    "measures": lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
    "pairs": lambda v: isinstance(v, list)
    and all(isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in v),
    "environments": lambda v: isinstance(v, list)
    and all(is_strings(e, ("label", "qrels"), ("topics",)) for e in v),
    "runs": lambda v: isinstance(v, list)
    and all(is_strings(r, ("tag", "environment", "path")) for r in v),
    "options": lambda v: isinstance(v, dict)
    and all(isinstance(v.get(k, kind()), kind) for k, kind in OPTION_TYPES.items())
    and is_number(v.get("er_exclude", 1)),
    "options.t_test": lambda v: isinstance(v, str),
    "options.er_exclude": is_number,
    "options.strict_topics": lambda v: isinstance(v, bool),
    "options.series": lambda v: isinstance(v, str),
    "environments.0.label": lambda v: isinstance(v, str),
    "environments.0.qrels": lambda v: isinstance(v, str),
    "environments.0.topics": lambda v: isinstance(v, str),
    "runs.0.tag": lambda v: isinstance(v, str),
    "runs.0.environment": lambda v: isinstance(v, str),
    "runs.0.path": lambda v: isinstance(v, str),
}

# NaN and Infinity are not JSON; test_json_the_decoder_refuses_exits_2 covers them.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
# Well-typed values next to arbitrary JSON, so both outcomes are exercised.
typed_values = (
    st.text(max_size=6)
    | st.sampled_from(["baseline", "alpha", "t1", "t2", "p@10", "welch", "pivot-delta"])
    | st.lists(st.sampled_from(["t1", "t2", "ndcg"]), min_size=2, max_size=2)
    | st.lists(st.lists(st.sampled_from(["t1", "t2"]), min_size=2, max_size=2), max_size=2)
    | st.floats(min_value=0.5, max_value=100)
)


class TestTypedManifest:
    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("measures", "p@10", 'measures must be a list, got "p@10"'),
            ("options.er_exclude", "0.01", 'options.er_exclude must be a number, got "0.01"'),
            ("options.er_exclude", True, "options.er_exclude must be a number, got true"),
            ("options.er_exclude", 10**400, "options.er_exclude is out of range"),
            ("runs", "x", 'runs must be a list, got "x"'),
            ("pivot", 5, "pivot must be a string, got 5"),
            ("environments.1.label", 2, "environments[1].label must be a string, got 2"),
            ("runs.0.environment", 1, "runs[0].environment must be a string, got 1"),
            ("environments.0.topics", None, "environments[0].topics must be a string, got null"),
            ("pairs", [["t1", 2]], "pairs[0]: a pair must be a [base, target] list"),
            ("measures", ["p@10", 10], "measures[1] must be a string, got 10"),
            ("options.series", ["raw"], 'options.series must be a string, got ["raw"]'),
            ("output", False, "output must be a string, got false"),
            ("runs.0.path", "runs/\0.run", "holds a NUL character"),
            # A value of the right type that fails a value check.
            ("measures", ["p@0"], "measures[0]: invalid measure name 'p@0'"),
            ("pairs", [["", "t2"]], "pairs[0]: evaluation environment labels must be non-empty"),
        ],
    )
    def test_wrong_type_is_a_named_usage_error(
        self, tmp_path, no_scoring, capsys, path, value, message
    ):
        job = copy_job(tmp_path, set_at(path, value))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed manifest {job}: " in err and message in err

    def test_missing_required_key_is_named(self, tmp_path, no_scoring, capsys):
        job = copy_job(tmp_path, lambda config: config["runs"][2].pop("tag"))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert "runs[2].tag is missing" in capsys.readouterr().err

    def test_integer_number_is_accepted(self, tmp_path):
        job = copy_job(tmp_path, set_at("options.er_exclude", 10))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_OK
        assert tree(tmp_path / "out") == tree(GOLDEN_CELLS.parent)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=30)
    @given(path=st.sampled_from(sorted(MANIFEST_FIELDS)), value=json_values | typed_values)
    def test_fuzzed_field_gives_a_result_or_a_named_error(
        self, tmp_path, no_scoring, capsys, path, value
    ):
        shutil.rmtree(tmp_path / "job", ignore_errors=True)
        job = copy_job(tmp_path, set_at(path, value))
        capsys.readouterr()
        try:
            code = run_cli("persist", "--config", job, "--output", tmp_path / "out")
        except AssertionError as exc:  # no_scoring: the manifest was accepted
            assert "scored before the usage check" in str(exc)
            code = None
        err = capsys.readouterr().err
        if not MANIFEST_FIELDS[path](value):
            assert code == EXIT_USAGE, (path, value)
            assert path.split(".")[0] in err, err
        assert code in (None, EXIT_OK) or (
            code in (EXIT_USAGE, EXIT_PARSE, EXIT_DATA) and err.startswith("error: ")
        )


class TestCorpusDiffCommand:
    def test_manifest_diff(self, capsys):
        code = run_cli("corpus-diff", FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t2.tsv")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "added" in out and "unchanged" in out

    def test_identical_manifests_all_unchanged(self, capsys):
        code = run_cli("corpus-diff", FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t1.tsv")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "added     0" in out and "removed   0" in out and "changed   0" in out

    def test_empty_vs_nonempty_all_added(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code = run_cli("corpus-diff", empty, FIXTURE / "manifest.t1.tsv")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "added     24" in out and "removed   0" in out

    def test_malformed_manifest_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("url-without-length\n", encoding="utf-8")
        assert run_cli("corpus-diff", bad, bad) == EXIT_PARSE

    def test_non_utf8_manifest_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"h\xffx\t12\n")
        assert run_cli("corpus-diff", bad, FIXTURE / "manifest.t1.tsv") == EXIT_PARSE
        assert f"{bad}:1:" in capsys.readouterr().err

    def test_verbose_and_json_output(self, tmp_path, capsys):
        code = run_cli(
            "corpus-diff", FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t2.tsv",
            "--verbose", "--output", tmp_path,
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "corpus_diff.json").read_text())
        assert payload["added"] == len(payload["added_urls"])

    def test_verbose_json_lists_match_the_oracle(self, tmp_path, capsys):
        a, b = FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t2.tsv"
        code = run_cli("corpus-diff", a, b, "--verbose", "--output", tmp_path)
        assert code == EXIT_OK
        rows = [[line.split("\t") for line in p.read_text().splitlines() if line] for p in (a, b)]
        docs = [{url: int(length) for url, length in lines} for lines in rows]
        expected = {"a": a.name, "b": b.name}
        for name, urls in oracle_diff_urls(*docs).items():
            expected.update({name: len(urls), f"{name}_urls": urls})
        assert json.loads((tmp_path / "corpus_diff.json").read_text(encoding="utf-8")) == expected
        out = capsys.readouterr().out.splitlines()
        assert out[5:-1] == [
            f"{name}\t{url}" for name, urls in oracle_diff_urls(*docs).items() for url in urls
        ]
        assert out[-1] == "wrote corpus_diff.json"

    def test_directory_mode(self, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir(), new.mkdir()
        (old / "a.txt").write_text("aaaa", encoding="utf-8")
        (new / "a.txt").write_text("aaaaa", encoding="utf-8")
        (new / "b.txt").write_text("b", encoding="utf-8")
        code = run_cli("corpus-diff", old, new, "--from-dirs")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "added     1" in out and "changed   1" in out


class TestReportCommand:
    def test_rerender_matches_persist_output(self, tmp_path):
        first = tmp_path / "persist"
        second = tmp_path / "report"
        run_cli("persist", "--config", FIXTURE / "job.json", "--output", first)
        code = run_cli("report", first / "cells.json", "--output", second)
        assert code == EXIT_OK
        for name in ("table.txt", "table.csv", "scatter.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_inconsistent_cells_exit_3_with_path(self, tmp_path, capsys):
        run_cli("persist", "--config", FIXTURE / "job.json", "--output", tmp_path / "persist")
        cells = tmp_path / "persist" / "cells.json"
        payload = json.loads(cells.read_text(encoding="utf-8"))
        payload["cells"][0]["pivot_tag"] = "other"
        cells.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", cells, "--output", tmp_path / "report") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {cells}:" in err and "cells mix pivots" in err

    def test_repeated_ee_order_label_exits_3_with_path(self, tmp_path, capsys):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        payload["ee_order"] = ["t1", "t2", "t1"]
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {bad}: malformed table JSON" in err and "ee_order repeats" in err

    def test_malformed_cells_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "cells.json"
        bad.write_text('{"cells": [{"bogus": 1}], "ee_order": []}', encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path) == EXIT_DATA
        assert f"error: {bad}: malformed table JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_bad_er_exclude_exits_1(self, tmp_path, threshold):
        run_cli("persist", "--config", FIXTURE / "job.json", "--output", tmp_path / "persist")
        code = run_cli(
            "report", tmp_path / "persist" / "cells.json",
            "--er-exclude", threshold, "--output", tmp_path / "report",
        )
        assert code == EXIT_USAGE

    def test_non_utf8_cells_exits_2(self, tmp_path):
        bad = tmp_path / "cells.json"
        bad.write_bytes(b'{"cells": "\xff"}')
        assert run_cli("report", bad, "--output", tmp_path) == EXIT_PARSE

    def test_missing_cells_file_exits_2(self, tmp_path):
        assert run_cli("report", tmp_path / "nope.json", "--output", tmp_path) == EXIT_PARSE

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cells.json"
        bad.write_text('{"cells": [],\n not json', encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path) == EXIT_PARSE
        assert f"error: {bad}:2: invalid JSON" in capsys.readouterr().err


    def test_number_too_large_for_a_float_exits_3_naming_the_field(self, tmp_path, capsys):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        payload["cells"][0]["p_value"] = "OVERFLOW"
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload).replace('"OVERFLOW"', "1e999"), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        assert (
            f"error: {bad}: malformed table JSON: cells[0].p_value must be finite, got inf"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrongly_typed_cell_exits_3_naming_the_field(self, tmp_path, capsys):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        payload["cells"][2]["degenerate_t"] = "false"
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        assert (
            f'error: {bad}: malformed table JSON: malformed persistence cell record: '
            'cells[2].degenerate_t must be true or false, got "false"'
        ) in capsys.readouterr().err

    def test_sorts_each_cell_once(self, tmp_path, monkeypatch):
        calls = []
        sort_key = report._cell_sort_key
        monkeypatch.setattr(
            report, "_cell_sort_key", lambda cell: calls.append(1) or sort_key(cell)
        )
        assert run_cli("report", GOLDEN_CELLS, "--output", tmp_path) == EXIT_OK
        assert len(calls) == len(json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))["cells"])
        golden_scatter = GOLDEN_CELLS.parent / "scatter.csv"
        assert (tmp_path / "scatter.csv").read_bytes() == golden_scatter.read_bytes()

    @pytest.mark.parametrize(
        "command", [["report"], ["persist", "--config"]], ids=["report", "persist"]
    )
    @pytest.mark.parametrize(
        "text",
        [
            '{"cells": 1%s}' % ("0" * 5000),
            "[" * 100_000 + "]" * 100_000,
            '{"p_value": NaN}',
            "[Infinity]",
            '{"er_exclude": -Infinity}',
        ],
        ids=["int-over-4300-digits", "nested-100000-deep", "nan", "infinity", "minus-infinity"],
    )
    def test_json_the_decoder_refuses_exits_2(self, tmp_path, capsys, command, text):
        bad = tmp_path / "input.json"
        bad.write_text(text, encoding="utf-8")
        assert run_cli(*command, bad, "--output", tmp_path / "out") == EXIT_PARSE
        assert f"error: {bad}: invalid JSON" in capsys.readouterr().err


class TestCycleCollectorState:
    """main pauses the cycle collector while a command runs and restores
    the state it found on every exit path."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--er-exclude", "10"], EXIT_OK),
            (["--er-exclude", "0"], EXIT_USAGE),
            (["--missing"], EXIT_PARSE),
            (["--malformed"], EXIT_DATA),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3"],
    )
    def test_state_restored(self, tmp_path, monkeypatch, enabled, argv, code):
        cells = GOLDEN_CELLS
        if argv == ["--missing"]:
            cells, argv = tmp_path / "missing.json", []
        elif argv == ["--malformed"]:
            cells, argv = tmp_path / "cells.json", []
            cells.write_text('{"cells": [{}], "ee_order": []}', encoding="utf-8")
        during = []
        read_input = cli.read_input
        monkeypatch.setattr(cli, "read_input", lambda path: during.append(gc.isenabled()) or read_input(path))
        (gc.enable if enabled else gc.disable)()
        assert run_cli("report", cells, *argv, "--output", tmp_path / "out") == code
        assert gc.isenabled() is enabled
        assert during == [False]

    def test_state_restored_after_an_unexpected_exception(self, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_report", boom)
        gc.enable()
        with pytest.raises(RuntimeError):
            run_cli("report", GOLDEN_CELLS)
        assert gc.isenabled()


def copy_fixture_with_edit(tmp_path: Path, name: str, edit) -> tuple[Path, Path]:
    """Copy the two_ee fixture and rewrite its file ``name`` as ``edit`` of
    that file's lines; return the copied job manifest and the edited file."""
    root = tmp_path / "two_ee"
    shutil.copytree(FIXTURE, root)
    path = root / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return root / "job.json", path


class TestDataErrorsNamePathAndLine:
    """A data mismatch inside one input file names that file and line."""

    @pytest.mark.parametrize(
        "name, edit, line, message",
        [
            ("runs/alpha.t1.run", lambda ls: ls + ls[:1], 133, "duplicate document 'd006'"),
            (
                "runs/alpha.t1.run",
                lambda ls: ls + ["q01 Q0 d999 133 0.1 other"],
                133,
                "conflicting run tags 'alpha' and 'other'",
            ),
            (
                "runs/alpha.t1.run",
                lambda ls: [line.replace(" alpha", " other") for line in ls],
                1,
                "run tag 'other' does not match expected tag 'alpha'",
            ),
            ("qrels.t1.txt", lambda ls: ls + ["q01 0 d999 3"], 78, "grade 3 out of range"),
            ("qrels.t1.txt", lambda ls: ls + ["q01 0 d006 2"], 78, "conflicting grades"),
        ],
        ids=["duplicate-doc", "conflicting-tags", "expected-tag", "grade-range", "conflicting-grades"],
    )
    def test_persist_exits_3(self, tmp_path, capsys, name, edit, line, message):
        job, path = copy_fixture_with_edit(tmp_path, name, edit)
        code = run_cli("persist", "--config", job, "--output", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"error: {path}:{line}: " in err and message in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("https://example.test/page001\t5", "duplicate url"),
            ("https://example.test/new\t-1", "negative length -1"),
        ],
        ids=["duplicate-url", "negative-length"],
    )
    def test_corpus_diff_exits_3(self, tmp_path, capsys, row, message):
        _, path = copy_fixture_with_edit(tmp_path, "manifest.t1.tsv", lambda ls: ls + [row])
        code = run_cli("corpus-diff", path, FIXTURE / "manifest.t2.tsv")
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"error: {path}:25: " in err and message in err


class TestOutputThatIsAFile:
    """Every writing command turns an --output it cannot write under into a
    usage error (exit 1), not a traceback."""

    COMMANDS = {
        "score": ["score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
                  "--measures", "p@10"],
        "persist": ["persist", "--config", FIXTURE / "job.json"],
        "report": ["report", GOLDEN_CELLS],
        "corpus-diff": ["corpus-diff", FIXTURE / "manifest.t1.tsv", FIXTURE / "manifest.t2.tsv"],
    }

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_1_naming_the_path(self, tmp_path, capsys, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        output = blocker / "x" if under else blocker
        assert run_cli(*self.COMMANDS[command], "--output", output) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {output}{os.sep}")
        assert "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_output_env_var_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERSISTEVAL_OUTPUT", str(tmp_path / "env_out"))
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10",
        )
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "alpha.p_at_10.scores.txt").exists()
