from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import random
import shutil
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from persisteval import cli, measures, report, run_io
from persisteval.cli import EXIT_DATA, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

from oracles import oracle_diff_urls

FIXTURE = Path(__file__).parent / "fixtures" / "two_ee"
GOLDEN_CELLS = Path(__file__).parent / "golden" / "two_ee" / "cells.json"
GOLDEN_NO_STRICT_PIVOT_DELTA = Path(__file__).parent / "golden" / "two_ee_no_strict_pivot_delta"
GOLDEN_SCORE = Path(__file__).parent / "golden" / "score_alpha_t1"


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

    monkeypatch.setattr(measures, "score_run", fail)


@pytest.fixture
def no_reading(monkeypatch, no_scoring):
    """Fail the test if persist reads a run, qrels or topics file."""

    def fail(*args, **kwargs):
        raise AssertionError("read an input before the check")

    for name in ("load_qrels", "load_run", "load_topics"):
        monkeypatch.setattr(run_io, name, fail)


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

    def test_files_and_stdout_match_golden(self, tmp_path, capsys):
        """Five measures of alpha on t1: the 11 files under ``out`` and the
        command's stdout, byte for byte."""
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@10,ndcg,ndcg@5,bpref,p@5000", "--output", tmp_path / "out",
        )
        assert code == EXIT_OK
        (tmp_path / "stdout.txt").write_text(capsys.readouterr().out, encoding="utf-8")
        assert tree(tmp_path) == tree(GOLDEN_SCORE)

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

    def test_measure_outside_the_name_grammar_exits_1(self, tmp_path, no_scoring, capsys):
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@1_0", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --measures[0]: invalid measure name 'p@1_0'\n"
        assert not any(tmp_path.iterdir())

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
            expected = oracle_p_at_k(list(run.rankings.get(topic, ())), qrels.for_topic(topic).grades, 10)
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

    def test_score_and_persist_share_the_topic_rule(self, tmp_path):
        """Without a topics file, score and persist both take every topic the
        qrels and runs hold: q2 is judged only, q3 is retrieved only."""
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\nq2 0 d1 1\n", encoding="utf-8")
        for tag, doc in (("S", "d1"), ("P", "d2")):
            text = "".join(f"{topic} Q0 {doc} 1 2.0 {tag}\n" for topic in ("q1", "q3"))
            (tmp_path / f"{tag}.run").write_text(text, encoding="utf-8")
        job = {
            "environments": [{"label": label, "qrels": "qrels.txt"} for label in "ab"],
            "runs": [
                {"tag": tag, "environment": label, "path": f"{tag}.run"}
                for tag, label in product("SP", "ab")
            ],
            "pivot": "P",
            "measures": ["p@10"],
            "pairs": [["a", "b"]],
        }
        (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
        out = tmp_path / "out"
        score = ["score", tmp_path / "S.run", tmp_path / "qrels.txt", "--measures", "p@10"]
        assert run_cli(*score, "--output", out) == EXIT_OK
        persist = ["persist", "--config", tmp_path / "job.json", "--no-strict-topics"]
        assert run_cli(*persist, "--output", out) == EXIT_OK
        lines = (out / "S.p_at_10.scores.txt").read_text(encoding="utf-8").splitlines()
        topics = [line.split()[0] for line in lines[:-1]]
        (cell,) = json.loads((out / "cells.json").read_text(encoding="utf-8"))["cells"]
        assert topics == ["q1", "q2", "q3"]
        assert cell["arp_base"]["n_topics"] == len(topics)

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
        self, tmp_path, no_reading, capsys
    ):
        job = copy_job(
            tmp_path,
            lambda config: config["runs"].remove(
                {"tag": "beta", "environment": "t2", "path": "runs/beta.t2.run"}
            ),
        )
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_DATA
        assert "error: system 'beta' has no run in environment 't2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (set_at("environments.1.label", "t1"), "duplicate environment labels in manifest"),
            (
                set_at("runs.0.environment", "t9"),
                "run 'baseline' references undeclared environment 't9'",
            ),
            (
                lambda config: config["runs"].append(dict(config["runs"][1])),
                "run tag 'alpha' declared twice for environment 't1'",
            ),
        ],
    )
    def test_inconsistent_declaration_exits_1_before_any_input_is_read(
        self, tmp_path, no_reading, capsys, edit, message
    ):
        job = copy_job(tmp_path, edit)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_pivot_only_job_exits_1_before_any_input_is_read(
        self, tmp_path, no_reading, capsys
    ):
        def pivot_only(config):
            config["runs"] = [
                {"tag": "baseline", "environment": ee, "path": f"missing/baseline.{ee}.run"}
                for ee in ("t1", "t2")
            ]

        job = copy_job(tmp_path, pivot_only)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        assert "error: no system run besides the pivot 'baseline'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_er_exclude_too_large_for_a_float_exits_1(self, tmp_path, no_reading, capsys):
        job = copy_job(tmp_path, lambda config: config["options"].update(er_exclude="BIG"))
        job.write_text(job.read_text(encoding="utf-8").replace('"BIG"', "1e999"))
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "got inf" in err
        assert err.startswith(f"error: malformed manifest {job}: options.er_exclude: ")

    @pytest.mark.parametrize("source", ["manifest", "flag"])
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("er_exclude", 0, "the |ER| threshold must be positive and finite, got 0.0"),
            ("t_test", "bogus", "unknown t-test variant 'bogus'; expected one of"),
            ("series", "sideways", "unknown series mode 'sideways'; expected one of"),
            ("measures", "p@0", "invalid measure name 'p@0'"),
            ("measures", "p@1_0", "invalid measure name 'p@1_0'"),
            ("pairs", "t1", 'a pair must be a [base, target] list of two strings, got ["t1"]'),
        ],
    )
    def test_bad_option_value_exits_1_naming_its_source(
        self, tmp_path, no_reading, capsys, source, option, value, message
    ):
        """A bad value names the manifest field or the flag it came from,
        and no run, qrels or topics file is read. The flag's value is read
        in the JSON form of its field: --pairs t1 as [["t1"]]."""
        flag = "--" + option.replace("_", "-")
        # measures and pairs are top-level lists, and the value is their first item.
        listed = {"measures": [value], "pairs": [str(value).split(":")]}
        field, item = (option, "[0]") if option in listed else (f"options.{option}", "")
        if source == "manifest":
            job, argv = copy_job(tmp_path, set_at(field, listed.get(option, value))), []
            prefix = f"error: malformed manifest {job}: {field}{item}: "
        else:
            job, argv = copy_job(tmp_path, lambda config: None), [flag, value]
            prefix = f"error: {flag}{item}: "
        code = run_cli("persist", "--config", job, *argv, "--output", tmp_path / "out")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(prefix + message)
        assert not (tmp_path / "out").exists()

    def test_bad_manifest_option_is_refused_under_a_flag(self, tmp_path, no_reading, capsys):
        """The manifest is checked whole before a flag overrides a field."""
        job = copy_job(tmp_path, set_at("options.t_test", "bogus"))
        code = run_cli("persist", "--config", job, "--t-test", "welch", "--output", tmp_path)
        assert code == EXIT_USAGE
        assert f"malformed manifest {job}: options.t_test: " in capsys.readouterr().err

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
        score_run = measures.score_run

        def recording_score_run(run, measure, topics, ee_label=""):
            calls.append((id(run), id(run.qrels), measure))
            return score_run(run, measure, topics, ee_label)

        monkeypatch.setattr(measures, "score_run", recording_score_run)
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--no-strict-topics",
            "--series", "pivot-delta", "--output", tmp_path,
        )
        assert code == EXIT_OK
        # Three runs in each of two environments, three measures: each
        # (run, qrels, measure) once, whatever topics the series share.
        assert len(calls) == len(set(calls)) == 3 * 2 * 3

    def test_summarizes_each_judged_topic_once(self, tmp_path, monkeypatch):
        made = []  # per summary: whether score_run was running when it was made
        scoring = []
        new, score_run = run_io.TopicJudgments.__new__, measures.score_run

        def counting_new(cls, grades):
            made.append(bool(scoring))
            return new(cls, grades)

        def flagged_score_run(*args, **kwargs):
            scoring.append(True)
            try:
                return score_run(*args, **kwargs)
            finally:
                scoring.pop()

        monkeypatch.setattr(run_io.TopicJudgments, "__new__", counting_new)
        monkeypatch.setattr(measures, "score_run", flagged_score_run)
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--no-strict-topics",
            "--series", "pivot-delta", "--output", tmp_path,
        )
        assert code == EXIT_OK
        # One summary per (snapshot, judged topic), each made when its qrels load.
        judged = [
            {line.split()[0] for line in (FIXTURE / name).read_text().splitlines() if line.strip()}
            for name in ("qrels.t1.txt", "qrels.t2.txt")
        ]
        assert len(made) == sum(map(len, judged)) and not any(made)

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

    def test_empty_core_is_one_error_naming_the_environments(self, tmp_path, no_scoring, capsys):
        def disjoint_t2(config):
            config["environments"][1]["topics"] = "topics.t2.txt"

        job = copy_job(tmp_path, disjoint_t2)
        (job.parent / "topics.t2.txt").write_text("z01\n", encoding="utf-8")
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: core topic intersection across environments ['t1', 't2'] is empty\n"
        )

    @pytest.mark.parametrize("strict", [True, False])
    def test_snapshot_with_one_topic_exits_3_before_scoring(
        self, tmp_path, no_scoring, capsys, strict
    ):
        """The t-tests need two topics: a core of one topic, or a snapshot's
        own set of one, is refused before any run is scored."""
        job = copy_job(tmp_path, set_at("options.strict_topics", strict))
        (job.parent / "topics.t1.txt").write_text("q01\n", encoding="utf-8")
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: environment 't1' has 1 topic to score; the t-tests need at least 2\n"
        )

    def test_label_with_a_line_break_keeps_one_line_per_row(self, tmp_path):
        """table.txt writes a label's line break as \\n, so each row is one line."""

        def relabel_t2(config):
            config["environments"][1]["label"] = "t\n2"
            for run in config["runs"]:
                run["environment"] = run["environment"].replace("t2", "t\n2")
            config["pairs"] = [["t1", "t\n2"]]

        job = copy_job(tmp_path, relabel_t2)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "table.txt").read_text(encoding="utf-8").splitlines()
        # The pivot, measure names and column titles, then baseline, alpha and beta in t1 and t2.
        assert len(lines) == 3 + 3 * 2
        assert len({len(line) for line in lines[2:]}) == 1
        labels = [line.split()[:2] for line in lines[3:5]]
        assert labels == [["baseline", "t1"], ["baseline", "t\\n2"]]

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

    def test_empty_qrels_is_a_result(self, tmp_path, capsys):
        """Qrels with no judgments score every topic 0: the job still gives
        a table, with every ARP of that snapshot 0.000 and DRI undefined."""
        job = copy_job(tmp_path, lambda config: None)
        (job.parent / "qrels.t2.txt").write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("persist", "--config", job, "--output", out) == EXIT_OK
        rows = (out / "table.txt").read_text(encoding="utf-8").splitlines()[3:]
        t2_rows = [row.split("|") for row in rows if row.split()[1] == "t2"]
        assert len(t2_rows) == 3
        for system, *measures in t2_rows:
            for columns in map(str.split, measures):
                assert columns[0] == "0.000"
                assert columns[2] == ("-" if system.startswith("baseline") else "undef")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_strings(value, keys, optional=()) -> bool:
    """An object of the string fields ``keys`` and ``optional``; a key of
    neither is ill-typed."""
    return (
        isinstance(value, dict)
        and set(value) <= {*keys, *optional}
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
    and set(v) <= {*OPTION_TYPES, "er_exclude"}
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
            ("environments.1.qrels", "", "environments[1].qrels: path is empty"),
            ("runs.2.path", "", "runs[2].path: path is empty"),
            ("pairs", [], "pairs is empty"),
            # A key that no field names, such as a misspelt one, is refused.
            ("options.strict_topic", False, "options.strict_topic is not a field"),
            ("environments.1.topic", "topics.t1.txt", "environments[1].topic is not a field"),
            ("pivots", "baseline", "pivots is not a field"),
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


class TestJudgedOnLoad:
    """Each run is read to the deepest rank that a measure of the job reads
    and judged once, as it loads; score_run sees only judged runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The loads (with their depth), judgings and scorings of a command, in order."""
        calls = []
        load_run, judged, score_run = run_io.load_run, run_io.Run.judged, measures.score_run

        def recording_load_run(path, expected_tag=None, depth=run_io.MAX_DEPTH):
            calls.append(("load", Path(path).name, depth))
            return load_run(path, expected_tag, depth)

        def recording_judged(run, qrels):
            result = judged(run, qrels)
            calls.append(("judge", (run.run_tag, id(qrels)), result))
            return result

        def recording_score_run(run, measure, topics, ee_label=""):
            calls.append(("score", run))
            return score_run(run, measure, topics, ee_label)

        monkeypatch.setattr(run_io, "load_run", recording_load_run)
        monkeypatch.setattr(run_io.Run, "judged", recording_judged)
        monkeypatch.setattr(measures, "score_run", recording_score_run)
        return calls

    def test_persist_judges_each_run_once_as_it_loads(self, tmp_path, calls):
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", tmp_path) == 0
        loads_and_judgings = [call[0] for call in calls if call[0] != "score"]
        # Each run is judged before the next one loads, so no doc id outlives loading.
        assert loads_and_judgings == ["load", "judge"] * 6
        judgings = [call for call in calls if call[0] == "judge"]
        assert len({key for _, key, _ in judgings}) == 6
        judged_runs = [result for _, _, result in judgings]
        scored = [run for kind, run, *_ in calls if kind == "score"]
        assert len(scored) == 6 * 3
        assert all(any(run is judged for judged in judged_runs) for run in scored)
        for run in scored:
            grades = [grade for ranking in run.rankings.values() for grade in ranking]
            assert grades and set(grades) <= {None, *run_io.GRADES}

    @pytest.mark.parametrize(
        "names, depth",
        [("p@5,ndcg@10", 10), ("p@5,ndcg@10,bpref", run_io.MAX_DEPTH), ("ndcg", run_io.MAX_DEPTH)],
    )
    def test_depth_is_the_deepest_rank_a_measure_reads(self, tmp_path, calls, names, depth):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--measures", names, "--output", tmp_path
        )
        assert code == EXIT_OK
        assert {call[2] for call in calls if call[0] == "load"} == {depth}
        assert {call[2].depth for call in calls if call[0] == "judge"} == {depth}
        # The fixture ranks 12 documents per topic.
        kept = {len(r) for kind, run, *_ in calls if kind == "score" for r in run.rankings.values()}
        assert kept == {min(depth, 12)}

    def test_score_judges_its_run_once(self, tmp_path, calls):
        code = run_cli(
            "score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt",
            "--measures", "p@5,ndcg@7", "--output", tmp_path,
        )
        assert code == EXIT_OK
        assert [call[0] for call in calls] == ["load", "judge", "score", "score"]
        (_, _, depth), (_, _, judged) = calls[:2]
        assert depth == judged.depth == 7 and all(run is judged for _, run in calls[2:])


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

    def test_verbose_escapes_tabs_and_line_breaks_in_names(self, tmp_path, capsys):
        """Each URL is one class<TAB>url line and the labels one line, as in
        table.txt; corpus_diff.json keeps the names as they are."""
        old, new = tmp_path / "old\nside", tmp_path / "new"
        old.mkdir(), new.mkdir()
        (old / "one\ntwo.txt").write_text("a", encoding="utf-8")
        (new / "one\ntwo.txt").write_text("aa", encoding="utf-8")
        (new / "tab\tname.txt").write_text("b", encoding="utf-8")
        code = run_cli("corpus-diff", old, new, "--from-dirs", "--verbose", "--output", tmp_path)
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "comparing old\\nside -> new", "added     1", "removed   0", "changed   1",
            "unchanged 0", "added\ttab\\tname.txt", "changed\tone\\ntwo.txt",
            "wrote corpus_diff.json",
        ]
        payload = json.loads((tmp_path / "corpus_diff.json").read_text(encoding="utf-8"))
        assert payload["a"] == "old\nside" and payload["added_urls"] == ["tab\tname.txt"]
        assert payload["changed_urls"] == ["one\ntwo.txt"]

    # A name that is not UTF-8 would become a URL or label that a UTF-8
    # stdout, or corpus_diff.json, cannot hold.
    @pytest.mark.parametrize(
        "new, document, shown",
        [
            (b"new", b"bad\xff.txt", "new/bad\\xff.txt"),
            (b"new", b"sub\xfe/d.txt", "new/sub\\xfe/d.txt"),
            (b"new\xfe", b"d.txt", "new\\xfe"),
        ],
        ids=["document", "subdirectory", "root"],
    )
    def test_non_utf8_name_in_directory_mode_exits_2_naming_it(
        self, tmp_path, capsys, new, document, shown
    ):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "a.txt").write_text("a", encoding="utf-8")
        new = tmp_path / os.fsdecode(new)
        document = new / os.fsdecode(document)
        document.parent.mkdir(parents=True)
        document.write_text("d", encoding="utf-8")
        code = run_cli("corpus-diff", tmp_path / "old", new, "--from-dirs", "--verbose")
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err == f"error: {tmp_path}/{shown}: file name is not UTF-8\n"

    def test_non_utf8_manifest_name_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / os.fsdecode(b"m\xff.tsv")
        bad.write_text("a\t1\n", encoding="utf-8")
        code = run_cli("corpus-diff", FIXTURE / "manifest.t1.tsv", bad, "--output", tmp_path / "out")
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err == f"error: {tmp_path}/m\\xff.tsv: file name is not UTF-8\n"
        assert not (tmp_path / "out").exists()

    def test_unreadable_document_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "old").mkdir(), (tmp_path / "new").mkdir()
        document = tmp_path / "new" / "a.txt"
        document.write_text("a", encoding="utf-8")

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_text", refuse)
        code = run_cli("corpus-diff", tmp_path / "old", tmp_path / "new", "--from-dirs")
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {document}: cannot read {document}: ")

    def test_unlistable_subdirectory_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        for side in ("old", "new"):
            (tmp_path / side / "sub").mkdir(parents=True)
            (tmp_path / side / "sub" / "d.txt").write_text("d", encoding="utf-8")
        hidden = tmp_path / "new" / "sub"
        scandir = os.scandir

        def refuse(path="."):
            if os.fspath(path) == str(hidden):
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse)
        code = run_cli("corpus-diff", tmp_path / "old", tmp_path / "new", "--from-dirs")
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.startswith(f"error: {hidden}: cannot list {hidden}: ")

    def test_dot_and_dotdot_are_labelled_with_their_directory_name(self, tmp_path, monkeypatch, capsys):
        docs = tmp_path / "docs"
        (docs / "sub").mkdir(parents=True)
        (docs / "d.txt").write_text("d", encoding="utf-8")
        monkeypatch.chdir(docs)
        code = run_cli("corpus-diff", ".", "sub/..", "--from-dirs", "--output", tmp_path / "out")
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("comparing docs -> docs\n")
        payload = json.loads((tmp_path / "out" / "corpus_diff.json").read_text(encoding="utf-8"))
        assert (payload["a"], payload["b"], payload["unchanged"]) == ("docs", "docs", 1)


def assert_overflow_exits_3(tmp_path, capsys, index, field, number):
    """``report`` refuses ``number``, too large for a float, in cells[index].field."""
    payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
    payload["cells"][index][field] = "OVERFLOW"
    bad = tmp_path / "cells.json"
    bad.write_text(json.dumps(payload).replace('"OVERFLOW"', number), encoding="utf-8")
    assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
    value = float(number)
    assert (
        f"error: {bad}: malformed table JSON: cells[{index}].{field} must be finite, got {value}"
    ) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    def test_bad_er_exclude_exits_1(self, tmp_path, capsys, threshold):
        run_cli("persist", "--config", FIXTURE / "job.json", "--output", tmp_path / "persist")
        capsys.readouterr()
        code = run_cli(
            "report", tmp_path / "persist" / "cells.json",
            "--er-exclude", threshold, "--output", tmp_path / "report",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --er-exclude: the |ER| threshold")

    def test_bad_er_exclude_exits_1_before_the_cells_are_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(run_io, "read_input", lambda path: pytest.fail(f"read {path}"))
        missing = tmp_path / "missing.json"
        assert run_cli("report", missing, "--er-exclude", "0", "--output", tmp_path) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --er-exclude: the |ER| threshold")

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
        assert_overflow_exits_3(tmp_path, capsys, 0, "p_value", "1e999")

    def test_infinite_t_statistic_exits_3_naming_it(self, tmp_path, capsys):
        """The t statistic is a number like any other."""
        assert_overflow_exits_3(tmp_path, capsys, 2, "t_statistic", "-1e999")

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

    def test_measure_name_outside_the_grammar_exits_3_naming_it(self, tmp_path, capsys):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        payload["cells"][0]["measure"] = "p@+5"
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed table JSON: malformed persistence cell record: "
            "cells[0].measure: invalid measure name 'p@+5'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["cells"][1].update(note="x"), "cells[1].note is not a field"),
            (
                lambda p: p["cells"][0]["pair"].update(base_ee="t1"),
                "cells[0].pair.base_ee is not a field",
            ),
            (
                lambda p: p["cells"][2]["arp_target"].update(sd=0.1),
                "cells[2].arp_target.sd is not a field",
            ),
            (lambda p: p.update(pivots=["baseline"]), "pivots is not a field"),
            (lambda p: p.update(pivot_tag=5), "pivot_tag must be a string, got 5"),
        ],
    )
    def test_key_the_tool_does_not_read_exits_3_naming_it(self, tmp_path, capsys, edit, message):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        edit(payload)
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed table JSON: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_cell_whose_system_is_the_pivot_exits_3(self, tmp_path, capsys):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        payload["cells"][0]["system_tag"] = payload["pivot_tag"]
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        assert (
            f"error: {bad}: malformed table JSON: "
            "cells[0]: system and pivot share the tag 'baseline'"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: p.update(pivot_tag="other"),
                "pivot_tag 'other' is not the cells' pivot 'baseline'",
            ),
            (
                lambda p: p.update(measures=["MAP"]),
                "measures ['MAP'] are not the cells' measures ['P@10', 'bpref', 'nDCG']",
            ),
            (
                lambda p: p["measures"].remove("bpref"),
                "measures ['P@10', 'nDCG'] are not the cells' measures",
            ),
        ],
        ids=["other-pivot", "other-measure", "missing-measure"],
    )
    def test_metadata_that_contradicts_the_cells_exits_3(self, tmp_path, capsys, edit, message):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        edit(payload)
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", bad, "--output", tmp_path / "out") == EXIT_DATA
        assert f"error: {bad}: malformed table JSON: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("pivot_tag"),
            lambda p: p.pop("measures"),
            lambda p: p["measures"].reverse(),
            lambda p: p.update(
                measures=[name.lower() for name in p["measures"]],
                cells=[{**cell, "measure": cell["measure"].lower()} for cell in p["cells"]],
            ),
        ],
        ids=["no-pivot-tag", "no-measures", "measures-unsorted", "measures-lowercase"],
    )
    def test_absent_or_reordered_metadata_renders(self, tmp_path, edit):
        payload = json.loads(GOLDEN_CELLS.read_text(encoding="utf-8"))
        edit(payload)
        cells = tmp_path / "cells.json"
        cells.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("report", cells, "--output", tmp_path / "out") == EXIT_OK
        for name in ("table.txt", "table.csv", "scatter.csv"):
            golden = (GOLDEN_CELLS.parent / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == golden

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
        read_input = run_io.read_input
        monkeypatch.setattr(run_io, "read_input", lambda path: during.append(gc.isenabled()) or read_input(path))
        (gc.enable if enabled else gc.disable)()
        assert run_cli("report", cells, *argv, "--output", tmp_path / "out") == code
        assert gc.isenabled() is enabled
        # A bad --er-exclude exits before cells.json is read.
        assert during == ([] if code == EXIT_USAGE else [False])

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
    """A fault inside one input file names that file and line."""

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

    # os.fsdecode keeps the byte \xff of a path as a lone surrogate, which a
    # strict UTF-8 stderr, such as capsys's, cannot print.
    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("m.tsv", "no tab\n", lambda path: ["corpus-diff", path, path]),
            ("job.json", "{not json", lambda path: ["persist", "--config", path]),
        ],
        ids=["corpus-diff", "persist"],
    )
    def test_path_not_utf8_is_escaped(self, tmp_path, capsys, name, content, argv):
        path = tmp_path / os.fsdecode(b"dir\xff") / name
        path.parent.mkdir()
        path.write_text(content, encoding="utf-8")
        code = run_cli(*argv(path))
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path}/dir\\xff/{name}:1: ")


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


class TestOverLongFileName:
    """A run tag that makes an output file name longer than 255 bytes is a
    usage error (exit 1) raised before the first write, so no output
    directory is left behind."""

    @pytest.mark.parametrize("command", ["persist", "score"])
    def test_exits_1_leaving_no_output(self, tmp_path, capsys, command):
        tag = "a" * 300
        root = tmp_path / "job"
        shutil.copytree(FIXTURE, root)
        for path in (root / "job.json", *root.glob("runs/alpha.*.run")):
            text = path.read_text(encoding="utf-8")
            text = text.replace('"alpha"', f'"{tag}"').replace(" alpha", f" {tag}")
            path.write_text(text, encoding="utf-8")
        argv = {
            "persist": ["persist", "--config", root / "job.json"],
            "score": [
                "score", root / "runs" / "alpha.t1.run", root / "qrels.t1.txt", "--measures", "p@10"
            ],
        }[command]
        output = tmp_path / "out"
        assert run_cli(*argv, "--output", output) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {output}{os.sep}")
        assert err.endswith(": file name longer than 255 bytes\n") and err.count("\n") == 1
        assert not output.exists()


class TestOverLongSeriesName:
    def test_exits_1_before_any_run_is_read(self, tmp_path, capsys):
        """The manifest fixes every series name, so an over-long one is
        refused before any input is read: here the alpha runs do not exist."""
        tag = "a" * 300
        root = tmp_path / "job"
        shutil.copytree(FIXTURE, root)
        for path in root.glob("runs/alpha.*.run"):
            path.unlink()
        job = root / "job.json"
        job.write_text(job.read_text(encoding="utf-8").replace('"alpha"', f'"{tag}"'), "utf-8")
        output = tmp_path / "out"
        assert run_cli("persist", "--config", job, "--output", output) == EXIT_USAGE
        path = output / "series" / f"{tag}.p_at_10.t1-t2.csv"
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: file name longer than 255 bytes\n"
        assert not output.exists()


class TestOneJobPerOutputDirectory:
    """persist refuses an output directory holding a series file that the
    job would not write, before it reads any input, and deletes nothing."""

    def test_a_smaller_job_into_a_full_jobs_output_exits_1(self, tmp_path, monkeypatch, capsys):
        output = tmp_path / "out"
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", output) == 0
        before = tree(output)
        def drop_beta(config):
            config["runs"] = [run for run in config["runs"] if run["tag"] != "beta"]

        job = copy_job(tmp_path, drop_beta)
        capsys.readouterr()
        for name in ("load_qrels", "load_run", "load_topics"):
            monkeypatch.setattr(run_io, name, lambda *args: pytest.fail("read an input"))
        assert run_cli("persist", "--config", job, "--output", output) == EXIT_USAGE
        stale = output / "series" / "beta.bpref.t1-t2.csv"
        assert capsys.readouterr() == (
            "", f"error: {stale} is not a series of this job; use a new output directory\n"
        )
        assert tree(output) == before

    def test_the_same_job_into_its_own_output_is_byte_identical(self, tmp_path):
        output = tmp_path / "out"
        for _ in range(2):
            assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", output) == 0
            assert tree(output) == tree(GOLDEN_CELLS.parent)


class TestAtomicWrite:
    """Every output file is written under a temporary name before any is
    renamed into place, so a write that fails part-way keeps the old files
    and leaves no temporary file behind."""

    NAMES = sorted(tree(GOLDEN_CELLS.parent))  # the order persist writes in

    @pytest.mark.parametrize("name", ["cells.json", "series/alpha.ndcg.t1-t2.csv", "table.txt"])
    def test_a_write_that_fails_part_way_keeps_the_old_files(
        self, tmp_path, monkeypatch, capsys, name
    ):
        failing = self.NAMES.index(name)  # the files before it are written, under temporary names
        output = tmp_path / "out"
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", output) == 0
        before = tree(output)

        def welch_pivot_delta(config):  # the same file names, each with new content
            config["options"].update(t_test="welch", series="pivot-delta")

        job = copy_job(tmp_path, welch_pivot_delta)
        write_text, calls = Path.write_text, []

        def full_disk(path, *args, **kwargs):
            calls.append(path)
            if len(calls) > failing:
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", full_disk)
            assert run_cli("persist", "--config", job, "--output", output) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: cannot write {output / name}: [Errno 28] No space left on device\n"
        )
        # each file went to a temporary name in its own directory, never a series/*.csv
        temporary = [((output / n).parent, ".tmp") for n in self.NAMES[: failing + 1]]
        assert [(path.parent, path.suffix) for path in calls] == temporary
        assert tree(output) == before  # byte-identical, and no temporary file left
        assert run_cli("persist", "--config", job, "--output", output) == EXIT_OK
        changed = tree(output)
        assert changed.keys() == before.keys()
        assert [n for n in self.NAMES if changed[n] == before[n]] == ["scatter.csv"]

    @pytest.mark.parametrize("name", ["series/alpha.ndcg.t1-t2.csv", "table.txt"])
    def test_a_directory_in_the_way_replaces_nothing(self, tmp_path, capsys, name):
        output = tmp_path / "out"
        assert run_cli("persist", "--config", FIXTURE / "job.json", "--output", output) == 0
        (output / name).unlink()
        (output / name).mkdir()
        before = tree(output)
        job = copy_job(tmp_path, lambda config: config["options"].update(t_test="welch"))
        capsys.readouterr()
        assert run_cli("persist", "--config", job, "--output", output) == EXIT_USAGE
        assert tree(output) == before  # byte-identical, and no temporary file left
        assert capsys.readouterr() == ("", f"error: cannot write {output / name}: Is a directory\n")
        assert (output / name).is_dir()


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input changes nothing."""

    PERSIST = ["persist", "--config", "job.json"]
    INPUTS = {
        "run": ("runs/alpha.t1.run", PERSIST),
        "qrels": ("qrels.t1.txt", PERSIST),
        "topics": ("topics.t1.txt", PERSIST),
        "job-manifest": ("job.json", PERSIST),
        "cells": ("cells.json", ["report", "cells.json"]),
        "corpus-manifest": (
            "manifest.t1.tsv", ["corpus-diff", "manifest.t1.tsv", "manifest.t2.tsv", "--verbose"]
        ),
    }

    @pytest.mark.parametrize("kind", INPUTS)
    def test_outputs_are_byte_identical(self, tmp_path, monkeypatch, capsys, kind):
        name, command = self.INPUTS[kind]
        outputs = []
        for variant in ("plain", "bom"):
            root = tmp_path / variant
            shutil.copytree(FIXTURE, root)
            shutil.copy(GOLDEN_CELLS, root / "cells.json")
            path = root / name
            if kind == "qrels":  # lead with a relevant judgment, for the mark to move
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                lines.sort(key=lambda line: line.split()[3] == "0")
                path.write_text("".join(lines), encoding="utf-8")
            if variant == "bom":
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            monkeypatch.chdir(root)
            assert run_cli(*command, "--output", "out") == EXIT_OK
            outputs.append((tree(root / "out"), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


def rewrite_bytes(edit):
    """A variant that rewrites a file's bytes as ``edit`` of them."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def shuffle_lines(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    path.write_bytes(b"".join(lines))


def shuffle_within_topics(path: Path) -> None:
    """Shuffle the lines of each topic, keeping the topics in their order."""
    topics: dict[bytes, list[bytes]] = {}
    for line in path.read_bytes().splitlines(keepends=True):
        topics.setdefault(line.split()[0], []).append(line)
    rng = random.Random(7)
    for lines in topics.values():
        rng.shuffle(lines)
    path.write_bytes(b"".join(line for lines in topics.values() for line in lines))


def replace_by_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


class TestInputVariants:
    """One two_ee input rewritten. A variant that keeps the input's meaning
    gives the golden artifacts byte for byte; one that breaks it exits 1, 2
    or 3 with an error naming the file, and the line where there is one."""

    RUN, QRELS = "runs/alpha.t1.run", "qrels.t1.txt"
    VARIANTS = {
        "crlf": rewrite_bytes(lambda data: data.replace(b"\n", b"\r\n")),
        "trailing-blank-lines": rewrite_bytes(lambda data: data + b"\n\n\n"),
        "tabs": rewrite_bytes(lambda data: data.replace(b" ", b"\t")),
        "shuffled": shuffle_lines,
        "shuffled-within-topics": shuffle_within_topics,
        "cut-mid-line": rewrite_bytes(lambda data: data[:-3]),
        "utf-16": rewrite_bytes(lambda data: data.decode("utf-8").encode("utf-16")),
        "directory": replace_by_directory,
        "no-records": rewrite_bytes(lambda data: b""),
    }

    def persist(self, tmp_path: Path, name: str, variant: str) -> tuple[int, Path]:
        root = tmp_path / "two_ee"
        shutil.copytree(FIXTURE, root)
        self.VARIANTS[variant](root / name)
        code = run_cli("persist", "--config", root / "job.json", "--output", tmp_path / "out")
        return code, root / name

    @pytest.mark.parametrize(
        "variant, name",
        [
            *product(("crlf", "trailing-blank-lines", "tabs"), (RUN, QRELS)),
            ("shuffled", QRELS),
            ("shuffled-within-topics", RUN),
        ],
    )
    def test_meaning_kept_gives_identical_artifacts(self, tmp_path, variant, name):
        code, path = self.persist(tmp_path, name, variant)
        assert path.read_bytes() != (FIXTURE / name).read_bytes()
        assert code == EXIT_OK
        assert tree(tmp_path / "out") == tree(GOLDEN_CELLS.parent)

    def test_shuffled_qrels_repeat_no_judgment(self):
        pairs = [line.split()[::2] for line in (FIXTURE / self.QRELS).read_text().splitlines()]
        assert len({(topic, doc) for topic, doc in pairs}) == len(pairs)

    def test_shuffled_run_ties_no_score(self):
        fields = [line.split() for line in (FIXTURE / self.RUN).read_text().splitlines()]
        assert len({(topic, score) for topic, _, _, _, score, _ in fields}) == len(fields)

    @pytest.mark.parametrize(
        "variant, name, code, line",
        [
            # The last line ends inside the run tag: "alp" is another tag.
            ("cut-mid-line", RUN, EXIT_DATA, 132),
            ("utf-16", RUN, EXIT_PARSE, 1),
            ("utf-16", QRELS, EXIT_PARSE, 1),
            ("directory", RUN, EXIT_PARSE, None),
            ("directory", QRELS, EXIT_PARSE, None),
            ("no-records", RUN, EXIT_DATA, None),
        ],
    )
    def test_broken_input_names_path_and_line(self, tmp_path, capsys, variant, name, code, line):
        assert self.persist(tmp_path, name, variant) == (code, tmp_path / "two_ee" / name)
        err = capsys.readouterr().err
        where = f"{tmp_path / 'two_ee' / name}:" + (f"{line}:" if line else "")
        assert err.startswith(f"error: {where} ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()



class TestInputVariantsProperty:
    """TestInputVariants with hypothesis picking the two_ee input (a run,
    qrels or topics file) and the variant."""

    INPUTS = sorted(
        path.relative_to(FIXTURE).as_posix()
        for path in FIXTURE.rglob("*")
        if path.suffix in (".run", ".txt")
    )
    VARIANTS = {
        **TestInputVariants.VARIANTS,
        "byte-order-mark": rewrite_bytes(lambda data: "\ufeff".encode() + data),
    }
    KEPT = (
        "byte-order-mark", "crlf", "trailing-blank-lines", "tabs", "shuffled",
        "shuffled-within-topics",
    )
    BROKEN = ("cut-mid-line", "utf-16", "directory", "no-records")
    # Neither kept nor broken: an empty qrels file judges nothing, which is
    # a result (test_empty_qrels_is_a_result), and the cut last line of the
    # topics file renames q11, which is not a core topic.
    NEITHER = {("no-records", "qrels.t1.txt"), ("no-records", "qrels.t2.txt"),
               ("cut-mid-line", "topics.t1.txt")}

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(INPUTS), variant=st.sampled_from(KEPT + BROKEN))
    def test_variant_keeps_the_artifacts_or_names_the_path(self, name, variant):
        assume((variant, name) not in self.NEITHER)
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            root = tmp_path / "two_ee"
            shutil.copytree(FIXTURE, root)
            self.VARIANTS[variant](root / name)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("persist", "--config", root / "job.json", "--output", tmp_path / "out")
            if variant in self.KEPT:
                assert code == EXIT_OK
                assert tree(tmp_path / "out") == tree(GOLDEN_CELLS.parent)
            else:
                assert code in (EXIT_USAGE, EXIT_PARSE, EXIT_DATA)
                assert err.getvalue().startswith(f"error: {root / name}:")
                assert "Traceback" not in err.getvalue()
                assert not (tmp_path / "out").exists()

    def test_the_inputs_are_the_jobs_files(self):
        job = json.loads((FIXTURE / "job.json").read_text(encoding="utf-8"))
        named = [run["path"] for run in job["runs"]]
        for key in ("qrels", "topics"):
            named += [env[key] for env in job["environments"] if key in env]
        assert sorted(named) == self.INPUTS


# Pieces that a path or a label must survive: NUL, a parent directory, and
# a lone surrogate, which json.dumps writes as the escape \ud800.
ODD_PIECES = ["\ud800", "\0", ".."]
ODD_STRINGS = st.builds("".join, st.tuples(st.text(max_size=3), st.sampled_from(ODD_PIECES)))
JSON_VALUES = st.recursive(
    st.one_of(
        ODD_STRINGS, st.text(max_size=8), st.none(), st.booleans(), st.integers(),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.floats(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(max_size=8), children, max_size=3)
    ),
    max_leaves=4,
)


@st.composite
def mutated(draw, document):
    """A copy of ``document`` with one value set, deleted or added at a drawn
    path, or with an odd piece put into one string wherever it occurs, so that
    a label or a tag stays consistent."""
    document = json.loads(json.dumps(document))
    containers, slots = [document], []
    for node in containers:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            slots.append((node, key))
            if isinstance(child, (dict, list)):
                containers.append(child)
    operation = draw(st.sampled_from(["rename", "set", "delete", "add"]))
    if operation == "rename":
        strings = sorted({node[key] for node, key in slots if type(node[key]) is str})
        old = draw(st.sampled_from(strings))
        at = draw(st.integers(0, len(old)))
        new = old[:at] + draw(st.sampled_from(ODD_PIECES)) + old[at:]
        for node, key in slots:
            if node[key] == old:
                node[key] = new
    elif operation == "add":
        node = draw(st.sampled_from(containers))
        if isinstance(node, dict):
            node[draw(st.one_of(ODD_STRINGS, st.text(max_size=8)))] = draw(JSON_VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(JSON_VALUES))
    else:
        node, key = draw(st.sampled_from(slots))
        if operation == "set":
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
    return document


class TestJsonInputsProperty:
    """A mutated two_ee manifest or golden cells.json: ``persist`` or
    ``report`` gives a result or one documented error, never a traceback.
    ``--output`` names the output directory, so no mutation moves it, and a
    refused input leaves none."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(["persist", "report"]))
    def test_mutation_gives_a_result_or_a_documented_error(self, data, command):
        source = FIXTURE / "job.json" if command == "persist" else GOLDEN_CELLS
        document = data.draw(mutated(json.loads(source.read_text(encoding="utf-8"))))
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            if command == "persist":
                shutil.copytree(FIXTURE, tmp_path / "two_ee")
                target = tmp_path / "two_ee" / "job.json"
                argv = ["persist", "--config", target]
            else:
                target = tmp_path / "cells.json"
                argv = ["report", target]
            target.write_text(json.dumps(document), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(*argv, "--output", tmp_path / "out")
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_DATA)
            assert "Traceback" not in err.getvalue()
            if code != EXIT_OK:
                assert not (tmp_path / "out").exists()

    def test_lone_surrogate_label_exits_2_naming_the_manifest(self, tmp_path, capsys):
        def rename_t2(config):
            config["environments"][1]["label"] = config["pairs"][0][1] = "t\ud800"
            for run in config["runs"][3:]:
                run["environment"] = "t\ud800"

        job = copy_job(tmp_path, rename_t2)
        assert run_cli("persist", "--config", job, "--output", tmp_path / "out") == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {job}:1: invalid JSON: a string holds a lone surrogate escape\n"
        )
        assert not (tmp_path / "out").exists()


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

    # The output directory is the --output flag, then (persist only) the
    # manifest's output, then PERSISTEVAL_OUTPUT, then the working directory.
    # An empty flag, manifest field or variable names none.
    @pytest.mark.parametrize(
        "command, flag, manifest, env, expected",
        [
            *[
                pytest.param(command, *case, id=f"{command}-{case_id}")
                for command in ("score", "report")
                for case_id, case in [
                    ("flag", ("flag", None, "env", "flag")),
                    ("env", (None, None, "env", "env")),
                    ("cwd", (None, None, None, "cwd")),
                    ("empty-env", (None, None, "", "cwd")),
                    ("empty-flag", ("", None, "env", "env")),
                ]
            ],
            pytest.param("persist", "flag", "manifest", "env", "flag", id="persist-flag"),
            pytest.param("persist", None, "manifest", "env", "manifest", id="persist-manifest"),
            pytest.param("persist", None, None, "env", "env", id="persist-env"),
            pytest.param("persist", None, None, None, "cwd", id="persist-cwd"),
            pytest.param("persist", None, "", "", "cwd", id="persist-empty-manifest-env"),
            pytest.param("persist", "", "manifest", "env", "manifest", id="persist-empty-flag"),
        ],
    )
    def test_output_directory_precedence(
        self, tmp_path, monkeypatch, capsys, command, flag, manifest, env, expected
    ):
        job = copy_job(tmp_path, lambda config: config.update(output=manifest or ""))
        places = {
            "flag": tmp_path / "flag",
            "manifest": job.parent / "manifest",
            "env": tmp_path / "env",
            "cwd": tmp_path / "cwd",
        }
        places["cwd"].mkdir()
        monkeypatch.chdir(places["cwd"])
        if env is None:
            monkeypatch.delenv("PERSISTEVAL_OUTPUT", raising=False)
        else:
            monkeypatch.setenv("PERSISTEVAL_OUTPUT", str(places[env]) if env else "")
        argv, written = {
            "score": (
                ["score", FIXTURE / "runs" / "alpha.t1.run", FIXTURE / "qrels.t1.txt"]
                + ["--measures", "p@10"],
                "alpha.p_at_10.scores.txt",
            ),
            "report": (["report", GOLDEN_CELLS], "table.txt"),
            "persist": (["persist", "--config", job], "cells.json"),
        }[command]
        if flag is not None:
            argv += ["--output", places[flag] if flag else ""]
        assert run_cli(*argv) == EXIT_OK
        capsys.readouterr()
        holding = {name for name, place in places.items() if (place / written).exists()}
        assert holding == {expected}
