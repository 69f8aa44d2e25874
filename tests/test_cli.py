from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from persisteval import cli
from persisteval.cli import EXIT_DATA, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main

FIXTURE = Path(__file__).parent / "fixtures" / "two_ee"


def run_cli(*argv):
    return main([str(a) for a in argv])


def tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


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
            calls.append((id(run), id(qrels), measure, topics, ee_label))
            return score_run(run, qrels, measure, topics, ee_label)

        monkeypatch.setattr(cli, "score_run", recording_score_run)
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json", "--no-strict-topics",
            "--series", "pivot-delta", "--output", tmp_path,
        )
        assert code == EXIT_OK
        assert calls
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_bad_er_exclude_exits_1(self, tmp_path, threshold):
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--er-exclude", threshold, "--output", tmp_path,
        )
        assert code == EXIT_USAGE

    def test_repeated_pair_exits_1_before_scoring(self, tmp_path, monkeypatch, capsys):
        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before the usage check")

        monkeypatch.setattr(cli, "score_run", no_scoring)
        code = run_cli(
            "persist", "--config", FIXTURE / "job.json",
            "--pairs", "t1:t2,t1:t2", "--output", tmp_path,
        )
        assert code == EXIT_USAGE
        assert "t1-t2" in capsys.readouterr().err

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
