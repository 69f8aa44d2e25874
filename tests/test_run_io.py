from __future__ import annotations

import math
import random
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persisteval.corpus_diff import load_manifest, parse_manifest
from persisteval import errors
from persisteval.errors import DataError, DiagnosticWarning, EvaluationError, ParseError, UsageError
from persisteval.run_io import (
    MAX_DEPTH,
    MISSING,
    Qrels,
    Run,
    core_topics,
    json_checked,
    json_object,
    load_qrels,
    load_run,
    load_topics,
    parse_qrels,
    parse_run,
    parse_topics,
    snapshot_topics,
)
from oracles import oracle_run_error
from trec_format import format_qrels, format_run

tokens = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6)
scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def runs_strategy():
    rankings = st.dictionaries(
        keys=tokens,
        values=st.dictionaries(keys=tokens, values=scores, min_size=1, max_size=8),
        min_size=1,
        max_size=5,
    )
    return rankings.map(lambda r: Run.from_rankings("tagx", r))


class TestParseRun:
    def test_single_line(self):
        run = parse_run("q1 Q0 d7 1 14.89 BM25")
        assert run.run_tag == "BM25"
        assert run.rankings == {"q1": ("d7",)}

    def test_resorts_by_score_despite_stated_ranks(self):
        run = parse_run("q1 Q0 d7 1 1.0 A\nq1 Q0 d9 2 5.0 A")
        assert run.rankings["q1"] == ("d9", "d7")

    def test_empty_ranking_rejected(self):
        with pytest.raises(DataError, match=r"^run 'A': topic 'q2' has an empty ranking$"):
            Run.from_rankings("A", {"q1": {"d1": 1.0}, "q2": {}})

    def test_tie_breaks_by_doc_id_descending(self):
        run = parse_run("q1 Q0 da 1 2.0 A\nq1 Q0 dc 2 2.0 A\nq1 Q0 db 3 2.0 A")
        assert run.rankings["q1"] == ("dc", "db", "da")

    def test_malformed_rank_is_parse_error_with_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_run("q1 Q0 d7 one 1.0 A")
        assert excinfo.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d7 1 1.0")

    def test_non_numeric_score(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d7 1 high A")

    def test_non_finite_score(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d7 1 nan A")

    def test_rank_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d7 0 1.0 A")

    def test_duplicate_doc_is_data_error(self):
        with pytest.raises(DataError):
            parse_run("q1 Q0 d7 1 1.0 A\nq1 Q0 d7 2 0.5 A")

    def test_conflicting_tags(self):
        with pytest.raises(DataError):
            parse_run("q1 Q0 d7 1 1.0 A\nq2 Q0 d7 1 1.0 B")

    def test_expected_tag_mismatch(self):
        with pytest.raises(DataError):
            parse_run("q1 Q0 d7 1 1.0 A", expected_tag="B")

    def test_blank_lines_and_crlf(self):
        run = parse_run("q1 Q0 d7 1 1.0 A\r\n\r\nq2 Q0 d8 1 2.0 A\r\n")
        assert run.topics == {"q1", "q2"}

    def test_empty_input_is_data_error(self):
        with pytest.raises(DataError):
            parse_run("")

    def test_deep_ranking_truncated_with_warning(self):
        lines = "\n".join(f"q1 Q0 d{i:04d} {i + 1} {-float(i)} A" for i in range(MAX_DEPTH + 5))
        with pytest.warns(DiagnosticWarning):
            run = parse_run(lines)
        assert len(run.rankings["q1"]) == MAX_DEPTH


class TestParseQrels:
    def test_basic(self):
        qrels = parse_qrels("q1 0 d7 2")
        assert qrels == Qrels({"q1": {"d7": 2}})

    def test_grade_out_of_range(self):
        with pytest.raises(DataError):
            parse_qrels("q1 0 d7 3")

    def test_negative_grade(self):
        with pytest.raises(DataError):
            parse_qrels("q1 0 d7 -1")

    def test_non_integer_grade(self):
        with pytest.raises(ParseError) as excinfo:
            parse_qrels("q1 0 d7 1\nq1 0 d8 x", path="q.txt")
        assert excinfo.value.line == 2 and excinfo.value.path == "q.txt"

    def test_conflicting_duplicate(self):
        with pytest.raises(DataError):
            parse_qrels("q1 0 d7 1\nq1 0 d7 2")

    def test_equal_duplicate_accepted_with_warning(self):
        with pytest.warns(DiagnosticWarning):
            qrels = parse_qrels("q1 0 d7 1\nq1 0 d7 1")
        assert qrels == Qrels({"q1": {"d7": 1}})

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 d7")

    def test_for_topic(self):
        qrels = parse_qrels("q1 0 d7 1\nq1 0 d8 0\nq2 0 d9 2")
        assert qrels.for_topic("q1").grades == {"d7": 1, "d8": 0}
        assert qrels.for_topic("missing").grades == {}


class TestJudged:
    RUN = "q1 Q0 da 1 3.0 A\nq1 Q0 db 2 2.0 A\nq1 Q0 dc 3 1.0 A\nq2 Q0 dd 1 1.0 A\n"
    QRELS = "q1 0 da 2\nq1 0 dc 0\nq3 0 dz 1\n"

    def test_grades_replace_doc_ids(self):
        run, qrels = parse_run(self.RUN), parse_qrels(self.QRELS)
        judged = run.judged(qrels)
        # Unjudged is None, distinct from grade 0; q2 has no judgments at all.
        assert judged == Run("A", {"q1": (2, None, 0), "q2": (None,)}, MAX_DEPTH, qrels)
        assert judged.qrels is qrels and run.qrels is None
        assert judged.topics == run.topics
        assert run.rankings == {"q1": ("da", "db", "dc"), "q2": ("dd",)}

    def test_judging_a_judged_run_is_a_type_error(self):
        """Its grades would be looked up as doc ids, so each would read as unjudged."""
        qrels = parse_qrels("q1 0 d1 1\n")
        judged = parse_run("q1 Q0 d1 1 2.0 S\n").judged(qrels)
        with pytest.raises(TypeError, match="^run 'S' is already judged$"):
            judged.judged(qrels)

    def test_depth_keeps_the_first_ranks(self):
        qrels = parse_qrels(self.QRELS)
        assert parse_run(self.RUN, depth=2).judged(qrels).rankings == {"q1": (2, None), "q2": (None,)}
        assert parse_run(self.RUN, depth=1).judged(qrels).rankings == {"q1": (2,), "q2": (None,)}

    def test_a_run_read_shallow_is_judged_no_deeper(self):
        run, qrels = parse_run(self.RUN, depth=2), parse_qrels(self.QRELS)
        assert run.depth == 2
        judged = run.judged(qrels)
        assert judged.depth == 2 and judged.rankings == {"q1": (2, None), "q2": (None,)}
        assert parse_run(self.RUN, depth=1).judged(qrels).depth == 1


class TestReadDepth:
    """A run read to ``depth`` keeps, of each topic, exactly the first ``depth``
    documents of the whole ranking, and records how deep it was read."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_whole_ranking_cut_to_depth(self, data):
        rnd = random.Random(data.draw(st.integers(0, 2**32)))  # fast for thousands of draws
        # Few distinct scores, so most documents tie; 0.0 and -0.0 compare equal.
        palette = data.draw(
            st.lists(st.sampled_from((-0.0, 0.0, 0.5, 1.0, -2.25)) | scores, min_size=1, max_size=4)
        )
        rankings = {}
        for topic in data.draw(st.lists(tokens, min_size=1, max_size=3, unique=True)):
            # One topic in ten is deeper than MAX_DEPTH, some deep enough to select at MAX_DEPTH.
            deep = rnd.random() < 0.1
            size = rnd.choice((MAX_DEPTH + 7, 2 * MAX_DEPTH + 3)) if deep else rnd.randint(1, 40)
            docs = [f"d{i}" for i in rnd.sample(range(5 * MAX_DEPTH), size)]
            rankings[topic] = {doc: rnd.choice(palette) for doc in docs}
        if data.draw(st.booleans()):  # a library caller's NaN: sorted as the whole ranking is
            topic = rnd.choice(sorted(rankings))
            rankings[topic][rnd.choice(sorted(rankings[topic]))] = math.nan
        longest = max(map(len, rankings.values()))
        depth = data.draw(st.integers(1, longest + 3) | st.sampled_from((MAX_DEPTH, MAX_DEPTH + 5)))
        with warnings.catch_warnings(record=True) as cut_warnings:
            warnings.simplefilter("always")
            cut = Run.from_rankings("T", rankings, depth)
        with warnings.catch_warnings(record=True) as whole_warnings:
            warnings.simplefilter("always")
            whole = Run.from_rankings("T", rankings)
        assert [str(w.message) for w in cut_warnings] == [str(w.message) for w in whole_warnings]
        kept = min(depth, MAX_DEPTH)
        assert cut.rankings == {topic: docs[:kept] for topic, docs in whole.rankings.items()}
        assert list(cut.rankings) == list(whole.rankings)
        assert cut.depth == (kept if kept < MAX_DEPTH else None)

    def test_a_shallow_depth_is_recorded(self):
        rankings = {"q1": {f"d{i}": float(i % 3) for i in range(30)}}
        assert Run.from_rankings("A", rankings, 4).rankings == {"q1": ("d8", "d5", "d29", "d26")}
        assert Run.from_rankings("A", rankings, 4).depth == 4
        assert Run.from_rankings("A", rankings, MAX_DEPTH).depth is None
        assert Run.from_rankings("A", rankings, MAX_DEPTH + 1).depth is None

    @pytest.mark.parametrize("depth", [0, -1])
    def test_a_depth_below_one_is_refused(self, depth):
        with pytest.raises(ValueError, match=f"^run 'A': depth must be >= 1, got {depth}$"):
            Run.from_rankings("A", {"q1": {"d1": 1.0}}, depth)
        with pytest.raises(ValueError, match=f"^run 'A': depth must be >= 1, got {depth}$"):
            parse_run("q1 Q0 d1 1 1.0 A", depth=depth)

    def test_load_run_reads_to_depth(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("".join(f"q1 Q0 d{i} {i} {30 - i} A\n" for i in range(1, 30)))
        run = load_run(path, "A", 3)
        assert run.rankings == {"q1": ("d1", "d2", "d3")} and run.depth == 3

    def test_a_topic_listed_again_later_is_checked_against_its_earlier_lines(self):
        text = "q1 Q0 d1 1 3.0 T\nq2 Q0 d1 1 3.0 T\nq1 Q0 d2 2 2.0 T\nq2 Q0 d2 2 2.0 T\nq1 Q0 d1 3 1.0 T"
        assert _error(parse_run, text) == ("DataError", 5, "5: duplicate document 'd1' for topic 'q1'")

    @settings(max_examples=150)
    @given(st.data())
    def test_interleaved_topics_read_as_grouped(self, data):
        """The same records with each topic's lines together, and with the
        topics interleaved line by line: the same run, or each file's first
        fault at its own line (``oracle_run_error``)."""
        rnd = data.draw(st.randoms(use_true_random=False))
        per_topic = [
            [(topic, f"d{rnd.randrange(12)}", repr(rnd.choice((0.5, 1.0, 2.25)))) for _ in range(rnd.randint(1, 8))]
            for topic in ("q1", "q2", "q3")[: rnd.randint(1, 3)]
        ]
        grouped = [record for records in per_topic for record in records]
        interleaved = [r for rank in zip(*(records + [None] * 8 for records in per_topic)) for r in rank if r]
        depth = data.draw(st.integers(1, 9) | st.just(MAX_DEPTH))
        texts = [
            "\n".join(f"{topic} Q0 {doc} {rank} {score} T" for rank, (topic, doc, score) in enumerate(rows, 1))
            for rows in (grouped, interleaved)
        ]
        parsed = []
        for text in texts:
            expected = oracle_run_error(text)
            if expected is None:
                parsed.append(parse_run(text, depth=depth))
            else:
                kind, line, message = expected
                assert _error(parse_run, text) == (kind, line, str(getattr(errors, kind)(message, line=line)))
        assert len(parsed) in (0, 2)  # the same records hold a duplicate in either order or in neither
        assert parsed[:1] == parsed[1:]


class TestParseTopics:
    def test_comments_and_blanks(self):
        assert parse_topics("# header\nq1\n\nq2\n") == {"q1", "q2"}

    def test_whitespace_in_id(self):
        with pytest.raises(ParseError):
            parse_topics("q1 extra")

    @pytest.mark.parametrize("text", ["", "# header\n\n"])
    def test_no_topic_names_the_path(self, text):
        with pytest.raises(DataError, match=r"^topics\.txt: topics file lists no topics$"):
            parse_topics(text, path="topics.txt")


class TestParseJson:
    def test_decoder_error_names_path_and_line(self):
        from persisteval.run_io import parse_json

        with pytest.raises(ParseError) as excinfo:
            parse_json('{"a": 1,\n  oops}', path="job.json")
        assert excinfo.value.path == "job.json" and excinfo.value.line == 2
        assert str(excinfo.value).startswith("job.json:2: invalid JSON: Expecting")

    def test_nesting_too_deep_names_the_path(self):
        from persisteval.run_io import parse_json

        with pytest.raises(ParseError, match=r"^deep\.json: invalid JSON"):
            parse_json("[" * 100_000, path="deep.json")

    def test_lone_surrogate_escape_names_path_and_line(self):
        from persisteval.run_io import parse_json

        with pytest.raises(ParseError) as excinfo:
            parse_json('{"a": "\\ud83d\\ude00",\n "b": ["x\\udc00"]}', path="job.json")
        assert str(excinfo.value) == "job.json:2: invalid JSON: a string holds a lone surrogate escape"

    def test_paired_surrogates_and_escaped_backslashes_decode(self):
        from persisteval.run_io import parse_json

        assert parse_json('["\\ud83d\\ude00", "C:\\\\ud800"]') == ["\U0001f600", "C:\\ud800"]


class TestJsonReaders:
    """json_checked and json_object: readers ``read(value, where)`` whose
    refusals name the field path ``where``."""

    FIELDS = (("base", str, None, MISSING, MISSING), ("target", str, None, MISSING, MISSING))

    @staticmethod
    def check(value):
        if value == "bad":
            raise ValueError("value is bad")
        if value == "data":
            raise DataError("labels must be non-empty")
        if value == "usage":
            raise UsageError("unknown mode 'usage'")
        if value == "type":
            raise TypeError("not a value")
        return value.upper()

    def test_checked_returns_the_check(self):
        assert json_checked(self.check)("ok", "options.mode") == "OK"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("bad", "options.mode: value is bad"),
            ("data", "options.mode: labels must be non-empty"),
            ("usage", "options.mode: unknown mode 'usage'"),
        ],
    )
    def test_checked_prefixes_the_path(self, value, message):
        with pytest.raises(ValueError) as excinfo:
            json_checked(self.check)(value, "options.mode")
        assert type(excinfo.value) is ValueError and str(excinfo.value) == message

    def test_checked_lets_a_type_error_pass(self):
        with pytest.raises(TypeError) as excinfo:
            json_checked(self.check)("type", "options.mode")
        assert str(excinfo.value) == "not a value"

    def test_object_builds_its_fields(self):
        read = json_object(self.FIELDS, tuple)
        assert read({"base": "t1", "target": "t2"}, "cells[0].pair") == ("t1", "t2")

    def test_object_refuses_a_non_object(self):
        read = json_object(self.FIELDS, tuple)
        with pytest.raises(ValueError) as excinfo:
            read(["t1", "t2"], "cells[0].pair")
        assert str(excinfo.value) == 'cells[0].pair must be an object, got ["t1", "t2"]'

    def test_object_refuses_an_unknown_key(self):
        read = json_object(self.FIELDS, tuple)
        with pytest.raises(ValueError) as excinfo:
            read({"base": "t1", "target": "t2", "topic": "q1"}, "cells[0].pair")
        assert str(excinfo.value) == "cells[0].pair.topic is not a field"

    def test_object_prefixes_the_path_to_a_refused_build(self):
        def build(values):
            raise DataError("evaluation environment labels must be non-empty")

        with pytest.raises(ValueError) as excinfo:
            json_object(self.FIELDS, build)({"base": "", "target": "t2"}, "cells[3].pair")
        message = "cells[3].pair: evaluation environment labels must be non-empty"
        assert str(excinfo.value) == message


class TestCoreTopics:
    def test_intersection(self):
        sets = {"t1": frozenset("ABC"), "t2": frozenset("BCD"), "t3": frozenset("CB")}
        assert core_topics(sets) == {"B", "C"}

    def test_disjoint_raises_naming_the_labels_in_order(self):
        with pytest.raises(DataError) as excinfo:
            core_topics({"t2": frozenset("A"), "t1": frozenset("B")})
        assert str(excinfo.value) == "core topic intersection across environments ['t2', 't1'] is empty"

    def test_empty_mapping_rejected(self):
        with pytest.raises(DataError):
            core_topics({})

    def test_single_set_identity(self):
        assert core_topics({"t1": frozenset("AB")}) == {"A", "B"}

    @given(st.lists(st.frozensets(tokens, max_size=6), min_size=1, max_size=5))
    def test_commutative_and_associative(self, sets):
        """The core does not depend on the order of the labels, and an empty
        core is refused in either order, naming the labels in that order."""
        expected = frozenset.intersection(*sets)
        labelled = {f"t{i}": topics for i, topics in enumerate(sets)}
        for ordered in (labelled, dict(reversed(labelled.items()))):
            if expected:
                assert core_topics(ordered) == expected
            else:
                with pytest.raises(DataError, match=re.escape(str(list(ordered)))):
                    core_topics(ordered)


class TestSnapshotTopics:
    QRELS = parse_qrels("q1 0 d1 1\nq2 0 d1 0\n")  # q2 is judged only
    RUNS = [parse_run("q1 Q0 d1 1 1.0 S\nq3 Q0 d1 1 1.0 S\n"), parse_run("q4 Q0 d2 1 1.0 P\n")]

    def test_topics_file_wins_over_larger_sets(self, tmp_path):
        path = tmp_path / "topics.txt"
        path.write_text("q1\nq9\n", encoding="utf-8")
        assert snapshot_topics(self.QRELS, self.RUNS, path) == {"q1", "q9"}

    def test_union_of_qrels_and_runs_without_a_topics_file(self):
        assert snapshot_topics(self.QRELS, self.RUNS) == {"q1", "q2", "q3", "q4"}

    def test_run_only_and_qrels_only_topics_are_kept(self):
        assert snapshot_topics(self.QRELS, self.RUNS[:1]) == {"q1", "q2", "q3"}
        assert snapshot_topics(self.QRELS, []) == {"q1", "q2"}


class TestCanonicalOrderOracle:
    """The stored rankings and judgments against maps built here from the
    lines themselves."""

    @given(st.data())
    def test_run_rankings(self, data):
        rnd = data.draw(st.randoms(use_true_random=False))
        topics = data.draw(st.lists(tokens, min_size=1, max_size=3, unique=True))
        pairs: dict[str, list[tuple[str, float]]] = {}
        for topic in topics:
            depth = data.draw(st.one_of(st.integers(1, 20), st.just(MAX_DEPTH + 7)))
            docs = [f"d{i}" for i in rnd.sample(range(5 * MAX_DEPTH), depth)]
            # Few distinct scores, so most documents tie on score.
            pairs[topic] = [(doc, rnd.choice((-2.5, 0.0, 0.125, 1.0))) for doc in docs]
        rows = [(topic, doc, score) for topic in topics for doc, score in pairs[topic]]
        rnd.shuffle(rows)
        text = "\n".join(
            f"{topic} Q0 {doc} {rank} {score!r} T"
            for rank, (topic, doc, score) in enumerate(rows, start=1)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            run = parse_run(text)
        assert set(run.rankings) == set(topics)
        for topic in topics:
            ranked = sorted(pairs[topic], key=lambda p: (p[1], p[0]), reverse=True)[:MAX_DEPTH]
            assert run.rankings[topic] == tuple(doc for doc, _ in ranked)

    @given(st.lists(st.tuples(tokens, tokens, st.sampled_from((0, 1, 2))), max_size=30))
    def test_qrels_judgments(self, rows):
        # Repeat each (topic, doc)'s first grade, so no two lines conflict.
        first: dict[tuple[str, str], int] = {}
        for topic, doc, grade in rows:
            first.setdefault((topic, doc), grade)
        expected: dict[str, dict[str, int]] = {}
        for (topic, doc), grade in first.items():
            expected.setdefault(topic, {})[doc] = grade
        text = "\n".join(f"{topic} 0 {doc} {first[topic, doc]}" for topic, doc, _ in rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            assert parse_qrels(text) == Qrels(expected)


class TestRoundTrip:
    @given(runs_strategy())
    def test_run_round_trip(self, run):
        assert parse_run(format_run(run)) == run

    def test_serialized_topics_sorted(self):
        run = parse_run("q2 Q0 d1 1 1.0 A\nq1 Q0 d2 1 1.0 A")
        lines = format_run(run).splitlines()
        assert [line.split()[0] for line in lines] == ["q1", "q2"]

    def test_qrels_round_trip(self):
        qrels = parse_qrels("q2 0 d1 1\nq1 0 d2 0\nq1 0 d3 2")
        assert parse_qrels(format_qrels(qrels)) == qrels


class TestInputBoundary:
    """Every input gives a value or an EvaluationError, never another
    exception (and so never a traceback from the command line)."""

    @given(st.text(max_size=200))
    def test_parsers_on_arbitrary_text(self, text):
        for parse in (parse_run, parse_qrels, parse_topics, lambda t: parse_manifest(t, "m")):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DiagnosticWarning)
                    parse(text)
            except EvaluationError:
                pass

    @given(st.binary(max_size=200))
    def test_loaders_on_arbitrary_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(data)
            for load in (load_run, load_qrels, load_topics, load_manifest):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DiagnosticWarning)
                        load(path)
                except EvaluationError:
                    pass

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_bytes(b"q1 Q0 d1 1 1.0 tag\nq1 Q0 d\xff2 2 0.5 tag\n")
        with pytest.raises(ParseError) as excinfo:
            load_run(path)
        assert excinfo.value.path == str(path) and excinfo.value.line == 2


def _error(parse, *args):
    """(class name, line, message) of the error ``parse(*args)`` raises."""
    with pytest.raises(EvaluationError) as excinfo:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            parse(*args)
    return type(excinfo.value).__name__, excinfo.value.line, str(excinfo.value)


class TestFirstFaultWins:
    """Across kinds of fault, the one on the earliest line is reported; on
    one line, the checks run in a fixed order."""

    def test_bad_rank_before_a_later_field_count(self):
        text = "q1 Q0 d1 1 3.0 T\nq1 Q0 d2 2 2.0 T\nq1 Q0 d3 three 1.0 T\nq1 Q0 d4 4 0.5 T\nq1 Q0 d5 5"
        assert _error(parse_run, text) == ("ParseError", 3, "3: non-integer rank 'three'")

    def test_field_count_before_a_later_bad_rank(self):
        text = "q1 Q0 d1 1 3.0 T\nq1 Q0 d2 2.0 T\nq1 Q0 d3 x 1.0 T"
        assert _error(parse_run, text) == (
            "ParseError", 2, "2: expected 6 fields (topic iteration doc rank score tag), got 5"
        )

    def test_duplicate_document_before_a_later_conflicting_tag(self):
        text = "q1 Q0 d1 1 3.0 T\nq1 Q0 d1 2 2.0 T\nq1 Q0 d3 3 1.0 U"
        assert _error(parse_run, text) == (
            "DataError", 2, "2: duplicate document 'd1' for topic 'q1'"
        )

    def test_conflicting_tag_before_a_later_duplicate_document(self):
        text = "q1 Q0 d1 1 3.0 T\nq1 Q0 d2 2 2.0 U\nq1 Q0 d1 3 1.0 T"
        assert _error(parse_run, text) == ("DataError", 2, "2: conflicting run tags 'T' and 'U'")

    def test_parse_error_on_a_line_before_a_data_error(self):
        text = "q1 Q0 d1 1 3.0 T\nq1 Q0 d2 2 nan T\nq1 Q0 d1 3 1.0 U"
        assert _error(parse_run, text) == ("ParseError", 2, "2: non-finite score 'nan'")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("q1 Q0 d1 x nan", "expected 6 fields (topic iteration doc rank score tag), got 5"),
            ("q1 Q0 d1 x nan T", "non-integer rank 'x'"),
            ("q1 Q0 d1 0 high T", "rank must be >= 1, got 0"),
            ("q1 Q0 d1 1 high U", "non-numeric score 'high'"),
            ("q1 Q0 d1 1 inf U", "non-finite score 'inf'"),
            ("q1 Q0 d0 1 1.0 U", "conflicting run tags 'T' and 'U'"),
        ],
    )
    def test_check_order_within_a_line(self, line, message):
        kind = "ParseError" if "tags" not in message else "DataError"
        assert _error(parse_run, f"q1 Q0 d0 1 2.0 T\n{line}") == (kind, 2, f"2: {message}")

    def test_qrels_grade_before_a_later_field_count(self):
        text = "q1 0 d1 1\nq1 0 d2 5\nq1 0 d3"
        assert _error(parse_qrels, text) == (
            "DataError", 2, "2: relevance grade 5 out of range {0, 1, 2}"
        )


class TestLineNumbers:
    """Blank and whitespace-only lines are skipped but still counted."""

    def test_run(self):
        assert _error(parse_run, "\n   \n\t \nq1 Q0 d1 x 1.0 T")[1] == 4

    def test_run_expected_tag_names_the_first_record(self):
        assert _error(parse_run, " \n\nq1 Q0 d1 1 1.0 T\nq1 Q0 d2 2 0.5 T", "U")[1] == 3

    def test_qrels(self):
        assert _error(parse_qrels, "\t\n\nq1 0 d1 1\n  \nq1 0 d2 x")[1] == 5

    def test_topics(self):
        assert _error(parse_topics, "# header\n \n\nq1\nq2 q3")[1] == 5

    def test_manifest(self):
        assert _error(parse_manifest, "\n  \t \na\t1\nb\t-2", "m")[1] == 4

    # Characters that str.splitlines breaks at but that are whitespace
    # inside a line: only LF ends a line, so none moves the fault's line.
    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_run, "q1 Q0 d1 1 1.0 T{}\nq1 Q0 d2 x 0.5 T"),
            (parse_qrels, "q1 0 d1 1{}\nq1 0 d2 x"),
            (parse_topics, "q1{}\nq2 q3"),
            (lambda text: parse_manifest(text, "m"), "a\t1{}\nb\t-2"),
        ],
        ids=["run", "qrels", "topics", "manifest"],
    )
    def test_only_a_line_feed_ends_a_line(self, parse, text, space):
        assert _error(parse, text.format(space))[1] == 2


class TestManifestBlankLines:
    @pytest.mark.parametrize("blank", ["", "   ", "\t", "  \t ", "\t\t", " \t \t "])
    def test_whitespace_and_tabs_only_is_blank(self, blank):
        assert parse_manifest(f"a\t1\n{blank}\nb\t2\n", "m").docs == {"a": 1, "b": 2}

    def test_empty_url_next_to_a_length_is_an_error(self):
        assert _error(parse_manifest, "a\t1\n \t 5", "m") == ("ParseError", 2, "2: empty url")

    def test_field_count(self):
        assert _error(parse_manifest, "a\t1\tx", "m") == (
            "ParseError", 1, "1: expected 'url<TAB>length', got 3 tab-separated fields"
        )


# Ways to break one record of a valid run.
FAULTS = {
    "field count": lambda rec, rnd, _: rec[: rnd.randint(1, 5)] + (["x"] if rnd.random() < 0.3 else []),
    "extra field": lambda rec, rnd, _: rec + ["extra"] * rnd.randint(1, 2),
    "rank": lambda rec, rnd, _: rec[:3] + [rnd.choice(["one", "1.0", "1e3", "0x1"])] + rec[4:],
    "rank low": lambda rec, rnd, _: rec[:3] + [rnd.choice(["0", "-3"])] + rec[4:],
    "score": lambda rec, rnd, _: rec[:4] + [rnd.choice(["high", "1,5", "--1"])] + rec[5:],
    "non-finite": lambda rec, rnd, _: rec[:4] + [rnd.choice(["nan", "inf", "-Infinity"])] + rec[5:],
    "tag": lambda rec, rnd, _: rec[:5] + ["U"],
    "duplicate": lambda rec, rnd, earlier: (
        [earlier[0], "Q0", earlier[2]] + rec[3:] if earlier else rec[:5] + ["U"]
    ),
}


class TestRunErrorOracle:
    """``parse_run`` against ``oracle_run_error`` on valid runs with one or
    two faults injected."""

    @settings(max_examples=300)
    @given(st.data())
    def test_injected_faults(self, data):
        rnd = data.draw(st.randoms(use_true_random=False))
        records = []
        for topic in ("q1", "q2", "q3")[: rnd.randint(1, 3)]:
            for rank in range(1, rnd.randint(2, 6)):
                records.append([topic, "Q0", f"d{rank}", str(rank), repr(rnd.uniform(-5, 5)), "T"])
        rnd.shuffle(records)
        index = rnd.randrange(len(records))
        for _ in range(data.draw(st.integers(1, 2))):
            # A second fault lands on the same record a third of the time.
            if rnd.random() > 1 / 3:
                index = rnd.randrange(len(records))
            # A record an earlier fault cut short has no doc to repeat.
            earlier = rnd.choice([r for r in records[:index] if len(r) >= 3] or [None])
            fault = data.draw(st.sampled_from(sorted(FAULTS)))
            records[index] = FAULTS[fault](records[index], rnd, earlier)
        lines = [" ".join(rec) for rec in records]
        for _ in range(rnd.randint(0, 3)):
            lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "  ", "\t"]))
        text = rnd.choice(["\n", "\r\n"]).join(lines)
        expected_tag = data.draw(st.sampled_from([None, "T", "U"]))
        expected = oracle_run_error(text, expected_tag)
        if expected is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DiagnosticWarning)
                parse_run(text, expected_tag)
            return
        kind, line, message = expected
        assert _error(parse_run, text, expected_tag) == (
            kind, line, str(getattr(errors, kind)(message, line=line))
        )

    def test_oracle_finds_nothing_in_a_valid_run(self):
        assert oracle_run_error("q1 Q0 d1 1 1.0 T\n\nq1 Q0 d2 2 0.5 T", "T") is None
        assert oracle_run_error("") == ("DataError", None, "run file contains no records")
