from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persisteval.corpus_diff import load_manifest, parse_manifest
from persisteval.errors import DataError, DiagnosticWarning, EvaluationError, ParseError
from persisteval.run_io import (
    MAX_DEPTH,
    Run,
    core_topics,
    load_qrels,
    load_run,
    load_topics,
    parse_qrels,
    parse_run,
    parse_topics,
)
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
    return rankings.map(
        lambda r: Run.from_rankings("tagx", {t: docs.items() for t, docs in r.items()})
    )


class TestParseRun:
    def test_single_line(self):
        run = parse_run("q1 Q0 d7 1 14.89 BM25")
        assert run.run_tag == "BM25"
        assert run.rankings == {"q1": ("d7",)}

    def test_resorts_by_score_despite_stated_ranks(self):
        run = parse_run("q1 Q0 d7 1 1.0 A\nq1 Q0 d9 2 5.0 A")
        assert run.rankings["q1"] == ("d9", "d7")

    def test_tie_breaks_by_doc_id_descending(self):
        run = parse_run("q1 Q0 da 1 2.0 A\nq1 Q0 dc 2 2.0 A\nq1 Q0 db 3 2.0 A")
        assert run.docs("q1") == ("dc", "db", "da")

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
        assert qrels.judgments == {"q1": {"d7": 2}}

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
        assert qrels.judgments == {"q1": {"d7": 1}}

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 d7")

    def test_for_topic(self):
        qrels = parse_qrels("q1 0 d7 1\nq1 0 d8 0\nq2 0 d9 2")
        assert qrels.for_topic("q1") == {"d7": 1, "d8": 0}
        assert qrels.for_topic("missing") == {}


class TestParseTopics:
    def test_comments_and_blanks(self):
        assert parse_topics("# header\nq1\n\nq2\n") == {"q1", "q2"}

    def test_whitespace_in_id(self):
        with pytest.raises(ParseError):
            parse_topics("q1 extra")


class TestCoreTopics:
    def test_intersection(self):
        sets = [frozenset("ABC"), frozenset("BCD"), frozenset("CB")]
        assert core_topics(sets) == {"B", "C"}

    def test_disjoint_warns(self):
        with pytest.warns(DiagnosticWarning):
            assert core_topics([frozenset("A"), frozenset("B")]) == frozenset()

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            core_topics([])

    def test_single_set_identity(self):
        assert core_topics([frozenset("AB")]) == {"A", "B"}

    @given(st.lists(st.frozensets(tokens, max_size=6), min_size=1, max_size=5))
    def test_commutative_and_associative(self, sets):
        expected = frozenset(sets[0]).intersection(*sets[1:]) if len(sets) > 1 else sets[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagnosticWarning)
            assert core_topics(sets) == expected
            assert core_topics(list(reversed(sets))) == expected


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
            assert parse_qrels(text).judgments == expected


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
