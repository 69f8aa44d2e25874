from __future__ import annotations

import json
import os
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persisteval.corpus_diff import (
    CorpusSnapshot,
    DiffSummary,
    diff_collections,
    diff_json,
    format_diff,
    parse_manifest,
    snapshot_from_dir,
)
from persisteval.errors import DataError, EvaluationError, ParseError

from oracles import oracle_diff_counts, oracle_diff_urls, oracle_label, oracle_manifest

lengths = st.integers(min_value=0, max_value=10_000)
url_maps = st.dictionaries(
    keys=st.text(alphabet="abcdefgh/.:-0123456789", min_size=1, max_size=12),
    values=lengths,
    max_size=20,
)
# URLs as --from-dirs file names can hold them: spaces, tabs, non-ASCII
# characters and line breaks; few lengths, so shared URLs often keep theirs.
odd_url_maps = st.dictionaries(
    keys=st.text(alphabet="ab/ \t\né東", max_size=4) | st.text(max_size=3),
    values=st.integers(min_value=0, max_value=2),
    max_size=12,
)
# Every character str.strip removes, except the tab and line feed that
# delimit a manifest's fields and lines. int() alone refuses \x1c-\x1f.
STRIPPED = [c for c in map(chr, range(sys.maxunicode + 1)) if not c.strip() and c not in "\t\n"]
# Manifest texts: free text, and records whose fields mostly look like a URL
# and a length but may hold a separator, padding or a sign, so that the
# one-split read, the line-by-line read after it and every fault all occur.
MANIFEST_ALPHABET = "\t\n \r\x1c-_+0123456789abu"
manifest_fields = st.text(alphabet=MANIFEST_ALPHABET, max_size=3)
manifest_records = st.tuples(
    st.text(alphabet="abu", min_size=1, max_size=2) | manifest_fields,
    st.integers(min_value=-2, max_value=20).map(str) | manifest_fields,
)
manifest_texts = st.text(alphabet=MANIFEST_ALPHABET, max_size=16) | st.builds(
    lambda records, end: "\n".join(f"{url}\t{length}" for url, length in records) + end,
    st.lists(manifest_records, max_size=6),
    st.sampled_from(["", "\n"]),
)


def snap(label, docs):
    return CorpusSnapshot(label=label, docs=docs)


class TestParseManifest:
    def test_basic(self):
        snapshot = parse_manifest("http://a\t10\nhttp://b\t0\n", "s1")
        assert snapshot.docs == {"http://a": 10, "http://b": 0}

    def test_missing_tab(self):
        with pytest.raises(ParseError):
            parse_manifest("http://a 10", "s1")

    def test_path_not_utf8_is_escaped_in_the_message_only(self):
        path = os.fsdecode(b"dir\xff/m.tsv")
        with pytest.raises(ParseError) as excinfo:
            parse_manifest("http://a 10", "s1", path=path)
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith("dir\\xff/m.tsv:1: ")

    def test_non_integer_length(self):
        with pytest.raises(ParseError):
            parse_manifest("http://a\tten", "s1")

    def test_negative_length(self):
        with pytest.raises(DataError):
            parse_manifest("http://a\t-3", "s1")

    def test_duplicate_url(self):
        with pytest.raises(DataError):
            parse_manifest("u\t1\nu\t2", "s1")

    def test_blank_lines_skipped(self):
        snapshot = parse_manifest("u\t1\n\n\nv\t2\n", "s1")
        assert len(snapshot.docs) == 2

    def test_stripped_characters_cover_the_separators_and_unicode_spaces(self):
        assert set("\x1c\x1d\x1e\x1f\x85\xa0\u3000") <= set(STRIPPED)

    @settings(max_examples=300)
    @given(manifest_texts)
    @example("u\t1\nv\t2\n")
    @example("u\t1\nv\t2")
    @example("")
    @example("\n")
    @example("u\t1\n\nv\t2\n")
    @example("u\t1\n\t\nv\t2\n")
    @example("u\t1\r\nv\t2\r\n")
    @example("u\t\x1c7\n")
    @example("u\t1\n u\t1\n")
    @example("u\t-1")
    @example("u\t-0")
    @example("u\t1\t2")
    @example("\t5")
    @example("u\n1\n")  # no line with two tabs, but one with none
    @example("u\t1\t2\n3\n")  # as many tabs as lines, but two on line 1
    def test_matches_the_line_by_line_oracle(self, text):
        expected = oracle_manifest(text)
        if isinstance(expected, list):
            # In file order: CorpusSnapshot equality ignores the order of docs.
            assert list(parse_manifest(text, "s1").docs.items()) == expected
            return
        kind, line, message = expected
        with pytest.raises(EvaluationError) as excinfo:
            parse_manifest(text, "s1")
        assert (type(excinfo.value).__name__, excinfo.value.line) == (kind, line)
        assert str(excinfo.value) == f"{line}: {message}"

    @pytest.mark.parametrize("pad", STRIPPED, ids=lambda c: f"U+{ord(c):04X}")
    def test_a_length_padded_with_what_strip_removes_parses(self, pad):
        assert parse_manifest(f"u\t{pad}{pad}7{pad}\n", "s1").docs == {"u": 7}
        with pytest.raises(ParseError) as excinfo:
            parse_manifest(f"u\t{pad}7 x{pad}\n", "s1")
        assert str(excinfo.value) == "1: non-integer length '7 x'"


class TestSnapshotFromDir(object):
    def test_directory_lengths(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.txt").write_text("hello", encoding="utf-8")
        (tmp_path / "sub" / "b.txt").write_text("hi there", encoding="utf-8")
        snapshot = snapshot_from_dir(tmp_path)
        assert snapshot.docs == {"a.txt": 5, "sub/b.txt": 8}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ParseError):
            snapshot_from_dir(tmp_path / "nope")


class TestDiff:
    def test_definitional_classification(self):
        summary = diff_collections(snap("a", {"u1": 10, "u2": 20}), snap("b", {"u2": 25, "u3": 5}))
        assert (summary.added, summary.removed, summary.changed, summary.unchanged) == (1, 1, 1, 0)

    def test_identity(self):
        docs = {"u1": 10, "u2": 20}
        summary = diff_collections(snap("a", docs), snap("b", dict(docs)))
        assert summary.added == summary.removed == summary.changed == 0
        assert summary.unchanged == 2

    def test_url_lists_always_kept(self):
        a, b = snap("a", {"u1": 1, "u2": 2, "u3": 3}), snap("b", {"u2": 3, "u4": 1, "u3": 3})
        summary = diff_collections(a, b)
        assert summary.added_urls == ("u4",)
        assert summary.removed_urls == ("u1",)
        assert summary.changed_urls == ("u2",)
        assert summary.unchanged_urls == ("u3",)
        assert summary.to_dict() == {"added": 1, "removed": 1, "changed": 1, "unchanged": 1}

    def test_random_pair_matches_set_algebra_oracle(self):
        rng = random.Random(200)
        universe = [f"url{i:04d}" for i in range(300)]
        a_docs = {u: rng.randint(0, 50) for u in rng.sample(universe, 200)}
        b_docs = {u: rng.randint(0, 50) for u in rng.sample(universe, 200)}
        summary = diff_collections(snap("a", a_docs), snap("b", b_docs))
        expected = oracle_diff_counts(a_docs, b_docs)
        assert summary.added == expected["added"]
        assert summary.removed == expected["removed"]
        assert summary.changed == expected["changed"]
        assert summary.unchanged == expected["unchanged"]

    @given(url_maps, url_maps)
    def test_swap_symmetry(self, a_docs, b_docs):
        forward = diff_collections(snap("a", a_docs), snap("b", b_docs))
        backward = diff_collections(snap("b", b_docs), snap("a", a_docs))
        assert forward.added == backward.removed
        assert forward.removed == backward.added
        assert forward.changed == backward.changed
        assert forward.unchanged == backward.unchanged

    @given(url_maps, url_maps)
    def test_counts_identity(self, a_docs, b_docs):
        summary = diff_collections(snap("a", a_docs), snap("b", b_docs))
        shared = set(a_docs) & set(b_docs)
        assert summary.changed + summary.unchanged == len(shared)
        assert summary.added == len(set(b_docs) - set(a_docs))
        assert summary.removed == len(set(a_docs) - set(b_docs))

    @given(url_maps)
    def test_self_diff(self, docs):
        summary = diff_collections(snap("a", docs), snap("a", dict(docs)))
        assert summary.added == summary.removed == summary.changed == 0
        assert summary.unchanged == len(docs)


class TestOneScanDiff:
    """diff_collections and format_diff against the set-algebra oracle."""

    @given(odd_url_maps, odd_url_maps)
    @example({}, {})
    @example({}, {"a b": 0})
    @example({"é\t東": 0}, {})
    @example({"u": 0, "v": 1}, {"u": 0, "v": 1})
    @example({"u": 0, "v": 1}, {"u": 1, "v": 0})
    @example({"a\tb": 0, "w": 0, "u": 0, "v": 1}, {"u": 0, "v": 2, "x": 0})  # only removed escapes
    def test_url_lists_and_verbose_text_match_the_oracle(self, a_docs, b_docs):
        summary = diff_collections(snap("a", a_docs), snap("b", b_docs))
        expected = oracle_diff_urls(a_docs, b_docs)
        assert [(name, list(urls)) for name, urls in summary.urls()] == list(expected.items())
        lines = ["comparing a -> b"]
        lines += [f"{name:<9} {len(urls)}" for name, urls in expected.items()]
        # Each URL is one line of two fields, its non-printable characters escaped.
        lines += [f"{name}\t{oracle_label(url)}" for name, urls in expected.items() for url in urls]
        assert format_diff(summary, "a", "b", verbose=True) == "\n".join(lines) + "\n"
        assert format_diff(summary, "a", "b") == "\n".join(lines[:5]) + "\n"


class TestFormatting:
    def test_counts_only(self):
        summary = diff_collections(snap("a", {"u": 1}), snap("b", {"u": 2}))
        text = format_diff(summary, "a", "b")
        assert "changed   1" in text
        assert len(text.splitlines()) == 5  # heading + four count lines, no URLs

    def test_verbose_lists(self):
        summary = diff_collections(snap("a", {"u": 1}), snap("b", {"u": 2}))
        text = format_diff(summary, "a", "b", verbose=True)
        assert "changed\tu" in text


# Labels and URLs as --from-dirs names can hold them: quotes, backslashes,
# control characters, tabs, line breaks and non-ASCII text.
json_texts = st.text(alphabet='"\\/\t\n\r\x00\x1f\x7fa é東\u2028\U0001f600', max_size=4) | st.text(
    max_size=3
)
url_lists = st.lists(json_texts, max_size=4, unique=True).map(lambda urls: tuple(sorted(urls)))


class TestDiffJson:
    """diff_json gives exactly json.dumps(payload, indent=2, sort_keys=True) + "\\n"."""

    @given(st.tuples(json_texts, json_texts), st.tuples(*[url_lists] * 4), st.booleans())
    @example(("a", "b"), ((),) * 4, True)
    @example(("a", "b"), ((),) * 4, False)
    @example(('"\\', "\t\n"), (("\x00",), (), ("é", "東"), ("\U0001f600",)), True)
    def test_matches_json_dumps(self, labels, classes, include_urls):
        payload = dict(zip("ab", labels), **DiffSummary(*classes).to_dict(include_urls=include_urls))
        assert diff_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
