from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from persisteval.corpus_diff import (
    CorpusSnapshot,
    diff_collections,
    format_diff,
    parse_manifest,
    snapshot_from_dir,
)
from persisteval.errors import DataError, ParseError

from oracles import oracle_diff_counts, oracle_diff_urls

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


def snap(label, docs):
    return CorpusSnapshot(label=label, docs=docs)


class TestParseManifest:
    def test_basic(self):
        snapshot = parse_manifest("http://a\t10\nhttp://b\t0\n", "s1")
        assert snapshot.docs == {"http://a": 10, "http://b": 0}

    def test_missing_tab(self):
        with pytest.raises(ParseError):
            parse_manifest("http://a 10", "s1")

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


class TestSnapshotFromDir(object):
    def test_directory_lengths(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.txt").write_text("hello", encoding="utf-8")
        (tmp_path / "sub" / "b.txt").write_text("hi there", encoding="utf-8")
        snapshot = snapshot_from_dir(tmp_path, "dir1")
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
    def test_url_lists_and_verbose_text_match_the_oracle(self, a_docs, b_docs):
        summary = diff_collections(snap("a", a_docs), snap("b", b_docs))
        expected = oracle_diff_urls(a_docs, b_docs)
        assert [(name, list(urls)) for name, urls in summary.urls()] == list(expected.items())
        lines = ["comparing a -> b"]
        lines += [f"{name:<9} {len(urls)}" for name, urls in expected.items()]
        lines += [f"{name}\t{url}" for name, urls in expected.items() for url in urls]
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
