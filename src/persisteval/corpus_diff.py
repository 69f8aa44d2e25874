"""Classify how a document collection evolved between two snapshots.

Snapshots are URL-keyed manifests mapping each document URL to its content
length in characters. Between snapshot ``a`` (older) and ``b`` (newer):

- added: URL only in b
- removed: URL only in a
- changed: URL in both with differing lengths
- unchanged: URL in both with equal lengths

Length inequality is a deliberately coarse update detector; edits that
keep the length identical are invisible. Manifests are tab-separated
``url<TAB>length`` lines; a snapshot can also be derived from a directory
of text files, using each file's relative path as its URL.
"""

from __future__ import annotations

import json
import os
import re
from collections import namedtuple
from pathlib import Path

from .errors import DataError, ParseError, Record, one_line
from .run_io import read_input


class CorpusSnapshot(Record, namedtuple("CorpusSnapshot", "label docs")):
    """A snapshot's label and its url -> length map."""

    __slots__ = ()


_CLASSES = ("added", "removed", "changed", "unchanged")
_TWO_TABS = re.compile("\t[^\t\n]*\t")


class DiffSummary(
    Record, namedtuple("DiffSummary", [f"{name}_urls" for name in _CLASSES], defaults=((),) * 4)
):
    """The sorted URLs of each class; each count is the length of its list."""

    __slots__ = ()

    added = property(lambda self: len(self.added_urls))
    removed = property(lambda self: len(self.removed_urls))
    changed = property(lambda self: len(self.changed_urls))
    unchanged = property(lambda self: len(self.unchanged_urls))

    def urls(self) -> list[tuple[str, tuple[str, ...]]]:
        """(class, sorted URLs) for each class, in the order of _CLASSES."""
        return list(zip(_CLASSES, self))

    def to_dict(self, *, include_urls: bool = False) -> dict:
        payload = {name: len(urls) for name, urls in self.urls()}
        if include_urls:
            payload.update((f"{name}_urls", list(urls)) for name, urls in self.urls())
        return payload


def parse_manifest(text: str, label: str, *, path: str | None = None) -> CorpusSnapshot:
    """Parse a ``url<TAB>length`` manifest's text. Lengths must be non-negative
    integers and URLs unique. A manifest whose every line is one record is read
    with one split of its text; any other text line by line, to name its first fault."""
    lines = text.count("\n") + (not text.endswith("\n"))  # at least 1
    # As many tabs as lines and no line with two: each line holds one tab, or no split is made.
    if text.count("\t") == lines and not _TWO_TABS.search(text):
        fields = text.replace("\n", "\t").split("\t")
        try:  # zip drops the empty field after a final line feed
            docs = dict(zip(map(str.strip, fields[::2]), map(int, fields[1::2])))
        except ValueError:
            docs = {}
        if len(docs) == lines and "" not in docs and min(docs.values()) >= 0:
            return CorpusSnapshot(label=label, docs=docs)
        del fields  # freed before the lines are split, so both never live at once
    docs = {}
    for number, line in enumerate(text.split("\n"), start=1):
        try:
            url, length_text = line.split("\t")
        except ValueError:
            if not line.strip():
                continue
            fields = line.count("\t") + 1
            raise ParseError(
                f"expected 'url<TAB>length', got {fields} tab-separated fields",
                line=number,
                path=path,
            ) from None
        url, length_text = url.strip(), length_text.strip()
        if not url:
            if not length_text:  # only spaces and one tab: a blank line
                continue
            raise ParseError("empty url", line=number, path=path)
        try:
            length = int(length_text)
        except ValueError:
            raise ParseError(f"non-integer length {length_text!r}", line=number, path=path) from None
        if length < 0:
            raise DataError(f"negative length {length} for url {url!r}", line=number, path=path)
        if url in docs:
            raise DataError(f"duplicate url {url!r}", line=number, path=path)
        docs[url] = length
    return CorpusSnapshot(label=label, docs=docs)


def _utf8(name: str, path: str | Path) -> str:
    """``name`` if UTF-8 can encode it, else a ParseError naming ``path``."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("file name is not UTF-8", path=str(path)) from None
    return name


def load_manifest(path: str | Path) -> CorpusSnapshot:
    label = _utf8(Path(path).name, path)
    return parse_manifest(read_input(path), label, path=str(path))


def snapshot_from_dir(path: str | Path) -> CorpusSnapshot:
    """Derive a snapshot from a directory of text files: each regular file
    becomes one document, keyed by its path relative to the directory, with
    the character count of its decoded content as the length. A subdirectory
    it cannot list, or a file it cannot read or name in UTF-8, is a ParseError naming it."""
    root = Path(path)
    if not root.is_dir():
        raise ParseError(f"not a directory: {path}", path=str(path))
    label = _utf8(os.path.basename(os.path.abspath(root)), root)

    def unlistable(exc: OSError):
        raise ParseError(f"cannot list {exc.filename}: {exc}", path=exc.filename) from exc

    docs: dict[str, int] = {}
    # Like Path.rglob: symlinked directories are not entered, symlinked files count.
    for directory, subdirectories, names in os.walk(root, onerror=unlistable):
        subdirectories.sort()  # a fixed order, so one tree always fails at one file
        for file_path in filter(Path.is_file, map(Path(directory).joinpath, sorted(names))):
            url = _utf8(file_path.relative_to(root).as_posix(), file_path)
            try:
                docs[url] = len(file_path.read_text(encoding="utf-8", errors="replace"))
            except OSError as exc:
                raise ParseError(f"cannot read {file_path}: {exc}", path=str(file_path)) from exc
    return CorpusSnapshot(label=label, docs=docs)


def diff_collections(a: CorpusSnapshot, b: CorpusSnapshot) -> DiffSummary:
    """Classify every URL of the two snapshots: one pass over a, one set difference."""
    removed, changed, unchanged, missing, get = [], [], [], object(), b.docs.get
    for url, length in a.docs.items():
        other = get(url, missing)
        if other is missing:
            removed.append(url)
        elif other == length:
            unchanged.append(url)
        else:
            changed.append(url)
    added = b.docs.keys() - a.docs.keys()
    return DiffSummary(*(tuple(sorted(urls)) for urls in (added, removed, changed, unchanged)))


def format_diff(summary: DiffSummary, a_label: str, b_label: str, *, verbose: bool = False) -> str:
    """Human-readable summary; with ``verbose`` each non-empty class then lists its URLs,
    one ``class<TAB>url`` line each. Each label and URL is written ``one_line``."""
    lines = [f"comparing {one_line(a_label)} -> {one_line(b_label)}"]
    lines.extend(f"{name:<9} {len(urls)}" for name, urls in summary.urls())
    if verbose:
        escaped = ((name, urls if "".join(urls).isprintable() else map(one_line, urls))
                   for name, urls in summary.urls() if urls)
        lines.extend(f"{name}\t" + f"\n{name}\t".join(urls) for name, urls in escaped)
    return "\n".join(lines) + "\n"


def diff_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` for a flat payload of labels,
    counts and URL lists, encoding each list in one C call (``indent`` forces pure Python)."""
    def encode(value) -> str:
        if not isinstance(value, list) or not value:
            return json.dumps(value)
        return "[\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  ]"

    fields = (f"  {json.dumps(key)}: {encode(value)}" for key, value in sorted(payload.items()))
    return "{\n" + ",\n".join(fields) + "\n}\n"
