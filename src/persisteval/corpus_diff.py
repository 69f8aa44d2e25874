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

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DataError, ParseError
from .run_io import read_input


@dataclass(frozen=True)
class CorpusSnapshot:
    label: str
    docs: Mapping[str, int]


_CLASSES = ("added", "removed", "changed", "unchanged")


@dataclass(frozen=True)
class DiffSummary:
    """The sorted URLs of each class; each count is the length of its list."""

    added_urls: tuple[str, ...] = ()
    removed_urls: tuple[str, ...] = ()
    changed_urls: tuple[str, ...] = ()
    unchanged_urls: tuple[str, ...] = ()

    added = property(lambda self: len(self.added_urls))
    removed = property(lambda self: len(self.removed_urls))
    changed = property(lambda self: len(self.changed_urls))
    unchanged = property(lambda self: len(self.unchanged_urls))

    def urls(self) -> list[tuple[str, tuple[str, ...]]]:
        """(class, sorted URLs) for each class, in the order of _CLASSES."""
        return [(name, getattr(self, f"{name}_urls")) for name in _CLASSES]

    def to_dict(self, *, include_urls: bool = False) -> dict:
        payload = {name: len(urls) for name, urls in self.urls()}
        if include_urls:
            payload.update((f"{name}_urls", list(urls)) for name, urls in self.urls())
        return payload


def parse_manifest(text: str | Iterable[str], label: str, *, path: str | None = None) -> CorpusSnapshot:
    """Parse a ``url<TAB>length`` manifest. Lengths must be non-negative
    integers and URLs unique."""
    docs: dict[str, int] = {}
    for number, line in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
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


def load_manifest(path: str | Path, label: str | None = None) -> CorpusSnapshot:
    return parse_manifest(read_input(path), label or Path(path).name, path=str(path))


def snapshot_from_dir(path: str | Path, label: str | None = None) -> CorpusSnapshot:
    """Derive a snapshot from a directory of text files: each regular file
    becomes one document, keyed by its path relative to the directory, with
    the character count of its decoded content as the length."""
    root = Path(path)
    if not root.is_dir():
        raise ParseError(f"not a directory: {path}", path=str(path))
    docs: dict[str, int] = {}
    for file_path in sorted(p for p in root.rglob("*") if p.is_file()):
        url = file_path.relative_to(root).as_posix()
        docs[url] = len(file_path.read_text(encoding="utf-8", errors="replace"))
    return CorpusSnapshot(label=label or root.name, docs=docs)


def diff_collections(a: CorpusSnapshot, b: CorpusSnapshot) -> DiffSummary:
    """Classify every URL of the two snapshots: one pass over each, no sets."""
    removed, changed, unchanged, missing = [], [], [], object()
    for url, length in a.docs.items():
        other = b.docs.get(url, missing)
        (removed if other is missing else unchanged if other == length else changed).append(url)
    added = [url for url in b.docs if url not in a.docs]
    return DiffSummary(*(tuple(sorted(urls)) for urls in (added, removed, changed, unchanged)))


def format_diff(summary: DiffSummary, a_label: str, b_label: str, *, verbose: bool = False) -> str:
    """Human-readable summary; with ``verbose`` each non-empty class then
    lists its URLs, one ``class<TAB>url`` line each."""
    lines = [f"comparing {a_label} -> {b_label}"]
    lines.extend(f"{name:<9} {len(urls)}" for name, urls in summary.urls())
    if verbose:
        lines.extend(f"{name}\t" + f"\n{name}\t".join(urls) for name, urls in summary.urls() if urls)
    return "\n".join(lines) + "\n"
