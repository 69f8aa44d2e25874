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


@dataclass(frozen=True)
class DiffSummary:
    added: int
    removed: int
    changed: int
    unchanged: int
    added_urls: tuple[str, ...] = ()
    removed_urls: tuple[str, ...] = ()
    changed_urls: tuple[str, ...] = ()
    unchanged_urls: tuple[str, ...] = ()

    def to_dict(self, *, include_urls: bool = False) -> dict:
        counts = {
            "added": self.added,
            "removed": self.removed,
            "changed": self.changed,
            "unchanged": self.unchanged,
        }
        if include_urls:
            counts["added_urls"] = list(self.added_urls)
            counts["removed_urls"] = list(self.removed_urls)
            counts["changed_urls"] = list(self.changed_urls)
            counts["unchanged_urls"] = list(self.unchanged_urls)
        return counts


def parse_manifest(text: str | Iterable[str], label: str, *, path: str | None = None) -> CorpusSnapshot:
    """Parse a ``url<TAB>length`` manifest. Lengths must be non-negative
    integers and URLs unique."""
    docs: dict[str, int] = {}
    lines = text.splitlines() if isinstance(text, str) else text
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(
                f"expected 'url<TAB>length', got {len(parts)} tab-separated fields",
                line=number,
                path=path,
            )
        url, length_text = parts[0].strip(), parts[1].strip()
        if not url:
            raise ParseError("empty url", line=number, path=path)
        try:
            length = int(length_text)
        except ValueError:
            raise ParseError(f"non-integer length {length_text!r}", line=number, path=path) from None
        if length < 0:
            raise DataError(f"negative length {length} for url {url!r} (line {number})")
        if url in docs:
            raise DataError(f"duplicate url {url!r} (line {number})")
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


def diff_collections(
    a: CorpusSnapshot, b: CorpusSnapshot, *, collect_urls: bool = False
) -> DiffSummary:
    """Classify every URL of the two snapshots; URL lists are attached only
    when ``collect_urls`` is set."""
    a_urls, b_urls = set(a.docs), set(b.docs)
    added = sorted(b_urls - a_urls)
    removed = sorted(a_urls - b_urls)
    shared = a_urls & b_urls
    changed = sorted(url for url in shared if a.docs[url] != b.docs[url])
    unchanged = sorted(url for url in shared if a.docs[url] == b.docs[url])
    return DiffSummary(
        added=len(added),
        removed=len(removed),
        changed=len(changed),
        unchanged=len(unchanged),
        added_urls=tuple(added) if collect_urls else (),
        removed_urls=tuple(removed) if collect_urls else (),
        changed_urls=tuple(changed) if collect_urls else (),
        unchanged_urls=tuple(unchanged) if collect_urls else (),
    )


def format_diff(summary: DiffSummary, a_label: str, b_label: str, *, verbose: bool = False) -> str:
    """Human-readable summary; with ``verbose`` the per-class URL lists are
    appended one URL per line."""
    lines = [
        f"comparing {a_label} -> {b_label}",
        f"added     {summary.added}",
        f"removed   {summary.removed}",
        f"changed   {summary.changed}",
        f"unchanged {summary.unchanged}",
    ]
    if verbose:
        for name, urls in (
            ("added", summary.added_urls),
            ("removed", summary.removed_urls),
            ("changed", summary.changed_urls),
            ("unchanged", summary.unchanged_urls),
        ):
            for url in urls:
                lines.append(f"{name}\t{url}")
    return "\n".join(lines) + "\n"
