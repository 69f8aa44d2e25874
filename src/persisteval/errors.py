"""Exception and warning types, the base of the value records, and the
one-line form of a printed label, shared across the toolkit.

The CLI maps the errors onto its exit codes: usage problems exit 1,
ParseError exits 2, DataError exits 3. Non-fatal diagnostics are emitted as
DiagnosticWarning through the standard warnings machinery.
"""

from __future__ import annotations

# Each byte of a path that is not UTF-8, as os.fsdecode escapes it, to \xNN.
_NOT_UTF8 = {code: f"\\x{code - 0xDC00:02x}" for code in range(0xDC80, 0xDD00)}


def one_line(label: str) -> str:
    """``label`` with each non-printable character written as its Python escape."""
    if label.isprintable():
        return label
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in label)


class EvaluationError(Exception):
    """Base class for all toolkit errors. An error about a file names its
    path and line in a ``path:line:`` prefix of the message. The message
    shows each byte of a path that is not UTF-8 as ``\\xNN``, so any stream
    can print it; ``path`` keeps the name as given."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        message = f"{prefix} {message}" if prefix else message
        super().__init__(message.translate(_NOT_UTF8))


class ParseError(EvaluationError):
    """A malformed input file or line (wrong field count, bad number, ...)."""


class DataError(EvaluationError):
    """Well-formed input that violates a data contract (duplicates, mismatched
    topic sets, out-of-range grades, missing pivot, ...)."""


class UsageError(EvaluationError):
    """Invalid configuration or command usage (unknown measure, undeclared
    environment reference, ...)."""


class DiagnosticWarning(UserWarning):
    """Non-fatal diagnostic: truncated rankings, duplicate-but-consistent
    judgments."""


class Record(tuple):
    """Base of the value records, each a ``collections.namedtuple`` class
    with ``__slots__ = ()``, as in ``class R(Record, namedtuple("R", ...))``.
    A record equals only a record of its own class, never a plain tuple,
    and ``_make`` and ``_replace`` build through the class's ``__new__``,
    so they run its checks."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
