"""Error taxonomy shared by the whole package, and the one place that puts a
file or a line into a message.

Each class maps to one CLI exit code: usage errors exit 1, data errors
exit 2 (a file that does not fit another file too), numeric failures exit 3.
"""

from __future__ import annotations

import contextlib


class CardlError(Exception):
    """Base class for all errors raised by this package.

    `path` is the file at fault, or a tuple of files that do not fit one
    another, and `line` the 1-based line of the fault in it; each is None
    when unknown.  An error reads `path: line N: message`, each part only
    when it is set.
    """

    exit_code = 1

    def __init__(self, *args, path=None, line: int | None = None):
        super().__init__(*args)
        self.path, self.line = path, line

    def __str__(self) -> str:
        path = ", ".join(map(str, self.path)) if isinstance(self.path, tuple) else self.path
        parts = (path, None if self.line is None else f"line {self.line}", super().__str__())
        return ": ".join(str(part) for part in parts if part is not None)


class UsageError(CardlError):
    """The caller misused an API or the command line (bad flags, bad call order)."""


class DimensionError(UsageError):
    """Array shapes or vector dimensions do not line up."""


class DataError(CardlError):
    """Input data is malformed, inconsistent, or references unknown ids."""

    exit_code = 2


class NumericError(CardlError):
    """A computation produced or encountered non-finite / degenerate values."""

    exit_code = 3


@contextlib.contextmanager
def in_file(path, only: type[CardlError] = CardlError):
    """Set `path` on each error of class `only` raised inside without a path,
    and turn an OSError or UnicodeDecodeError into a DataError of `path`."""
    try:
        yield
    except CardlError as exc:
        if exc.path is None and isinstance(exc, only):
            exc.path = path
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read: {getattr(exc, 'strerror', None) or exc}", path=path) from exc
