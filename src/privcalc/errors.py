"""Exception types shared across the toolchain, and ``in_text``, the one
wrapper through which every reader names and places its errors."""

from __future__ import annotations

import re
from bisect import bisect_right
from contextlib import contextmanager
from typing import Iterator, Sequence


class PrivCalcError(Exception):
    """Base class for every error this package raises on purpose."""


class SourceError(PrivCalcError):
    """An error tied to a position in an input text.

    A raise site in a PAL text gives ``at``, the character offset of the
    token at fault; the reader that owns the text turns it into 1-based
    ``line`` and ``column`` (``in_text``) before the error leaves it.
    Facts and RBAC raise sites give the line alone."""

    # Set by the first reader whose text does not hold ``at``, so that no
    # enclosing reader places the offset in a text it does not index.
    _unplaced = False

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        filename: str | None = None,
        at: int | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        self.at = at

    def __str__(self) -> str:
        prefix = ""
        if self.filename is not None:
            prefix = f"{self.filename}:"
        if self.line is not None:
            prefix += f"{self.line}:"
            if self.column is not None:
                prefix += f"{self.column}:"
        if not prefix:
            return self.message
        return f"{prefix} {self.message}"


_LINE_FEED = re.compile("\n")


def line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of ``text``. Only
    a line feed ends a line, in PAL as in facts and RBAC files."""
    return [0, *(m.end() for m in _LINE_FEED.finditer(text))]


def line_column(starts: Sequence[int], at: int) -> tuple[int, int]:
    """The 1-based line and column of offset ``at``, from its text's
    ``line_starts``."""
    line = bisect_right(starts, at)
    return line, at - starts[line - 1] + 1


@contextmanager
def in_text(text: str, filename: str | None = None) -> Iterator[None]:
    """Name ``filename`` in every ``SourceError`` raised in the block that
    names no file yet, and place in ``text`` every one with an offset and
    no line yet. Every reader wraps its work in this, so raise sites give
    a position only; an inner reader's name and place win. An offset past
    the end of ``text`` is from another text: the error keeps ``at`` and
    names no line, here and in every enclosing reader. Lines are counted
    only here, so a text read without fault has none counted."""
    try:
        yield
    except SourceError as exc:
        if exc.line is None and exc.at is not None and not exc._unplaced:
            if exc.at <= len(text):
                exc.line, exc.column = line_column(line_starts(text), exc.at)
            else:
                exc._unplaced = True
        if exc.filename is None:
            exc.filename = filename
        raise
