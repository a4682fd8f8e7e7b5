"""Exception types shared across the toolchain."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class PrivCalcError(Exception):
    """Base class for every error this package raises on purpose."""


class SourceError(PrivCalcError):
    """An error tied to a position in an input text."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        filename: str | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename

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


@contextmanager
def in_file(filename: str | None) -> Iterator[None]:
    """Name ``filename`` in every ``SourceError`` raised inside the block
    that names no file yet. A reader wraps its work in this, so raise
    sites give only a position; an inner reader's own name wins."""
    try:
        yield
    except SourceError as exc:
        if exc.filename is None:
            exc.filename = filename
        raise
