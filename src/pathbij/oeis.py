"""OEIS b-file ingestion and sequence comparison.

A b-file is the plain-text term listing used by the OEIS: one "index value"
pair per line, '#' comment lines and blank lines ignored, indices contiguous.
Values are arbitrary-precision integers.  Comparison is hermetic: files are
supplied by the caller, nothing is fetched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Sequence

from .paths import PathbijError

# int() alone would also take "1_0" and non-ASCII digits such as "\u0661".
_INTEGER = re.compile(r"[+-]?[0-9]+")


class MalformedLine(PathbijError):
    """A b-file line is not an "index value" pair."""

    def __init__(self, line_number: int, reason: str = ""):
        message = f"malformed b-file line {line_number}"
        if reason:
            message += f": {reason}"
        super().__init__(message)
        self.line_number = line_number


class NonContiguousIndex(PathbijError):
    """b-file indices must increase by exactly one."""

    def __init__(self, line_number: int):
        super().__init__(f"non-contiguous index at b-file line {line_number}")
        self.line_number = line_number


class RangeNotCovered(PathbijError):
    """The table does not cover the requested index range."""


@dataclass(frozen=True)
class SequenceTable:
    """Contiguous indexed integer terms, e.g. parsed from a b-file."""

    entries: dict[int, int]
    source_name: str = ""

    @property
    def first_index(self) -> int | None:
        return next(iter(self.entries), None)

    @property
    def last_index(self) -> int | None:
        return next(reversed(self.entries), None) if self.entries else None


def parse_bfile(text: str, source_name: str = "") -> SequenceTable:
    """Parse b-file text; raises MalformedLine / NonContiguousIndex with the 1-based line."""
    entries: dict[int, int] = {}
    previous: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(line_number, f"expected 2 fields, got {len(parts)}")
        if not all(_INTEGER.fullmatch(part) for part in parts):
            raise MalformedLine(line_number, "fields must be integers")
        index, value = int(parts[0]), int(parts[1])
        if previous is not None and index != previous + 1:
            raise NonContiguousIndex(line_number)
        entries[index] = value
        previous = index
    return SequenceTable(entries, source_name)


class Mismatch(NamedTuple):
    index: int
    expected: int
    got: int


@dataclass(frozen=True)
class ComparisonReport:
    matches: int
    first_mismatch: Mismatch | None = None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    def summary(self) -> str:
        if self.first_mismatch is None:
            return f"MATCH {self.matches}/{self.matches}"
        return f"MISMATCH at n={self.matches}"  # n is the size, not the b-file index


def compare_sequence(
    computed: Sequence[int], table: SequenceTable, start_index: int = 0
) -> ComparisonReport:
    """Compare computed[i] against table[start_index + i], stopping at the first mismatch."""
    missing = [start_index + i for i in range(len(computed)) if start_index + i not in table.entries]
    if missing:
        # Runs of consecutive missing indices share a value of index - position.
        runs = [[i for _, i in g] for _, g in groupby(enumerate(missing), lambda t: t[1] - t[0])]
        spans = " and ".join(f"{run[0]}..{run[-1]}" for run in runs)
        raise RangeNotCovered(f"{table.source_name or 'table'} lacks indices {spans}")
    matches = 0
    for i, got in enumerate(computed):
        index = start_index + i
        expected = table.entries[index]
        if got != expected:
            return ComparisonReport(matches, Mismatch(index, expected, got))
        matches += 1
    return ComparisonReport(matches)
