"""OEIS b-file ingestion and sequence comparison.

A b-file is the plain-text term listing used by the OEIS: one "index value"
pair per line, '#' comment lines and blank lines ignored, indices contiguous.
Values are arbitrary-precision integers.  Comparison is hermetic: files are
supplied by the caller, nothing is fetched.

`parse_bfile` returns the terms as an ``{index: value}`` dict in file order;
`compare_sequence` returns how many leading computed terms match it, after
`check_covered` has checked that the dict holds every index it compares, which
needs only the number of terms.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import pairwise
from typing import Sequence

from .paths import PathbijError

# int() alone would also take "1_0" or "\u0661"; \s is the whitespace str.split() splits on.
_PAIR = re.compile(r"\s*([+-]?[0-9]+)\s+([+-]?[0-9]+)\s*")


class MalformedLine(PathbijError):
    """A b-file line is not an "index value" pair."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"malformed b-file line {line_number}: {reason}")
        self.line_number = line_number


class NonContiguousIndex(PathbijError):
    """b-file indices must increase by exactly one."""

    def __init__(self, line_number: int):
        super().__init__(f"non-contiguous index at b-file line {line_number}")
        self.line_number = line_number


class RangeNotCovered(PathbijError):
    """The table does not cover the requested index range."""


def parse_bfile(text: str) -> dict[int, int]:
    """Parse b-file text to {index: value}; raises MalformedLine / NonContiguousIndex with the
    1-based line."""
    entries: dict[int, int] = {}
    previous: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        pair = _PAIR.fullmatch(raw)
        if pair is None:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise MalformedLine(line_number, f"expected 2 fields, got {len(parts)}")
            raise MalformedLine(line_number, "fields must be integers")
        index, value = int(pair[1]), int(pair[2])
        if previous is not None and index != previous + 1:
            raise NonContiguousIndex(line_number)
        entries[index] = value
        previous = index
    return entries


def check_covered(
    entries: dict[int, int], start_index: int, count: int, source_name: str = "table"
) -> None:
    """Raise RangeNotCovered, naming each run of missing indices, unless entries hold
    start_index .. start_index + count - 1.  Walks the held indices, not the range."""
    keys, stop = sorted(entries), start_index + count
    # The held indices in range, fenced by the two indices just outside it: each gap is a run.
    held = [start_index - 1, *keys[bisect_left(keys, start_index) : bisect_left(keys, stop)], stop]
    spans = [f"{a + 1}..{b - 1}" for a, b in pairwise(held) if b - a > 1]
    if spans:
        raise RangeNotCovered(f"{source_name} lacks indices {' and '.join(spans)}")


def compare_sequence(
    computed: Sequence[int],
    entries: dict[int, int],
    start_index: int = 0,
    source_name: str = "table",
) -> int:
    """Count the leading i with computed[i] == entries[start_index + i], stopping at the first
    mismatch: len(computed) on a full match.  ``check_covered`` runs first."""
    check_covered(entries, start_index, len(computed), source_name)
    for i, got in enumerate(computed):
        if got != entries[start_index + i]:
            return i
    return len(computed)
