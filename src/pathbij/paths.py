"""Lattice paths over the step alphabet U/F/D and their ground-level structure.

The three steps are an upstep U (rise 1), a flatstep F (level, twice as wide
as a diagonal step), and a downstep D (fall 1).  A path is a finite word over
these steps together with the height profile it traces from a start height of
0; the horizontal line through height 0 is ground level.  The size of a path
is its number of upsteps plus its number of flatsteps, so a size-n path that
returns to ground level spans 2n half-unit columns.

Vertex indices are 0-based positions into the height profile (one more vertex
than steps).  All operations are pure functions on immutable values.  One function
checks the alphabet for all of them, raising ``InvalidCharacter`` outside U/F/D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Literal, NamedTuple, Sequence

Step = Literal["U", "F", "D"]

UP: Step = "U"
FLAT: Step = "F"
DOWN: Step = "D"

# Byte -> its step's rise as a signed byte; every other byte -> 0x80, which no rise takes.
_RISE_BYTES = bytes({UP: 1, FLAT: 0, DOWN: -1}.get(chr(b), -128) & 0xFF for b in range(256))

PEAK = UP + DOWN  # a peak is a UD factor
MIRROR = str.maketrans(UP + DOWN, DOWN + UP)


class PathbijError(Exception):
    """Base class for the domain errors raised across this package."""


class InvalidCharacter(PathbijError):
    """A path string contained a character outside U/F/D."""

    def __init__(self, char: str, position: int):
        super().__init__(f"invalid step character {char!r} at position {position}")
        self.char = char
        self.position = position


class NotGroundTerminated(PathbijError):
    """An operation needing a ground-terminated path got one ending off ground."""


def _rises(steps: str) -> memoryview:
    """Each step's rise as a signed byte; ``InvalidCharacter`` at the first one outside U/F/D."""
    # surrogatepass encodes a lone surrogate, as any non-ASCII character, to bytes >= 0x80.
    rises = steps.encode("utf-8", "surrogatepass").translate(_RISE_BYTES)
    if 0x80 in rises:  # each byte before the first 0x80 is one U, F or D character
        raise InvalidCharacter(steps[i := rises.find(0x80)], i)
    return memoryview(rises).cast("b")


def step_heights(steps: str) -> list[int]:
    """Vertex heights of a step word from 0, one more than steps; checked as a ``Path`` is."""
    return [0, *accumulate(_rises(steps))]


def split_components(steps: str, heights: Sequence[int]) -> list[tuple[int, str]]:
    """(start vertex, steps) of each component of a ground-terminated word with these heights."""
    parts, a, end = [], 0, len(steps)
    while a < end:
        b = heights.index(0, a + 1)
        parts.append((a, steps[a:b]))
        a = b
    return parts


@dataclass(frozen=True, order=True)
class Path:
    """An immutable step word; geometry (heights, size) is derived on demand.

    Equality and ordering are those of the step string, so sorted paths are in
    ASCII order ('D' < 'F' < 'U').
    """

    steps: str = ""

    def __post_init__(self) -> None:
        if not self.steps.isascii() or self.steps.encode().translate(None, b"UFD"):
            _rises(self.steps)  # raises InvalidCharacter at the first step outside U/F/D

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Vertex heights, length len(steps) + 1, starting at 0."""
        return tuple(step_heights(self.steps))

    @property
    def size(self) -> int:
        return self.steps.count(UP) + self.steps.count(FLAT)

    @property
    def end_height(self) -> int:
        return self.heights[-1]


def parse_path(text: str) -> Path:
    """Parse a step word such as ``"UFD"``; the empty string is the empty path."""
    return Path(text)


def class_a_word(steps: str, heights: Sequence[int], flat_line: int = 2) -> bool:
    """True for grand Schroeder words whose flatsteps all sit on the line y = flat_line.

    ``heights`` are the word's vertex heights, as ``step_heights`` gives them.
    """
    i = steps.find(FLAT)
    while i >= 0:
        if heights[i] != flat_line:
            return False
        i = steps.find(FLAT, i + 1)
    return heights[-1] == 0


def class_b_word(steps: str, heights: Sequence[int]) -> bool:
    """True for Schroeder words with at most one peak (a UD factor) in each component.

    ``heights`` are the word's vertex heights, as ``step_heights`` gives them.
    """
    # Heights start at 0 and move by at most 1 a step, so the word goes below
    # ground exactly when some vertex is at -1.
    if heights[-1] != 0 or -1 in heights:
        return False
    # Two peaks share a component unless a ground vertex lies between their apexes.
    peak = steps.find(PEAK)
    while peak >= 0:
        after = steps.find(PEAK, peak + 2)
        if after >= 0:
            try:
                heights.index(0, peak + 1, after + 1)
            except ValueError:
                return False
        peak = after
    return True


def in_class_a(p: Path, flat_line: int = 2) -> bool:
    """``class_a_word`` on a ``Path``."""
    return class_a_word(p.steps, p.heights, flat_line)


def in_class_b(p: Path) -> bool:
    """``class_b_word`` on a ``Path``."""
    return class_b_word(p.steps, p.heights)


class Component(NamedTuple):
    start: int
    path: Path


@dataclass(frozen=True)
class ComponentView:
    """Ordered split of a ground-terminated path at interior ground vertices."""

    parts: tuple[Component, ...]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def components(p: Path) -> ComponentView:
    """Split at every interior ground-level vertex; concatenating the parts gives back p."""
    if p.end_height != 0:
        raise NotGroundTerminated(f"path ends at height {p.end_height}, not 0")
    parts = split_components(p.steps, p.heights)
    return ComponentView(tuple(Component(start, Path(steps)) for start, steps in parts))


def render_ascii(p: Path) -> str:
    """Fixed-grid ASCII picture of a path.

    Rows are height bands (band b spans heights [b, b+1)) from the highest
    used band down to the lowest.  An upstep from height h prints '/' in band
    h, a downstep from h prints a backslash in band h-1, and a flatstep at h
    prints two underscores in band h, with the underscore baseline on y = h.
    Columns are x positions in half-units (flatsteps are two columns wide).
    """
    if not p.steps:
        return ""
    hs = p.heights
    top = max(map(min, hs, hs[1:]))  # each step's band is the lower of its two heights
    width = len(p.steps) + p.steps.count(FLAT)
    rows = [bytearray(b" " * width) for _ in range(top - min(hs) + 1)]
    glyphs = {UP: (0, b"/"), FLAT: (0, b"__"), DOWN: (1, b"\\")}  # (bands below h, glyph)
    x = 0
    for c, h in zip(p.steps, hs):
        drop, glyph = glyphs[c]
        rows[top - h + drop][x : x + len(glyph)] = glyph
        x += len(glyph)
    return "\n".join(row.decode().rstrip() for row in rows)
