"""Lattice paths over the step alphabet U/F/D and their ground-level structure.

The three steps are an upstep U (rise 1), a flatstep F (level, twice as wide
as a diagonal step), and a downstep D (fall 1).  A path is a finite word over
these steps together with the height profile it traces from a start height of
0; the horizontal line through height 0 is ground level.  The size of a path
is its number of upsteps plus its number of flatsteps, so a size-n path that
returns to ground level spans 2n half-unit columns.

Vertex indices are 0-based positions into the height profile (one more vertex
than steps).  All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

Step = Literal["U", "F", "D"]

UP: Step = "U"
FLAT: Step = "F"
DOWN: Step = "D"

_RISE = {UP: 1, FLAT: 0, DOWN: -1}
_STEP_SET = frozenset(_RISE)

# Horizontal extent of each step in half-unit columns; only rendering and
# width budgets care (step words never store x-coordinates).
STEP_WIDTH = {UP: 1, FLAT: 2, DOWN: 1}

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


def step_heights(steps: str) -> list[int]:
    """Vertex heights of a step word, starting at 0: one more entry than steps."""
    return list(accumulate(map(_RISE.__getitem__, steps), initial=0))


def split_components(steps: str, heights: Sequence[int]) -> list[tuple[int, str]]:
    """(start vertex, steps) of each component of a ground-terminated word with these heights."""
    cuts = [v for v, h in enumerate(heights) if h == 0]
    return [(a, steps[a:b]) for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True, order=True)
class Path:
    """An immutable step word; geometry (heights, size) is derived on demand.

    Equality and ordering are those of the step string, so sorted paths are in
    ASCII order ('D' < 'F' < 'U').
    """

    steps: str = ""

    def __post_init__(self) -> None:
        if not _STEP_SET.issuperset(self.steps):
            for i, c in enumerate(self.steps):
                if c not in _RISE:
                    raise InvalidCharacter(c, i)

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

    @property
    def min_height(self) -> int:
        return min(self.heights)

    @property
    def max_height(self) -> int:
        return max(self.heights)

    def __len__(self) -> int:
        return len(self.steps)

    def __add__(self, other: "Path") -> "Path":
        return Path(self.steps + other.steps)

    def __str__(self) -> str:
        return self.steps

    def __repr__(self) -> str:
        return f"Path({self.steps!r})"


def parse_path(text: str) -> Path:
    """Parse a step word such as ``"UFD"``; the empty string is the empty path."""
    return Path(text)


def concat(parts: Iterable[Path]) -> Path:
    return Path("".join(part.steps for part in parts))


class Classification(NamedTuple):
    is_grand_schroeder: bool
    is_nonnegative: bool
    is_schroeder: bool
    flat_heights: tuple[int, ...]
    min_height: int
    max_height: int


def classify(p: Path) -> Classification:
    """Basic classification: grand = ends at ground, Schroeder = grand and nonnegative.

    ``flat_heights`` lists the height of each flatstep in path order.
    """
    hs = p.heights
    grand = hs[-1] == 0
    nonneg = min(hs) >= 0
    flats = tuple(hs[i] for i, c in enumerate(p.steps) if c == FLAT)
    return Classification(grand, nonneg, grand and nonneg, flats, min(hs), max(hs))


def in_class_a(p: Path, flat_line: int = 2) -> bool:
    """True for grand Schroeder paths whose flatsteps all sit on the line y = flat_line."""
    if p.end_height != 0:
        return False
    hs = p.heights
    return all(hs[i] == flat_line for i, c in enumerate(p.steps) if c == FLAT)


def in_class_b(p: Path) -> bool:
    """True for Schroeder paths with at most one peak in each component."""
    hs = p.heights
    if hs[-1] != 0 or min(hs) < 0:
        return False
    s = p.steps
    peaks_in_component = 0
    for v in range(1, len(hs) - 1):
        if s[v - 1] == UP and s[v] == DOWN:
            peaks_in_component += 1
            if peaks_in_component > 1:
                return False
        if hs[v] == 0:
            peaks_in_component = 0
    return True


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

    @property
    def paths(self) -> tuple[Path, ...]:
        return tuple(c.path for c in self.parts)


def components(p: Path) -> ComponentView:
    """Split at every interior ground-level vertex; concatenating the parts gives back p."""
    if p.end_height != 0:
        raise NotGroundTerminated(f"path ends at height {p.end_height}, not 0")
    parts = split_components(p.steps, p.heights)
    return ComponentView(tuple(Component(start, Path(steps)) for start, steps in parts))


def is_indecomposable(p: Path) -> bool:
    """Nonempty, ground-terminated, and with no interior ground-level vertex."""
    hs = p.heights
    return len(hs) > 1 and hs[-1] == 0 and all(h != 0 for h in hs[1:-1])


def peak_apexes(p: Path) -> list[int]:
    """Vertex indices where an upstep is immediately followed by a downstep.

    The underlying step pairs are disjoint, so consecutive apexes differ by
    at least 2.
    """
    s = p.steps
    return [v for v in range(1, len(s)) if s[v - 1] == UP and s[v] == DOWN]


def reflect(p: Path) -> Path:
    """Mirror the path in the ground line (upsteps and downsteps swap); an involution."""
    return Path(p.steps.translate(MIRROR))


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
    cells: dict[tuple[int, int], str] = {}
    hs = p.heights
    x = 0
    for i, c in enumerate(p.steps):
        h = hs[i]
        if c == UP:
            cells[(h, x)] = "/"
        elif c == DOWN:
            cells[(h - 1, x)] = "\\"
        else:
            cells[(h, x)] = "_"
            cells[(h, x + 1)] = "_"
        x += STEP_WIDTH[c]
    bands = [band for band, _ in cells]
    rows = []
    for band in range(max(bands), min(bands) - 1, -1):
        row = {col: ch for (b, col), ch in cells.items() if b == band}
        width = max(row) + 1 if row else 0
        rows.append("".join(row.get(col, " ") for col in range(width)))
    return "\n".join(rows)
