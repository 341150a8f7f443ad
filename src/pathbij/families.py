"""Exhaustive enumerators and exact counters for the two path families.

Each class is one step rule, ``moves(state, rem)``: the steps that may follow a
prefix in ``state`` with ``rem`` half-units of width left and still return to
ground, in D < F < U order (the state is the height for class A, and the height
with two peak flags for class B).  One walker, ``_words``, serves both classes.
It walks the step tree depth-first while more than _TAIL half-units are left,
and then finishes each prefix with every tail of its (state, rem), in order,
from a table that the same rule fills once per call.  Two words of one size are
never prefixes of each other, so a prefix followed by its sorted tails, taken in
D < F < U order of prefixes, is ASCII order: the output is duplicate-free and
sorted by construction.

The count_class_*_series functions count the same words without enumerating
them: ``_series`` walks each class's rule column by column over the width,
with Python's native big integers and three live columns (a flatstep spans
two), and gives the count for every size up to a bound.  So the DPs share the
enumerators' rule and do not stand apart from them.

``count_series`` computes the common sequence of both classes in O(n)
big-integer operations from an order-3 recurrence derived from the two
first-return decompositions, independently of the rules.  The DPs are checked
against it, and each enumerated word against ``class_a_word``/``class_b_word``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterator, NamedTuple

from .paths import DOWN, FLAT, PEAK, UP, step_heights

_TAIL = 8  # half-units of width left at which the walk finishes each word from the tails


def _tails(tails: dict, moves: Callable, state, rem: int) -> list[str]:
    """Every completion of a prefix in ``state`` with ``rem`` half-units left, in order.

    Filled into ``tails``, keyed by (state, rem), from the completions of each move's
    next state.  A module function, not a closure over ``tails``: a self-recursive
    closure would hold the table in a reference cycle until the garbage collector runs.
    """
    found = tails.get((state, rem))
    if found is None:
        found = [""] if rem == 0 else []
        for step, nxt, width in moves(state, rem):
            found += map(step.__add__, _tails(tails, moves, nxt, rem - width))
        tails[(state, rem)] = found
    return found


def _words(start, width: int, moves: Callable) -> Iterator[str]:
    """All words of ``width`` half-units from ``start`` under the step rule ``moves``.

    ``moves(state, rem)`` lists the (step, next state, step width) children of a prefix in
    D < F < U order, only those that can still end on ground.  Prefixes are walked
    depth-first while more than _TAIL half-units are left; below that, each prefix is
    finished by its list of tails, built once per (state, rem) in a table local to the call.
    """
    if width < 0:
        raise ValueError("size must be nonnegative")
    tails: dict = {}
    stack = [("", start, width)]
    while stack:
        prefix, state, rem = stack.pop()
        if rem <= _TAIL:
            yield from map(prefix.__add__, _tails(tails, moves, state, rem))
            continue
        for step, nxt, w in reversed(moves(state, rem)):  # so that they pop in D < F < U order
            stack.append((prefix + step, nxt, rem - w))


def _a_moves(flat_line: int) -> Callable:
    """Class A's step rule: every flatstep on y = flat_line."""
    # A prefix at height h can still reach (2n, 0) iff |h| <= rem (parity works out).
    def moves(h: int, rem: int) -> list:
        found = []
        if abs(h - 1) < rem:
            found.append((DOWN, h - 1, 1))
        if h == flat_line and abs(h) <= rem - 2:
            found.append((FLAT, h, 2))
        if abs(h + 1) < rem:
            found.append((UP, h + 1, 1))
        return found

    return moves


def class_a_words(n: int, flat_line: int = 2) -> Iterator[str]:
    """All size-n words of class A (every flatstep on y = flat_line), in ASCII order."""
    return _words(0, 2 * n, _a_moves(flat_line))


def _b_moves(state: tuple[int, bool, bool], rem: int) -> list:
    # peak_used tracks whether the open component already spent its peak;
    # both flags reset when a step lands on ground (component boundary).
    h, last_up, peak_used = state
    found = []
    if h >= 1 and not (last_up and peak_used):
        found.append((DOWN, (h - 1, False, h > 1 and (peak_used or last_up)), 1))
    if h <= rem - 2:
        found.append((FLAT, (h, False, peak_used), 2))
    if h + 1 < rem:
        found.append((UP, (h + 1, True, peak_used), 1))
    return found


def class_b_words(n: int) -> Iterator[str]:
    """All size-n words of class B (at most one peak per component), in ASCII order."""
    return _words((0, False, False), 2 * n, _b_moves)


def _series(max_n: int, start, moves: Callable) -> list[int]:
    """The count of ``start`` at each even column of a DP over the enumerators' ``moves``."""
    if max_n < 0:
        raise ValueError("size must be nonnegative")
    col, nxt, after = {start: 1}, defaultdict(int), defaultdict(int)
    counts = []
    for rem in range(2 * max_n, 0, -1):
        if rem % 2 == 0:
            counts.append(col.get(start, 0))
        ahead = (None, nxt, after)
        for state, c in col.items():
            for _, child, width in moves(state, rem):
                ahead[width][child] += c
        col, nxt, after = nxt, after, defaultdict(int)
    return counts + [col.get(start, 0)]


def count_class_a_series(max_n: int, flat_line: int = 2) -> list[int]:
    """Exact counts for every size 0..max_n from one DP pass over prefix width and height."""
    return _series(max_n, 0, _a_moves(flat_line))


def count_class_b_series(max_n: int) -> list[int]:
    """Exact counts for every size 0..max_n; DP state is (height, last step up, peak used)."""
    return _series(max_n, (0, False, False), _b_moves)


def count_series(max_n: int) -> list[int]:
    """|A_n| = |B_n| for every size n = 0..max_n from an order-3 recurrence.

    Class A is SEQ(x*C | x*H1), by first return to ground: a component
    below ground is a mirrored primitive Dyck path, x*C with C = 1 + x*C^2,
    and one above ground is x*H1 with H1 = 1/(1 - x*H2) and
    H2 = 1/(1 - x - x*C), where H2 counts the paths whose flatsteps all lie
    on their base line.  Class B is SEQ(x*S0 | x*(1 + S1)): peak-free
    components are counted by x*S0 with S0 = 1/(1 - x*S0), and one-peak
    components by x*(1 + S1) with S1 = x*S0^2*(1 + S1).  Both generating
    functions reduce to the same quadratic

        x(x^2 + 4x - 1) F^2 + (4x^2 - 5x + 1) F + (4x - 1) = 0,

    which has exactly one power-series root, the one with F(0) = 1.  The
    operator of the recurrence

        (n^2+7n+6) a(n) + (18-50n-8n^2) a(n-1)
            + (-174+81n+15n^2) a(n-2) + (-42+22n+4n^2) a(n-3) = 0,

    applied to F, reduces modulo the quadratic to 6 - 12x - 36x^2, so the
    recurrence holds for every n >= 3 from a(0..2) = 1, 2, 6.  Every
    division is checked to be exact.
    """
    if max_n < 0:
        raise ValueError("size must be nonnegative")
    a = [1, 2, 6]
    x, y, z = a  # a(n-3), a(n-2), a(n-1)
    for n in range(3, max_n + 1):
        num = ((8 * n + 50) * n - 18) * z - ((15 * n + 81) * n - 174) * y
        num -= ((4 * n + 22) * n - 42) * x
        term, rest = divmod(num, (n + 1) * (n + 6))
        if rest:
            raise ArithmeticError(f"the recurrence does not divide exactly at n={n}")
        a.append(term)
        x, y, z = y, z, term
    return a[: max_n + 1]


class Census(NamedTuple):
    below_a: int
    above_a: int
    nopeak_b: int
    onepeak_b: int


def indec_census(n: int) -> Census:
    """Indecomposable counts: flat-line grand paths by side, peak-limited paths by peak count."""
    if n < 1:
        raise ValueError("the census is defined for sizes >= 1")
    # A ground-terminated word is indecomposable iff it touches ground only at its two ends.
    a = [p for p in class_a_words(n) if step_heights(p).count(0) == 2]
    b = [q for q in class_b_words(n) if step_heights(q).count(0) == 2]
    below = sum(p[0] == DOWN for p in a)
    nopeak = sum(PEAK not in q for q in b)
    return Census(below, len(a) - below, nopeak, len(b) - nopeak)
