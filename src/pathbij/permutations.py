"""Pattern containment and avoider counting for one-line permutations.

Containment is checked by brute force.  Avoiders of [m] are counted by
inserting each new maximum wherever it completes no occurrence (a generating
tree, West 1995): an oracle deliberately independent of the path counters it
cross-checks, capped at ``MAX_EXHAUSTIVE`` elements.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from .paths import PathbijError

Permutation = tuple[int, ...]

# Avoiding these three length-4 patterns characterizes the permutations whose
# count matches the peak-limited Schroeder family one size down.
DEFAULT_PATTERNS: tuple[Permutation, ...] = ((3, 2, 4, 1), (3, 4, 2, 1), (4, 3, 2, 1))

MAX_EXHAUSTIVE = 9


class SizeTooLarge(PathbijError):
    """Exhaustive counting was asked for more than ``MAX_EXHAUSTIVE`` elements."""


def parse_permutation(text: str) -> Permutation:
    """Parse a digit string like ``"3241"`` into one-line notation."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a digit string")
    values = tuple(int(ch) for ch in text)
    if sorted(values) != list(range(1, len(values) + 1)):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(values)}")
    return values


def parse_patterns(text: str) -> tuple[Permutation, ...]:
    """Parse a comma-separated pattern list like ``"3241,3421,4321"``."""
    chunks = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    return tuple(parse_permutation(chunk) for chunk in chunks)


def rank_signature(values: Sequence[int]) -> Permutation:
    """One-line pattern of a sequence of distinct values (ranks start at 1)."""
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def contains_pattern(perm: Sequence[int], pat: Sequence[int]) -> bool:
    """Classical containment: some subsequence of perm is order-isomorphic to pat."""
    k = len(pat)
    if k > len(perm):
        return False
    target = tuple(pat)
    return any(rank_signature(sub) == target for sub in combinations(tuple(perm), k))


def _completes(perm: Permutation, site: int, shapes: list[tuple[int, int, tuple]]) -> bool:
    # A new maximum inserted at site can only play each pattern's maximum.
    for before_n, after_n, chain in shapes:
        for before in combinations(perm[:site], before_n):
            for after in combinations(perm[site:], after_n):
                sub = before + after
                if all(sub[a] < sub[b] for a, b in chain):
                    return True
    return False


def count_avoiders(m: int, patterns: Iterable[Sequence[int]] = DEFAULT_PATTERNS) -> int:
    """Count permutations of [m] containing none of the patterns, by inserting maxima."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_EXHAUSTIVE:
        raise SizeTooLarge(f"m={m} exceeds the exhaustive bound {MAX_EXHAUSTIVE}")
    pats = frozenset(tuple(p) for p in patterns)
    if not pats:
        return math.factorial(m)
    if () in pats:
        return 0  # the empty pattern occurs in every permutation
    # Per pattern: entries before and after its maximum, the others' value order.
    shapes = []
    for p in pats:
        j = p.index(max(p))
        order = sorted(range(len(p) - 1), key=(p[:j] + p[j + 1 :]).__getitem__)
        shapes.append((j, len(p) - 1 - j, tuple(zip(order, order[1:]))))
    count = 0
    stack = [((), [0])]  # an avoider of [k] and its sites still to test for k + 1
    while stack:
        perm, sites = stack.pop()
        if len(perm) == m:
            count += 1
            continue
        live = [s for s in sites if not _completes(perm, s, shapes)]
        for s in live:
            # A site dead for a parent stays dead for every descendant; s splits in two.
            child_sites = [t for t in live if t <= s] + [t + 1 for t in live if t >= s]
            stack.append((perm[:s] + (len(perm) + 1,) + perm[s:], child_sites))
    return count
