"""Pattern containment and avoider counting for one-line permutations.

Containment is checked by brute force.  Avoiders of [m] are counted by
inserting each new maximum wherever it completes no occurrence (a generating
tree, West 1995): an oracle deliberately independent of the path counters it
cross-checks, capped at ``MAX_EXHAUSTIVE`` elements.  Only sites still live in
the parent are tested, and below the root only against occurrences through the
parent's newest entry: any other occurrence would already have killed the site
the parent came from.  Where such an occurrence can sit depends on the values
only through their order, so each call tabulates its positions once per
length, newest entry's position and site, and tests a site by comparing values.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import lt
from typing import Callable, Iterable, Sequence

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
    """Classical containment: some subsequence of perm is order-isomorphic to pat.

    Like ``count_avoiders``, it reads pat by its relative order, so (3, 1, 4) is 213.
    """
    k = len(pat)
    if k > len(perm):
        return False
    target = rank_signature(pat)
    return any(rank_signature(sub) == target for sub in combinations(tuple(perm), k))


def _table(k: int, q: int, t: int, shapes: tuple[list, list]) -> tuple:
    # Positions of the other entries of each occurrence through k (at q) and a new
    # maximum at t: one column per rank, in value order, grouped by rank count.
    right = q >= t
    if right:
        ranges = range(t), range(t, q), range(q + 1, k)
    else:
        ranges = range(q), range(q + 1, t), range(t, k)
    groups: dict[int, list] = {}
    for counts, order in shapes[right]:
        rows = [
            a + b + c
            for a in combinations(ranges[0], counts[0])
            for b in combinations(ranges[1], counts[1])
            for c in combinations(ranges[2], counts[2])
        ]
        if not rows:
            continue
        if len(order) < 2:
            return ((),)  # no value order to break: every permutation completes one
        cols = groups.setdefault(len(order), [[] for _ in order])
        for col, x in zip(cols, order):
            col += [row[x] for row in rows]
    return tuple(groups.values())


def _rises(get: Callable[[int], int], cols: Sequence[list]) -> bool:
    # Do some row's values rise along the columns?
    if not cols:
        return True  # _table's mark for a site that every permutation kills
    if len(cols) == 2:
        return any(map(lt, map(get, cols[0]), map(get, cols[1])))
    pairs = [map(lt, map(get, a), map(get, b)) for a, b in zip(cols, cols[1:])]
    return any(map(all, zip(*pairs)))


def count_avoiders(m: int, patterns: Iterable[Sequence[int]] = DEFAULT_PATTERNS) -> int:
    """Count permutations of [m] containing none of the patterns, by inserting maxima."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_EXHAUSTIVE:
        raise SizeTooLarge(f"m={m} exceeds the exhaustive bound {MAX_EXHAUSTIVE}")
    pats = frozenset(rank_signature(p) for p in patterns)
    if not pats:
        return math.factorial(m)
    # A pattern of k < 2 entries occurs in every permutation of k or more elements.
    shortest = min(map(len, pats))
    if shortest < 2:
        return int(m < shortest)
    if m <= 1:
        return 1  # the walk below starts from the one avoider of [1]
    # Below the root, the new maximum k + 1 is tested only against occurrences that
    # also hold k, the entry the parent inserted.  That is sound: an occurrence
    # without k lies in the child with k removed, and with k + 1 renamed k that is
    # the grandparent with k inserted at the site this one came from, a site that
    # was live (an occurrence without k + 1 lies in perm, an avoider).  In an
    # occurrence through both, k is the largest entry but one, so it plays each
    # pattern's second-largest entry, and the side of the new maximum it lies on
    # picks the segments of perm the other entries come from.  Per pattern, keyed
    # by that side: how many entries lie before, between and after the two
    # largest, and the value order of those entries.
    shapes: tuple[list, list] = ([], [])
    for p in pats:
        n = len(p)
        j, i = p.index(n), p.index(n - 1)
        lo, hi = sorted((i, j))
        rest = [v for v in p if v < n - 1]
        order = sorted(range(n - 2), key=rest.__getitem__)
        shapes[i > j].append(((lo, hi - lo - 1, n - 1 - hi), order))
    # Per (k, q), each site's table; a site is dead when some row of its table rises
    # in value.  The key does not name the patterns, so the tables live for one call.
    tables: dict[tuple[int, int], list] = {}
    count = 0
    # An avoider of [k], where k sits in it, and its sites still to test for k + 1.
    stack = [((1,), 0, [0, 1])]
    while stack:
        perm, q, sites = stack.pop()
        k = len(perm)
        get = perm.__getitem__
        by_site = tables.get((k, q))
        if by_site is None:
            by_site = tables[k, q] = [_table(k, q, t, shapes) for t in range(k + 1)]
        live = []
        for t in sites:
            for cols in by_site[t]:
                if _rises(get, cols):
                    break
            else:
                live.append(t)
        if k + 1 == m:
            count += len(live)
            continue
        for s in live:
            # A site dead for a parent stays dead for every descendant; s splits in two.
            child_sites = [t for t in live if t <= s] + [t + 1 for t in live if t >= s]
            stack.append((perm[:s] + (k + 1,) + perm[s:], s, child_sites))
    return count
