"""Pattern containment and avoider counting for one-line permutations.

Containment is checked by brute force.  Avoiders of [m] are counted by
inserting each new maximum wherever it completes no occurrence (a generating
tree, West 1995): an oracle deliberately independent of the path counters it
cross-checks, capped at ``MAX_EXHAUSTIVE`` elements.  Only sites still live in
the parent are tested, and below the root only against occurrences through the
parent's newest entry: any other occurrence would already have killed the site
the parent came from.
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
    """Classical containment: some subsequence of perm is order-isomorphic to pat.

    Like ``count_avoiders``, it reads pat by its relative order, so (3, 1, 4) is 213.
    """
    k = len(pat)
    if k > len(perm):
        return False
    target = rank_signature(pat)
    return any(rank_signature(sub) == target for sub in combinations(tuple(perm), k))


def _completes(perm: Permutation, q: int, t: int, shapes: tuple[list, list]) -> bool:
    # Does a new maximum at site t complete an occurrence that holds perm[q], the old maximum?
    right = q >= t
    if right:
        segments = perm[:t], perm[t:q], perm[q + 1 :]
    else:
        segments = perm[:q], perm[q + 1 : t], perm[t:]
    for counts, chain in shapes[right]:
        for a in combinations(segments[0], counts[0]):
            for b in combinations(segments[1], counts[1]):
                for c in combinations(segments[2], counts[2]):
                    sub = a + b + c
                    if all(sub[x] < sub[y] for x, y in chain):
                        return True
    return False


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
        shapes[i > j].append(((lo, hi - lo - 1, n - 1 - hi), tuple(zip(order, order[1:]))))
    count = 0
    # An avoider of [k], where k sits in it, and its sites still to test for k + 1.
    stack = [((1,), 0, [0, 1])]
    while stack:
        perm, q, sites = stack.pop()
        k = len(perm)
        live = [t for t in sites if not _completes(perm, q, t, shapes)]
        if k + 1 == m:
            count += len(live)
            continue
        for s in live:
            # A site dead for a parent stays dead for every descendant; s splits in two.
            child_sites = [t for t in live if t <= s] + [t + 1 for t in live if t >= s]
            stack.append((perm[:s] + (k + 1,) + perm[s:], s, child_sites))
    return count
