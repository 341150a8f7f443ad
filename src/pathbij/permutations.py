"""Pattern containment and avoider counting for one-line permutations.

Containment is checked by brute force.  Avoiders of [m] are counted by
inserting each new maximum wherever it completes no occurrence (a generating
tree, West 1995): an oracle deliberately independent of the path counters it
cross-checks, capped at ``MAX_EXHAUSTIVE`` elements.  Only sites live in the
parent are tested, and only against occurrences through the newest entry.  A
child's other entries are its parent's, so per length each call enumerates all
children's rows of positions, each with the interval of sites its rise kills,
straight into one table in the parent's coordinates: one pass of comparisons
gives every child's live sites, and the avoiders of [m - 1] are counted from
them, never built.  A level's table hangs on its length and the pattern set
only, so a process keeps it, keyed by both, in a cache of ``MAX_EXHAUSTIVE``
tables; what sites a child inherits hangs on the length and the parent's live
sites only, so a process spreads each mask once.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache, reduce
from itertools import combinations, compress
from operator import itemgetter, lt, or_
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


def _shapes(pats: Iterable[Permutation]) -> tuple[list, list]:
    shapes: tuple[list, list] = ([], [])
    for p in pats:
        n = len(p)
        j, i = p.index(n), p.index(n - 1)
        lo, hi = sorted((i, j))
        rest = [v for v in p if v < n - 1]
        order = sorted(range(n - 2), key=rest.__getitem__)
        shapes[i > j].append(((lo, hi - lo - 1, n - 1 - hi), order))
    return shapes


def _table(k: int, qs: Sequence[int], shapes: tuple[list, list], d: int = 0) -> tuple:
    # The positions of the other entries of an occurrence through k (at q) and a new maximum
    # at site t, in value order: a row, which kills t if its values rise.  A row is built once,
    # for the interval of sites t that have j of its positions s on t's side of k before t and
    # n after (m more lie on k's other side).  Pair rows map to site bitmasks; shorter ones
    # kill their sites always; longer ones keep pairs.  The tables of all q in qs share one,
    # q's sites from bit (q - qs[0]) * (k + 1); with d = 1, positions after q read one lower.
    pairs, always, rows, sides = {}, 0, [], []
    for q in qs:
        shift, lo, hi = (q - qs[0]) * (k + 1), q + 1 - d, k - d
        sides += (True, 0, q, range(lo, hi), shift), (False, lo, hi, range(q), shift + d)
    for right, start, stop, other, up in sides:
        for counts, order in shapes[right]:
            j, n, m = counts if right else (counts[1], counts[2], counts[0])
            for s in combinations(range(start, stop), j + n):
                sites = (2 << (s[j] if n else stop)) - (1 << (s[j - 1] + 1 if j else start)) << up
                for o in combinations(other, m):
                    row = tuple(map((s + o if right else o + s).__getitem__, order))
                    if len(row) < 2:
                        always |= sites  # no value order to break
                    elif len(row) == 2:
                        pairs[row] = pairs.get(row, 0) | sites
                    else:
                        rows.append((sites, row[:-1], row[1:]))
    return [a for a, _ in pairs], [b for _, b in pairs], list(pairs.values()), always, rows


def _reads(table: tuple) -> tuple:
    # The table with its positions as getters, so a node reads each list of values in one call.
    # Two leading (0, 0) pairs, which never rise, keep a getter's result a tuple at 0 or 1 pairs.
    firsts, seconds, masks, always, rows = table
    rows = tuple((mask, itemgetter(*a), itemgetter(*b)) for mask, a, b in rows)  # >= 2 entries each
    return itemgetter(0, 0, *firsts), itemgetter(0, 0, *seconds), (0, 0, *masks), always, rows


def _live(perm: Permutation, reads: tuple, sites: int) -> int:
    # The sites of the bitmask `sites` at which no row of the table rises in value.
    firsts, seconds, masks, always, rows = reads
    rises = compress(masks, map(lt, firsts(perm), seconds(perm)))
    live = sites & ~(always | reduce(or_, rises, 0))
    for mask, a, b in rows:
        if live & mask and all(map(lt, a(perm), b(perm))):
            live &= ~mask
    return live


@lru_cache(maxsize=MAX_EXHAUSTIVE)
def _children(k: int, pats: frozenset) -> tuple:
    # The tables of all k + 1 children of an avoider of [k] as one, on the parent: child s (k + 1
    # at s) never reads s, reads its p at the parent's p - (p > s), has sites from s * (k + 2).
    return _reads(_table(k + 1, range(k + 1), _shapes(pats), 1))


@cache
def _spread(k: int, live: int) -> int:
    # The sites each child of an avoider of [k] with live sites `live` inherits, packed as
    # _children's table has them: dead sites stay dead, s splits in two, sites from s move up.
    # The cache holds at most 2 ** (k + 1) masks per level, for k < MAX_EXHAUSTIVE - 1.
    lives = [s for s in range(k + 1) if live >> s & 1]
    return sum((live & (2 << s) - 1 | live >> s << s + 1) << s * (k + 2) for s in lives)


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
    # picks the segments of perm the other entries come from.  Per pattern, keyed by
    # that side, _shapes gives how many entries lie before, between and after the two
    # largest, and the value order of those entries.
    # Level k's table is shared by every call on pats.  Level 0's, [1]'s for 2, reads no
    # entry but its two (0, 0) pairs, so [1] stands in for the empty parent.
    children = [_children(k, pats) for k in range(m - 1)]
    live, count = _live((1,), children[0], 0b11), 0  # the live sites of [1] for 2
    if m == 2:
        return live.bit_count()
    # An avoider of [k] with a live site for k + 1, and the bitmask of its live sites.  One
    # pass tests all its children: child s's live sites are bits s * (k + 2) up of the result.
    stack = [((1,), live)]
    while stack:
        perm, live = stack.pop()
        k = len(perm)
        packed = _live(perm, children[k], _spread(k, live))
        if k + 2 == m:
            count += packed.bit_count()
            continue
        for s in range(k + 1):
            if live := packed >> s * (k + 2) & (1 << k + 2) - 1:
                stack.append((perm[:s] + (k + 1,) + perm[s:], live))
    return count
