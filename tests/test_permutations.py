import gc
import itertools
import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from operator import lt

import pytest

from pathbij import (
    DEFAULT_PATTERNS,
    PathbijError,
    SizeTooLarge,
    contains_pattern,
    count_avoiders,
    count_class_b_series,
    parse_patterns,
    parse_permutation,
    rank_signature,
)
from pathbij.permutations import (
    MAX_EXHAUSTIVE,
    _children,
    _live,
    _reads,
    _shapes,
    _spread,
    _table,
)


def test_parse_permutation():
    assert parse_permutation("3241") == (3, 2, 4, 1)
    assert parse_permutation("1") == (1,)
    with pytest.raises(ValueError):
        parse_permutation("3242")
    with pytest.raises(ValueError):
        parse_permutation("1a3")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_permutation("1a3"), "'1a3' is not a digit string"),
        (lambda: parse_permutation("3242"), "'3242' is not a permutation of 1..4"),
        (lambda: count_avoiders(4, [(1, 1)]), "pattern (1, 1) repeats a value"),
    ],
    ids=["not-digits", "not-a-permutation", "repeated-value"],
)
def test_a_bad_pattern_is_one_domain_error_and_a_value_error(call, message):
    # One error for a bad pattern: the CLI's PathbijError handler prints it, and callers
    # that catch ValueError still do.
    with pytest.raises(PathbijError) as error:
        call()
    assert isinstance(error.value, ValueError)
    assert str(error.value) == message


@pytest.mark.parametrize("text", ["\u0661", "\u0663\u0662\u0664\u0661", "\u00b2"])
def test_parse_permutation_takes_only_ascii_digits(text):
    with pytest.raises(ValueError, match="is not a digit string"):
        parse_permutation(text)


def test_parse_patterns():
    assert parse_patterns("3241,3421,4321") == DEFAULT_PATTERNS
    assert parse_patterns(" 21 , 12 ") == ((2, 1), (1, 2))


def test_rank_signature():
    assert rank_signature((30, 20, 40, 10)) == (3, 2, 4, 1)
    assert rank_signature(()) == ()


def test_contains_pattern_examples():
    assert contains_pattern((3, 2, 4, 1), (3, 2, 4, 1))
    assert not contains_pattern((1, 2, 3, 4), (4, 3, 2, 1))
    assert contains_pattern((4, 3, 2, 1, 5), (4, 3, 2, 1))
    assert not contains_pattern((1, 2), (1, 2, 3))
    assert contains_pattern((2, 7, 1, 8, 5), (1, 3, 2))


@pytest.mark.parametrize("pat", [(3, 1, 4), (20, 10), (5, 9, 2, 7), (7,)])
def test_contains_pattern_reads_patterns_by_relative_order(pat):
    """A pattern that is not a permutation of 1..k means its rank signature, in both
    ``contains_pattern`` and ``count_avoiders``."""
    assert contains_pattern((2, 1, 3), (3, 1, 4))
    for m in range(6):
        avoiders = sum(
            not contains_pattern(perm, pat) for perm in itertools.permutations(range(1, m + 1))
        )
        assert avoiders == count_avoiders(m, [pat]) == count_avoiders(m, [rank_signature(pat)])


def test_contains_pattern_monotone_under_more_patterns():
    counts = [count_avoiders(5, DEFAULT_PATTERNS[:k]) for k in range(4)]
    assert counts[0] == math.factorial(5)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_count_avoiders_examples():
    assert count_avoiders(3) == 6  # patterns longer than the word
    assert count_avoiders(4) == 21  # 24 - 3: a 4-word contains a 4-pattern only by equality
    assert count_avoiders(4, ()) == 24
    assert count_avoiders(0) == 1


@pytest.mark.parametrize("m", range(1, 7))
def test_count_avoiders_matches_path_counts(m):
    assert count_avoiders(m) == count_class_b_series(m - 1)[m - 1]


def test_count_avoiders_generic_lengths():
    # mixed pattern lengths, including patterns as long as the permutation
    assert count_avoiders(4, ((2, 1),)) == 1  # only the identity avoids 21
    assert count_avoiders(3, ((1, 2), (2, 1))) == 0
    assert count_avoiders(4, ((2, 1), (1, 2, 3))) == 0  # avoiding 21 forces the identity, which has 123
    # length 5 > (3-1)(3-1) forces a monotone triple, so nothing avoids both
    assert count_avoiders(5, ((1, 2, 3), (3, 2, 1))) == 0


def _random_pattern_sets(count, seed=3, sizes=(0, 3), lengths=(1, 4)):
    """Distinct seeded sets of patterns, with sizes and lengths in the given inclusive ranges."""
    rng = random.Random(seed)
    sets = {}
    while len(sets) < count:
        pats = []
        for _ in range(rng.randint(*sizes)):
            pat = list(range(1, rng.randint(*lengths) + 1))
            rng.shuffle(pat)
            pats.append(tuple(pat))
        sets.setdefault(frozenset(pats), tuple(pats))
    return list(sets.values())


MIXED_LENGTHS = ((1, 3, 2), (4, 2, 3, 1))
SCAN_SETS = [DEFAULT_PATTERNS, ((),), ((1, 2, 3), (3, 2, 1)), MIXED_LENGTHS, *_random_pattern_sets(8)]
SCAN_CASES = [(m, pats) for pats in SCAN_SETS for m in range(7)]
SCAN_CASES += [(7, DEFAULT_PATTERNS), (7, MIXED_LENGTHS)]
# Length-5 patterns, by where the second-largest entry sits: right of the maximum
# in the first three sets, left of it in the next two, on both sides in the last.
LENGTH_FIVE_SETS = [
    ((1, 2, 3, 5, 4),),
    ((5, 4, 1, 2, 3),),
    ((2, 1, 5, 3, 4),),
    ((1, 4, 2, 5, 3),),
    ((3, 4, 5, 1, 2),),
    ((2, 5, 1, 4, 3), (2, 1, 3)),
]
SCAN_CASES += [(m, pats) for pats in LENGTH_FIVE_SETS for m in range(8)]
# A length-1 pattern kills the root's one site: 1 avoider at m = 0, none after.
SCAN_CASES += [(m, ((1,), (3, 2, 4, 1))) for m in range(7)]
# The shortest pattern decides: the empty one occurs even in the empty permutation.
SCAN_CASES += [(m, ((), (1, 2))) for m in range(7)]
# At m = 2 the count is the root's live sites alone, with no packed pass (a set above has 12).
SCAN_CASES += [(2, pats) for pats in (((2, 1),), ((1, 2), (2, 1)), ((2, 1), (1, 2, 3)))]


def _patterns_id(pats):
    return ",".join("".join(map(str, p)) or "()" for p in pats) or "none"


def _case_id(case):
    m, pats = case
    return f"{m}-{_patterns_id(pats)}"


@pytest.mark.parametrize("m, patterns", SCAN_CASES, ids=map(_case_id, SCAN_CASES))
def test_count_avoiders_agrees_with_containment_scan(m, patterns):
    expected = sum(
        1
        for perm in itertools.permutations(range(1, m + 1))
        if not any(contains_pattern(perm, pat) for pat in patterns)
    )
    assert count_avoiders(m, patterns) == expected


def test_count_avoiders_bound():
    with pytest.raises(SizeTooLarge):
        count_avoiders(10)
    with pytest.raises(ValueError):
        count_avoiders(-1)


@pytest.mark.parametrize("pattern", [(1, 1), (2, 2, 1), [3, 1, 3]], ids=["11", "221", "313"])
def test_count_avoiders_rejects_a_pattern_with_repeated_values(pattern):
    with pytest.raises(ValueError) as error:
        count_avoiders(4, [(1, 2), pattern])
    assert str(error.value) == f"pattern {tuple(pattern)} repeats a value"


# Published counts for m = 0..9, beyond the reach of the containment scan.
LITERATURE = {
    (4, 3, 2, 1): [1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359],  # A047889
    (1, 2, 3): [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],  # Catalan numbers
    (1, 3, 4, 2): [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245],  # Bóna, A022558
}


@pytest.mark.parametrize("pattern", LITERATURE, ids=lambda p: "".join(map(str, p)))
def test_count_avoiders_matches_published_sequences(pattern):
    assert [count_avoiders(m, (pattern,)) for m in range(10)] == LITERATURE[pattern]


# The walk as it was before the per-call position tables, kept verbatim as a slow
# reference: one occurrence search per site, over slices of the permutation.
def ref_completes(perm, q, t, shapes):
    # Does a new maximum at site t complete an occurrence that holds perm[q], the old maximum?
    right = q >= t
    if right:
        segments = perm[:t], perm[t:q], perm[q + 1 :]
    else:
        segments = perm[:q], perm[q + 1 : t], perm[t:]
    for counts, chain in shapes[right]:
        for a in itertools.combinations(segments[0], counts[0]):
            for b in itertools.combinations(segments[1], counts[1]):
                for c in itertools.combinations(segments[2], counts[2]):
                    sub = a + b + c
                    if all(sub[x] < sub[y] for x, y in chain):
                        return True
    return False


def ref_shapes(pats):
    shapes = ([], [])
    for p in pats:
        n = len(p)
        j, i = p.index(n), p.index(n - 1)
        lo, hi = sorted((i, j))
        rest = [v for v in p if v < n - 1]
        order = sorted(range(n - 2), key=rest.__getitem__)
        shapes[i > j].append(((lo, hi - lo - 1, n - 1 - hi), tuple(zip(order, order[1:]))))
    return shapes


def ref_count_avoiders(m, patterns=DEFAULT_PATTERNS):
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
    # Why only occurrences through k are tested: see pathbij.permutations.
    shapes = ref_shapes(pats)
    count = 0
    # An avoider of [k], where k sits in it, and its sites still to test for k + 1.
    stack = [((1,), 0, [0, 1])]
    while stack:
        perm, q, sites = stack.pop()
        k = len(perm)
        live = [t for t in sites if not ref_completes(perm, q, t, shapes)]
        if k + 1 == m:
            count += len(live)
            continue
        for s in live:
            # A site dead for a parent stays dead for every descendant; s splits in two.
            child_sites = [t for t in live if t <= s] + [t + 1 for t in live if t >= s]
            stack.append((perm[:s] + (k + 1,) + perm[s:], s, child_sites))
    return count


REFERENCE_SETS = list(dict.fromkeys([*SCAN_SETS, *LENGTH_FIVE_SETS, *((p,) for p in LITERATURE)]))


@pytest.mark.parametrize("patterns", REFERENCE_SETS, ids=map(_patterns_id, REFERENCE_SETS))
def test_count_avoiders_matches_the_occurrence_search(patterns):
    for m in range(9):
        assert count_avoiders(m, patterns) == ref_count_avoiders(m, patterns)


# The sets the walk runs on: no empty set and no pattern shorter than 2.
WALKED_SETS = [pats for pats in REFERENCE_SETS if pats and min(map(len, pats)) >= 2]


@pytest.mark.parametrize("patterns", WALKED_SETS, ids=map(_patterns_id, WALKED_SETS))
def test_dead_sites_match_the_occurrence_search_node_by_node(patterns):
    # At every avoider of [k], k <= 6, with k at q, the packed table of its parent's children
    # marks site t of child q dead exactly when a new maximum at t completes an occurrence
    # through k: the pair masks, the always-dead mask and the longer rows, one node at a time.
    pats = frozenset(rank_signature(p) for p in patterns)
    shapes, chains = _shapes(pats), ref_shapes(pats)
    for k in range(1, 7):
        reads = _reads(_table(k - 1, shapes))
        for perm in itertools.permutations(range(1, k + 1)):
            if any(contains_pattern(perm, p) for p in pats):
                continue
            q = perm.index(k)
            parent = perm[:q] + perm[q + 1 :] or (1,)  # level 0 reads only its (0, 0) pairs
            live = _live(parent, reads, (1 << k * (k + 1)) - 1) >> q * (k + 1)
            for t in range(k + 1):
                assert (not live >> t & 1) == ref_completes(perm, q, t, chains), (perm, t)


MIXED_LENGTH_SETS = _random_pattern_sets(20, seed=11, sizes=(1, 3), lengths=(2, 5))


@pytest.mark.parametrize("patterns", MIXED_LENGTH_SETS, ids=map(_patterns_id, MIXED_LENGTH_SETS))
def test_count_avoiders_matches_the_occurrence_search_on_mixed_lengths(patterns):
    # Pair rows, longer rows and sites that always die share one table here.
    for m in range(9):
        assert count_avoiders(m, patterns) == ref_count_avoiders(m, patterns)


# The position tables as they were built before each row was built once for its interval
# of sites, kept verbatim as a slow reference: every row again for each site t.
def ref_table(k: int, q: int, shapes: tuple[list, list]) -> tuple:
    # Per site t, the positions of the other entries of each occurrence through k (at
    # q) and a new maximum at t, in value order: a row, which kills t if its values rise.
    # Pair rows map to site bitmasks; shorter ones kill t always; longer ones keep pairs.
    pairs: dict[tuple[int, int], int] = {}
    always, rows = 0, []
    for t in range(k + 1):
        right = q >= t
        if right:
            ranges = range(t), range(t, q), range(q + 1, k)
        else:
            ranges = range(q), range(q + 1, t), range(t, k)
        for counts, order in shapes[right]:
            for a in combinations(ranges[0], counts[0]):
                for b in combinations(ranges[1], counts[1]):
                    for c in combinations(ranges[2], counts[2]):
                        row = tuple([(a + b + c)[x] for x in order])
                        if len(row) < 2:
                            always |= 1 << t  # no value order to break
                        elif len(row) == 2:
                            pairs[row] = pairs.get(row, 0) | 1 << t
                        else:
                            rows.append((1 << t, row[:-1], row[1:]))
    return [a for a, _ in pairs], [b for _, b in pairs], list(pairs.values()), always, rows


def _merged(table):
    # ref_table's output in _table's form: each row of 2 or more positions -> the sites it
    # kills, and the always-dead sites.
    firsts, seconds, masks, always, rows = table
    merged = {}
    for row, sites in [*zip(zip(firsts, seconds), masks), *((a + b[-1:], m) for m, a, b in rows)]:
        merged[row] = merged.get(row, 0) | sites
    return merged, always


def ref_packed(k, shapes):
    # The table of all k + 1 children of an avoider of [k] from each child's own ref_table,
    # remapped to the parent: child s reads its p at p - (p > s), has sites from s * (k + 2).
    rows, always = {}, 0
    for s in range(k + 1):
        own, dead = _merged(ref_table(k + 1, s, shapes))
        always |= dead << s * (k + 2)
        for row, sites in own.items():
            row = tuple(p - (p > s) for p in row)
            rows[row] = rows.get(row, 0) | sites << s * (k + 2)
    return rows, always


# Length-6 patterns give rows of four entries, which no set above has.
LENGTH_SIX_SETS = _random_pattern_sets(6, seed=5, sizes=(1, 3), lengths=(6, 6))
TABLE_SETS = [
    pats
    for pats in dict.fromkeys([*REFERENCE_SETS, *MIXED_LENGTH_SETS, *LENGTH_SIX_SETS])
    if pats and min(map(len, pats)) >= 2
]


@pytest.mark.parametrize("patterns", TABLE_SETS, ids=map(_patterns_id, TABLE_SETS))
def test_tables_match_the_per_site_construction(patterns):
    shapes = _shapes(frozenset(rank_signature(p) for p in patterns))
    for k in range(8):
        assert _table(k, shapes) == ref_packed(k, shapes), k


def test_length_six_sets_reach_four_entry_rows():
    shapes = _shapes(frozenset(LENGTH_SIX_SETS[0]))
    assert any(len(row) == 4 for k in range(8) for row in _table(k, shapes)[0])


def test_children_reading_the_same_positions_share_one_row():
    # 1342 gives pair rows, 34251 and 35421 three-entry rows, which many children read at the
    # same parent positions; each is kept once, with the union of its children's sites.
    pats = frozenset({(1, 3, 4, 2), (3, 4, 2, 5, 1), (3, 5, 4, 2, 1)})
    shapes = _shapes(pats)
    for k in range(8):
        assert _table(k, shapes) == ref_packed(k, shapes), k
    assert sum(len(row) > 2 for row in _table(7, shapes)[0]) == 35
    assert count_avoiders(7, pats) == 2237  # as the containment scan counts


def test_a_rising_row_clears_its_whole_interval_and_revives_no_site():
    # One three-entry row, positions 0 < 1 < 2, whose mask spans sites 1-3; site 2 is dead.
    table = ({(0, 1, 2): 0b01110}, 0)
    assert _live((1, 2, 3, 4), _reads(table), 0b11011) == 0b10001
    # Values that do not rise leave the live sites as they were.
    assert _live((2, 1, 3, 4), _reads(table), 0b11011) == 0b11011
    # Beside one pair row, which its getters read after the two (0, 0) pairs.
    table = ({(0, 1, 2): 0b01110, (3, 0): 0b10000}, 0b00001)
    assert _live((1, 2, 3, 4), _reads(table), 0b11011) == 0b10000
    assert _live((3, 1, 4, 2), _reads(table), 0b11011) == 0b01010


# The node test without getters, as the reference: one interpreted call per position, on the
# table in _table's form.
def ref_live(get, table, sites):
    rows, always = table
    live = sites & ~always
    for row, mask in rows.items():
        if all(map(lt, map(get, row[:-1]), map(get, row[1:]))):
            live &= ~mask
    return live


@pytest.mark.parametrize("patterns", WALKED_SETS, ids=map(_patterns_id, WALKED_SETS))
def test_getter_reads_match_the_per_position_node_test(patterns):
    # Every (k, q) with k <= 8, on one node's tables of no pair (DEFAULT_PATTERNS at (6, 4)),
    # one pair (at (6, 3)) and more, against seeded permutations of [k] and site masks.
    shapes = _shapes(frozenset(rank_signature(p) for p in patterns))
    rng = random.Random(13)
    for k in range(1, 9):
        for q in range(k):
            table = _merged(ref_table(k, q, shapes))
            reads = _reads(table)
            for _ in range(12):
                perm = rng.sample(range(1, k + 1), k)
                perm.insert(q, perm.pop(perm.index(k)))
                perm, sites = tuple(perm), rng.getrandbits(k + 1)
                assert _live(perm, reads, sites) == ref_live(perm.__getitem__, table, sites)


@pytest.mark.parametrize("patterns", TABLE_SETS, ids=map(_patterns_id, TABLE_SETS))
def test_packed_children_match_each_childs_own_table(patterns):
    # At every avoider of [k], k <= 7, one pass on the parent tests all k + 1 children, every
    # site of each: child s's k + 2 bits are what its own table gives on the child itself.
    pats = frozenset(rank_signature(p) for p in patterns)
    shapes = _shapes(pats)
    level = {(): 1}  # each avoider of [k] with its live sites for k + 1
    for k in range(8):
        full = (1 << k + 2) - 1
        reads, sites = _children(k, pats), sum(full << s * (k + 2) for s in range(k + 1))
        tables = [_reads(_merged(ref_table(k + 1, s, shapes))) for s in range(k + 1)]
        after = {}
        for perm, live in level.items():
            packed = _live(perm or (1,), reads, sites)  # level 0 reads only its (0, 0) pairs
            for s in range(k + 1):
                child, field = perm[:s] + (k + 1,) + perm[s:], packed >> s * (k + 2) & full
                assert field == _live(child, tables[s], full), (perm, s)
                if live >> s & 1:
                    after[child] = field
        level = after


# The sites a child inherits, one at a time: child s (k + 1 at the parent's live site s) has
# site t live if the parent has site t - (t > s), so the parent's site s gives it s and s + 1.
def ref_spread(k, live):
    packed = 0
    for s in range(k + 1):
        for t in range(k + 2):
            if live >> s & 1 and live >> t - (t > s) & 1:
                packed |= 1 << s * (k + 2) + t
    return packed


def test_spread_matches_the_site_by_site_inheritance():
    # Every mask of live sites a parent of k <= 6 entries can have.
    for k in range(7):
        for live in range(1 << k + 1):
            assert _spread(k, live) == ref_spread(k, live), (k, bin(live))


def _children_live(perm, live, reads):
    # Each child of perm, an avoider of [k] whose live sites for k + 1 are `live`, with its live
    # sites, from one packed pass.
    k = len(perm)
    packed = _live(perm, reads, _spread(k, live))
    at = [s for s in range(k + 1) if live >> s & 1]
    return {perm[:s] + (k + 1,) + perm[s:]: packed >> s * (k + 2) & (1 << k + 2) - 1 for s in at}


def _west_children(label):
    s, j, r = label
    rule = [(r, r, 0)] * (s - j) + [(s + 1, i, 1) for i in range(2, j + 1)]
    return sorted(rule + [(s + 1, j + 1, r + 1 if r else 0)])


def test_default_tree_follows_wests_three_label_rule():
    """Label each avoider of DEFAULT_PATTERNS (s, j, r): s live sites, j children with s + 1
    live sites, and r the live-site count its other children share (0 if j = s).  The rule

        (s, j, r) -> (s - j) x (r, r, 0), (s + 1, i, 1) for 2 <= i <= j,
                     (s + 1, j + 1, r + 1 if r else 0)

    from [1] = (2, 2, 0) is empirical: no proof is written down.  It is checked here at
    every node up to [8], so on labels read from the packed walk up to [9].
    """
    level = {(1,): _live((1,), _children(0, frozenset(DEFAULT_PATTERNS)), 0b11)}
    labels, kids = {}, {}
    for k in range(1, 10):
        reads, after = _children(k, frozenset(DEFAULT_PATTERNS)), {}
        for perm, live in level.items():
            kids[perm] = _children_live(perm, live, reads)
            after.update(kids[perm])
            counts = [child.bit_count() for child in kids[perm].values()]
            s = live.bit_count()
            others = {c for c in counts if c != s + 1}
            assert len(others) <= 1, (perm, counts)
            labels[perm] = s, counts.count(s + 1), min(others, default=0)
        level = after
    assert labels[(1,)] == (2, 2, 0)
    for perm, children in kids.items():
        if len(perm) <= 8:
            assert sorted(map(labels.get, children)) == _west_children(labels[perm]), perm


def test_default_tables_have_no_pair_and_one_pair_at_length_six():
    shapes = _shapes(frozenset(DEFAULT_PATTERNS))
    assert [len(ref_table(6, q, shapes)[0]) for q in (4, 3)] == [0, 1]


def test_count_avoiders_matches_the_occurrence_search_at_the_bound():
    assert count_avoiders(9) == ref_count_avoiders(9) == 20626


def test_shared_position_tables_are_keyed_by_pattern_set():
    # The pattern sets below tabulate other positions under the same lengths, so
    # tables shared across calls but not keyed by the set would count the later sets wrongly.
    sets = [DEFAULT_PATTERNS, MIXED_LENGTHS, LENGTH_FIVE_SETS[-1]]
    expected = [
        sum(
            not any(contains_pattern(perm, pat) for pat in pats)
            for perm in itertools.permutations(range(1, 8))
        )
        for pats in sets
    ]
    for order in (sets, sets[::-1]):
        for pats in order:
            assert count_avoiders(7, pats) == expected[sets.index(pats)], pats


def test_position_tables_are_freed_without_the_collector():
    # A warm call builds no table and leaves nothing behind, and the cached tables hold
    # no reference cycle, so what a call allocates goes when it returns, not at the next
    # collection.
    gc.disable()
    try:
        tracemalloc.start()
        try:
            # Warm up until a call leaves less than the bound behind: the interpreter's
            # free lists keep freed tuples, and the first few calls fill them.
            for _ in range(8):
                start = tracemalloc.get_traced_memory()[0]
                count_avoiders(8)
                if tracemalloc.get_traced_memory()[0] - start <= 4096:
                    break
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert count_avoiders(8) == 5026
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert left - start <= 4096
    assert peak - start <= 64_000


def test_each_level_table_is_built_once_per_pattern_set():
    _children.cache_clear()
    assert [count_avoiders(m) for m in range(1, 9)] == [1, 2, 6, 21, 79, 309, 1237, 5026]
    assert _children.cache_info().misses == 7  # levels 0..6, each built by its first call
    assert count_avoiders(9) == 20626
    assert _children.cache_info().misses == 8
    assert count_avoiders(9, ((1, 3, 4, 2),)) == 91245
    info = _children.cache_info()
    assert info.maxsize == MAX_EXHAUSTIVE and info.currsize <= MAX_EXHAUSTIVE
    # What callers share holds no list or dict a caller could change in place.
    firsts, seconds, masks, always, rows = _children(7, frozenset({(1, 3, 4, 2)}))
    assert type(masks) is type(rows) is tuple and all(type(row) is tuple for row in rows)


def test_concurrent_callers_count_as_sequential_ones():
    # Three sets share the bounded cache, so threads build, read and evict one another's tables.
    sets = [DEFAULT_PATTERNS, ((1, 3, 4, 2),), MIXED_LENGTHS]
    jobs = [(m, pats) for m in range(5, 9) for pats in sets] * 2
    _children.cache_clear()
    expected = [count_avoiders(m, pats) for m, pats in jobs]
    _children.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(count_avoiders, *zip(*jobs))) == expected
