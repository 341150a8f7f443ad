import gc
import itertools
import tracemalloc
import weakref
from collections import defaultdict
from operator import add

import pytest

import pathbij.families
from pathbij import (
    Census,
    Path,
    count_class_a_series,
    count_class_b_series,
    count_series,
    in_class_a,
    in_class_b,
    indec_census,
)
from pathbij.families import class_a_words, class_b_words
from pathbij.paths import DOWN, FLAT, UP, step_heights


def brute_force(n, predicate):
    """Independent oracle: filter every step word of size n over the alphabet."""
    found = []
    for length in range(n, 2 * n + 1):
        for word in itertools.product("DFU", repeat=length):
            s = "".join(word)
            if s.count("U") + s.count("F") != n:
                continue
            if predicate(Path(s)):
                found.append(s)
    return sorted(found)


def ref_class_a_words(n, flat_line=2):
    """The depth-first stack loop that preceded the walk with tails, one prefix per node."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    # (prefix, height, unused width in half-units); a prefix at height h can
    # still reach (2n, 0) iff |h| <= rem (parity works out automatically).
    # Children are pushed in U, F, D order so that they pop in D < F < U order.
    stack = [("", 0, 2 * n)]
    while stack:
        prefix, h, rem = stack.pop()
        if rem == 0:
            yield prefix
            continue
        if abs(h + 1) < rem:
            stack.append((prefix + UP, h + 1, rem - 1))
        if h == flat_line and abs(h) <= rem - 2:
            stack.append((prefix + FLAT, h, rem - 2))
        if abs(h - 1) < rem:
            stack.append((prefix + DOWN, h - 1, rem - 1))


def ref_class_b_words(n):
    """The depth-first stack loop that preceded the walk with tails, one prefix per node."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    # peak_used tracks whether the open component already spent its peak;
    # both flags reset when a step lands on ground (component boundary).
    stack = [("", 0, 2 * n, False, False)]
    while stack:
        prefix, h, rem, last_up, peak_used = stack.pop()
        if rem == 0:
            yield prefix
            continue
        if h + 1 < rem:
            stack.append((prefix + UP, h + 1, rem - 1, True, peak_used))
        if h <= rem - 2:
            stack.append((prefix + FLAT, h, rem - 2, False, peak_used))
        if h >= 1 and not (last_up and peak_used):
            peak_used = h > 1 and (peak_used or last_up)
            stack.append((prefix + DOWN, h - 1, rem - 1, False, peak_used))


@pytest.mark.parametrize(
    "fast,slow,n,args",
    [(class_a_words, ref_class_a_words, n, ()) for n in range(10)]
    + [(class_b_words, ref_class_b_words, n, ()) for n in range(10)]
    + [
        (class_a_words, ref_class_a_words, n, (k,))
        for k in (-2, -1, 0, 1, 3, 4)
        for n in range(8)
    ],
)
def test_enumerators_match_the_stack_loops(fast, slow, n, args, monkeypatch):
    # At the default _TAIL the brute-force tests above (n <= 4) never leave the table
    # of tails: compare with the walk alone (0), the default, and the table alone (2n).
    expected = list(slow(n, *args))
    for tail in (0, pathbij.families._TAIL, 2 * n):
        monkeypatch.setattr(pathbij.families, "_TAIL", tail)
        assert list(fast(n, *args)) == expected, tail


def test_tails_tables_are_freed_without_the_collector():
    # The table of tails is local to each call and in no reference cycle, so it goes
    # with the generator, not at the next collection.
    def exhaust_then_close():
        for _ in class_b_words(9):
            pass
        exhausted, peak = tracemalloc.get_traced_memory()
        words = class_a_words(9)
        next(words)
        words.close()
        del words
        return exhausted, peak, tracemalloc.get_traced_memory()[0]

    gc.disable()
    try:
        exhaust_then_close()  # warm-up: fills the free lists, which keep freed tuples
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            exhausted, peak, closed = exhaust_then_close()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert exhausted - start <= 4096
    assert peak - start <= 128_000
    assert closed - start <= 4096


@pytest.mark.parametrize("n", range(5))
def test_enumerate_class_a_matches_brute_force(n):
    assert list(class_a_words(n)) == brute_force(n, in_class_a)


@pytest.mark.parametrize("n", range(5))
def test_enumerate_class_b_matches_brute_force(n):
    assert list(class_b_words(n)) == brute_force(n, in_class_b)


@pytest.mark.parametrize("n,flat_line", [(n, k) for n in range(4) for k in (-1, 0, 1, 3)])
def test_enumerate_flat_line_variants(n, flat_line):
    expected = brute_force(n, lambda p: in_class_a(p, flat_line))
    assert list(class_a_words(n, flat_line)) == expected
    assert count_class_a_series(n, flat_line)[n] == len(expected)


def test_enumerate_goldens():
    assert list(class_a_words(0)) == [""]
    assert list(class_a_words(1)) == ["DU", "UD"]
    a2 = list(class_a_words(2))
    assert len(a2) == 6
    assert not any("F" in w for w in a2)

    assert list(class_b_words(1)) == ["F", "UD"]
    assert len(list(class_b_words(2))) == 6
    b3 = list(class_b_words(3))
    assert len(b3) == 21
    assert "UUDUDD" not in b3  # the lone size-3 Schroeder path with 2 peaks


def test_enumerations_sorted_and_unique():
    for n in range(6):
        for words in (list(class_a_words(n)), list(class_b_words(n))):
            assert all(a < b for a, b in zip(words, words[1:]))


def test_enumerated_class_a_structure():
    for n in range(6):
        for w in class_a_words(n):
            assert w.count("U") == w.count("D")
            hs = step_heights(w)
            assert all(hs[i] == 2 for i, c in enumerate(w) if c == "F")


def test_count_small_goldens():
    assert [count_class_a_series(n)[n] for n in range(4)] == [1, 2, 6, 21]
    assert [count_class_b_series(n)[n] for n in range(4)] == [1, 2, 6, 21]
    assert [count_series(n) for n in range(4)] == [[1], [1, 2], [1, 2, 6], [1, 2, 6, 21]]


@pytest.mark.parametrize("n", range(8))
def test_counts_match_enumeration(n):
    assert count_class_a_series(n)[n] == sum(1 for _ in class_a_words(n))
    assert count_class_b_series(n)[n] == sum(1 for _ in class_b_words(n))


def test_series_consistency():
    assert count_class_a_series(7) == [count_class_a_series(n)[n] for n in range(8)]
    assert count_class_b_series(7) == [count_class_b_series(n)[n] for n in range(8)]


def test_counts_agree_at_scale():
    assert count_class_a_series(60) == count_class_b_series(60)


def test_recurrence_matches_both_dps():
    assert count_series(400) == count_class_a_series(400) == count_class_b_series(400)


def a026737_by_triangle(max_n, parity=0, shift=0):
    """A026737, a(n) = T(2n, n), from its triangle A026736: T(n, 0) = T(n, n) = 1 and
    T(n, k) = T(n-1, k-1) + T(n-1, k), plus T(n-2, k-1) when n is even and k = (n-2)/2.

    The definition is recalled, not checked against the OEIS text; it agrees with
    count_series to n = 1000 below.  Read with height n - 2k, the extra term is a
    flatstep at height 2, so the triangle counts class A by endpoint: its code shares
    nothing with the class-A DP, but its mathematics does.  ``parity`` and ``shift``
    move the extra term to odd n or to k + shift, for the mutants below.
    """
    terms, two_back, row = [1], [], [1]  # rows n-2 and n-1
    for n in range(1, 2 * max_n + 1):
        new = [1, *map(add, row, row[1:]), 1]
        k = (n - 2) // 2 + shift
        if n % 2 == parity and 1 <= k < n:
            new[k] += two_back[k - 1]
        two_back, row = row, new
        if n % 2 == 0:
            terms.append(row[n // 2])
    return terms


def test_a026737_by_its_own_definition_is_the_recurrence():
    assert a026737_by_triangle(1000) == count_series(1000)


@pytest.mark.parametrize("parity, shift", [(1, 0), (0, -1), (0, 1)])
def test_a026737_with_the_extra_term_moved_fails_by_n_3(parity, shift):
    assert a026737_by_triangle(3, parity, shift) != count_series(3)


@pytest.mark.parametrize("dp", [count_class_a_series, count_class_b_series])
def test_dp_keeps_only_live_columns(dp):
    # Each column is released once read: the peak grows with the live columns' width,
    # not with all 2n + 1 of them (about 4.5x per doubling of n when all are kept).
    peaks = []
    for n in (100, 200):
        tracemalloc.start()
        try:
            series = dp(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert series == count_series(n)
    assert peaks[1] <= 3 * peaks[0]


@pytest.mark.parametrize("dp", [count_class_a_series, count_class_b_series])
def test_dp_holds_at_most_four_columns(dp, monkeypatch):
    # Three columns are live (the one being read, the next and the one after it), and a
    # fourth only while the walk moves on; all 2n + 1 of them are never held at once.
    columns, alive = [], []

    class Column(defaultdict):
        def __init__(self, *args):
            super().__init__(*args)
            columns.append(weakref.ref(self))
            alive.append(sum(ref() is not None for ref in columns))

    monkeypatch.setattr(pathbij.families, "defaultdict", Column)
    assert dp(30) == count_series(30)
    assert columns and max(alive) <= 4


def test_recurrence_refuses_an_inexact_division(monkeypatch):
    import pathbij.families

    # A remainder can only come from a wrong recurrence; fake one to reach the guard.
    monkeypatch.setattr(pathbij.families, "divmod", lambda a, b: (a // b, 1), raising=False)
    assert count_series(2) == [1, 2, 6]
    with pytest.raises(ArithmeticError, match="n=3"):
        count_series(3)


def test_dp_series_satisfies_the_quadratic():
    # x(x^2+4x-1) F^2 + (4x^2-5x+1) F + (4x-1) = 0, coefficient by coefficient mod x^201.
    f = count_class_a_series(200)
    sq = [sum(f[i] * f[k - i] for i in range(k + 1)) for k in range(201)]

    def at(seq, k):
        return seq[k] if k >= 0 else 0

    constant = [-1, 4]
    for k in range(201):
        from_square = at(sq, k - 3) + 4 * at(sq, k - 2) - at(sq, k - 1)
        from_linear = 4 * at(f, k - 2) - 5 * at(f, k - 1) + f[k]
        assert from_square + from_linear + (constant[k] if k < 2 else 0) == 0, k


def test_recurrence_operator_reduces_modulo_the_quadratic():
    sp = pytest.importorskip("sympy")
    x, f, c, s1, n = sp.symbols("x F C S1 n")
    quadratic = x * (x**2 + 4 * x - 1) * f**2 + (4 * x**2 - 5 * x + 1) * f + (4 * x - 1)

    # Both first-return decompositions give the quadratic, with C = 1 + x C^2.
    h1 = 1 / (1 - x / (1 - x - x * c))
    class_a = 1 / (1 - x * c - x * h1)
    one_peak = sp.solve(sp.Eq(s1, x * c**2 * (1 + s1)), s1)[0]
    class_b = 1 / (1 - x * c - x * (1 + one_peak))
    for gf in (class_a, class_b):
        numerator = sp.numer(sp.together(quadratic.subs(f, gf)))
        assert sp.rem(sp.expand(numerator), x * c**2 - c + 1, c) == 0

    # sum_k c_k(n) a(n-k) is the coefficient of x^n in sum_k x^k c_k(theta + k) F,
    # theta = x d/dx; F' and F'' come from differentiating the quadratic.
    coefficients = [
        n**2 + 7 * n + 6,
        18 - 50 * n - 8 * n**2,
        -174 + 81 * n + 15 * n**2,
        -42 + 22 * n + 4 * n**2,
    ]
    d1 = -sp.diff(quadratic, x) / sp.diff(quadratic, f)
    d2 = sp.diff(d1, x) + sp.diff(d1, f) * d1
    theta = [f, x * d1, x * d1 + x**2 * d2]  # theta^0, theta^1, theta^2 applied to F
    applied = 0
    for k, ck in enumerate(coefficients):
        poly = sp.Poly(sp.expand(ck.subs(n, n + k)), n)
        applied += x**k * sum(poly.coeff_monomial(n**j) * theta[j] for j in range(3))
    residue = sp.numer(sp.together(applied - (6 - 12 * x - 36 * x**2)))
    assert sp.rem(sp.expand(residue), quadratic, f) == 0


def test_rejects_negative_size():
    # The enumerators are generators: they raise on the first next(), not on the call.
    with pytest.raises(ValueError):
        next(class_a_words(-1))
    with pytest.raises(ValueError):
        next(class_b_words(-1))
    with pytest.raises(ValueError):
        count_class_a_series(-1)
    with pytest.raises(ValueError):
        count_class_b_series(-1)
    with pytest.raises(ValueError):
        count_series(-1)


def test_census_examples():
    assert indec_census(1) == Census(1, 1, 1, 1)
    c2 = indec_census(2)
    assert (c2.below_a, c2.above_a) == (c2.nopeak_b, c2.onepeak_b)

    c4 = indec_census(4)
    assert c4.below_a == c4.nopeak_b
    assert c4.above_a == c4.onepeak_b
    below4 = [w for w in class_a_words(4) if step_heights(w).count(0) == 2 and w[0] == "D"]
    assert "DDUDDUUU" in below4
    assert len(below4) == c4.below_a
    nopeak4 = [q for q in class_b_words(4) if step_heights(q).count(0) == 2 and q.count("UD") == 0]
    assert "UFUFDD" in nopeak4
    assert len(nopeak4) == c4.nopeak_b

    with pytest.raises(ValueError):
        indec_census(0)
