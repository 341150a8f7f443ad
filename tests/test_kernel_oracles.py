"""Whole-word kernels against slow, independent reference versions.

The references below are the straightforward per-character and per-component
versions of the kernels in ``pathbij.bijection`` and the word functions in
``pathbij.paths``: a loop over characters for ``_expand_flats``, one
``split_components`` part and one ``translate`` per component for
``_flip_marked`` and ``_recover_marks``, one slice per mark for
``_contract_marks``, a slice copy per peak pair for ``class_b_word``, a
zero count for ``split_components`` and a dict lookup per character for
``step_heights``.  Every output and annotation must agree, on every
component up to size 8, on runs of flipped components and on long seeded
components.

The sets L0 to L4 that the above-ground stages map between are defined here
too, each by one predicate and one enumeration.  Every stage is checked as a
bijection from its set onto the next for every size m <= 9, and every stage
value of a long generated path lies in its set.  The kernels test nothing of
their input, so these sets are their domains.
"""

import functools
import importlib.util
import itertools
import math
import pathlib
import random
from itertools import combinations

import pytest

from pathbij.bijection import (
    _ABOVE_STAGES,
    _contract_marks,
    _expand_flats,
    _flip_marked,
    _interchange,
    _recover_marks,
    _run,
    map_word,
)
from pathbij.families import class_a_words, class_b_words
from pathbij.paths import MIRROR, class_a_word, class_b_word, split_components, step_heights


def ref_step_heights(steps):
    return list(itertools.accumulate(({"U": 1, "F": 0, "D": -1}[c] for c in steps), initial=0))


def ref_split_components(steps, heights):
    parts, a = [], 0
    for _ in range(heights.count(0) - 1):
        b = heights.index(0, a + 1)
        parts.append((a, steps[a:b]))
        a = b
    return parts


def ref_class_b_word(steps, heights):
    if heights[-1] != 0 or min(heights) < 0:
        return False
    peak = steps.find("UD")
    while peak >= 0:
        after = steps.find("UD", peak + 2)
        if after >= 0 and 0 not in heights[peak + 1 : after + 1]:
            return False
        peak = after
    return True


def ref_expand_flats(s, _):
    flats = [i for i, c in enumerate(s) if c == "F"]
    marks = frozenset(i + k + 1 for k, i in enumerate(flats))
    return s.replace("F", "DU"), {"marks": marks}


def ref_contract_marks(s, ann):
    out, start = [], 0
    for m in sorted(ann["marks"]):
        out += (s[start : m - 1], "F")
        start = m + 1
    out.append(s[start:])
    return "".join(out), {}


def ref_flip_marked(s, ann):
    hs, parts, v1, v2 = step_heights(s), [], 0, 0
    for start, part in ref_split_components(s, hs):
        if start == 0 or start in ann["marks"]:
            part, v2 = part.translate(MIRROR), start + len(part)
            top = max(hs[start:v2])
            if top > hs[v1]:
                v1 = hs.index(top, start)
        parts.append(part)
    return "".join(parts), {"v1": v1, "v2": v2}


def ref_recover_marks(g, _):
    hs = step_heights(g)
    out, marks = [], set()
    for start, part in ref_split_components(g, hs):
        if part[0] == "D":
            out.append(part.translate(MIRROR))
            if start:
                marks.add(start)
        else:
            out.append(part)
    return "".join(out), {"marks": frozenset(marks)}


# Each rewritten kernel, keyed by the label of the value it produces in ``_run``.
REFERENCES = {
    "expand-flats": (_expand_flats, ref_expand_flats),
    "contract-marks": (_contract_marks, ref_contract_marks),
    "flip-components": (_flip_marked, ref_flip_marked),
    "recover-marks": (_recover_marks, ref_recover_marks),
}


# The sets the above-ground stages map between.  Take an above-ground class-A component
# of size m + 1: its inner word, without the outer steps, is a member of L0(m), and each
# forward stage of ``_run`` takes it to a member of the next set, (step word, annotations)
# as ``_run`` gives them.  Each set has binom(2m - 1, m) members.


def _size(word):
    return word.count("U") + word.count("F")


def _is_schroeder(word, m):
    """True for a word of size m that ends on ground and never goes below it."""
    hs = step_heights(word)
    return _size(word) == m and hs[-1] == 0 and min(hs) >= 0


def _is_dyck(word, m):
    return "F" not in word and _is_schroeder(word, m)


def landmarks(g):
    """v1, the leftmost lowest vertex of a grand Dyck word g, and v2, the end of its last
    upstep to ground, which follows its last vertex at -1 ({} if g never goes below ground)."""
    hs = step_heights(g)
    if min(hs) >= 0:
        return {}
    return {"v1": hs.index(min(hs)), "v2": len(hs) - hs[::-1].index(-1)}


def in_l0(s, ann, m):
    """A Schroeder path of size m with every flatstep at height 1: the inner word of an
    above-ground class-A component of size m + 1."""
    hs = step_heights(s)
    flats_at_1 = all(hs[i] == 1 for i, c in enumerate(s) if c == "F")
    return ann == {} and _is_schroeder(s, m) and flats_at_1


def in_l1(s, ann, m):
    """A Dyck path of semilength m with a set of marked valleys on ground."""
    hs, marks = step_heights(s), ann.get("marks")
    return (
        _is_dyck(s, m)
        and ann.keys() == {"marks"}
        and type(marks) is frozenset
        and all(0 < v < len(s) and hs[v] == 0 and s[v - 1 : v + 1] == "DU" for v in marks)
    )


def in_l2(s, ann, m):
    """A balanced U/D word of length 2m that starts with D, with its landmarks."""
    return (
        len(s) == 2 * m
        and s.count("U") == s.count("D") == m
        and s[:1] == "D"
        and ann == landmarks(s)
    )


def in_l3(s, ann, m):
    """A Dyck path of semilength m with one marked peak, its apex at w."""
    w = ann.get("w")
    return _is_dyck(s, m) and ann.keys() == {"w"} and 0 < w < len(s) and s[w - 1 : w + 1] == "UD"


def in_l4(s, ann, m):
    """A Schroeder path of size m with exactly one peak."""
    return ann == {} and _is_schroeder(s, m) and s.count("UD") == 1


L_SETS = (in_l0, in_l1, in_l2, in_l3, in_l4)


def filled(i, s, ann):
    """An inverse stage's value as a member of L_i.  ``_reverse_interchange`` gives no
    annotations: the landmarks of L2 are functions of the word that its next stage does not
    read, so they are filled in here."""
    if i != 2:
        return s, ann
    assert ann == {}, f"reverse-interchange: {s} {ann}, annotated"
    return s, landmarks(s)


def walks(m, flat_heights, max_peaks):
    """Every word of size m that never goes below ground and ends on it, with flatsteps only
    at flat_heights and at most max_peaks peaks."""
    done, frontier = [], [("", 0, 0, 0)]  # (word, height, size, peaks)
    while frontier:
        grown = []
        for w, h, n, p in frontier:
            if n == m and h == 0:
                done.append(w)
                continue
            if n < m:
                grown.append((w + "U", h + 1, n + 1, p))
                if h in flat_heights:
                    grown.append((w + "F", h, n + 1, p))
            if h and p + (w[-1] == "U") <= max_peaks:
                grown.append((w + "D", h - 1, n, p + (w[-1] == "U")))
        frontier = grown
    return done


@functools.cache
def members(i, m):
    """L_i(m), enumerated from its definition."""
    if i == 0:
        return [(s, {}) for s in walks(m, {1}, m)]
    if i == 2:
        if m == 0:
            return []  # the empty word does not start with D
        words = (
            "".join("U" if k in ups else "D" for k in range(2 * m))
            for ups in map(set, combinations(range(1, 2 * m), m))
        )
        return [(g, landmarks(g)) for g in words]
    if i == 4:
        return [(s, {}) for s in walks(m, range(m + 1), 1) if "UD" in s]
    values = []
    for d in walks(m, (), m):
        hs = step_heights(d)
        if i == 1:
            valleys = [v for v in range(1, 2 * m) if hs[v] == 0 and d[v - 1] == "D"]
            for k in range(len(valleys) + 1):
                values += ((d, {"marks": frozenset(c)}) for c in combinations(valleys, k))
        else:
            values += ((d, {"w": w}) for w in range(1, 2 * m) if d[w - 1 : w + 1] == "UD")
    return values


def check_stage(i, row, max_m):
    """Assert that the stage ``row`` of ``_ABOVE_STAGES`` maps L_i(m) onto L_{i+1}(m) for
    every 1 <= m <= max_m, with its inverse kernel as the inverse.  A failure names the
    stage's forward label, and its inverse label too when the kernels do not undo each
    other.

    The forward kernel's images are distinct and all in L_{i+1}(m), which has as many
    members as L_i(m), so they are all of it; the inverse kernel takes each image back to
    its source, so it maps every member of L_{i+1}(m) into L_i(m), and each kernel undoes
    the other."""
    label, forward, inverse_label, inverse = row
    for m in range(1, max_m + 1):
        source, target = members(i, m), members(i + 1, m)
        assert len(source) == len(target) == math.comb(2 * m - 1, m), (label, m)
        target_keys = {(s, frozenset(ann.items())) for s, ann in target}
        images = set()
        for x in source:
            t, t_ann = forward(*x)
            images.add(key := (t, frozenset(t_ann.items())))
            assert key in target_keys, f"{label}: {x} -> {t} {t_ann}, outside L{i + 1}"
            back = filled(i, *inverse(t, t_ann))
            assert back == x, f"{label}/{inverse_label}: {x} -> {t} {t_ann} -> {back}"
        assert len(images) == len(source), f"{label}: not one-to-one at m={m}"


def check_against_references(component, inverse):
    """Each rewritten kernel, fed what it gets in ``_run``, gives its reference's value."""
    values = _run(component, inverse)
    checked = 0
    for (_, steps, ann), (label, out, out_ann) in zip(values, values[1:]):
        if label in REFERENCES and steps:
            fast, ref = REFERENCES[label]
            assert fast(steps, ann) == (out, out_ann) == ref(steps, ann), (label, steps, ann)
            assert type(out_ann.get("marks", frozenset())) is frozenset
            checked += 1
    return values, checked


def components_up_to(words, max_size):
    for n in range(1, max_size + 1):
        for w in words(n):
            if step_heights(w).count(0) == 2:
                yield w


def test_every_component_up_to_size_8_matches_the_references():
    images = []
    for c in components_up_to(class_a_words, 8):
        values, checked = check_against_references(c, inverse=False)
        assert checked == (2 if c[0] == "U" and len(c) > 2 else 0)
        images.append(values[-1][1])
    b_components = list(components_up_to(class_b_words, 8))
    assert sorted(images) == sorted(b_components)  # A's components map onto B's
    for q in b_components:
        _, checked = check_against_references(q, inverse=True)
        assert checked == (2 if "UD" in q and len(q) > 2 else 0)


@pytest.mark.parametrize("length", range(8))
def test_expand_recover_contract_match_the_references_on_every_short_word(length):
    # Expansion takes any word; recovery and contraction take the members of their sets.
    for word in map("".join, itertools.product("DFU", repeat=length)):
        assert _expand_flats(word, {}) == ref_expand_flats(word, {})
    if length % 2 == 0:
        for g, ann in members(2, length // 2):
            assert _recover_marks(g, ann) == ref_recover_marks(g, ann), g
        for word, ann in members(1, length // 2):
            assert _contract_marks(word, ann) == ref_contract_marks(word, ann), (word, ann)


@pytest.mark.parametrize("length", range(9))
def test_expand_and_contract_match_the_references_with_no_flats_or_marks(length):
    # The early returns: a flat-free word expands to itself with an empty frozenset of
    # marks, and a word with no marks contracts to itself.
    for word in map("".join, itertools.product("DU", repeat=length)):
        expanded = _expand_flats(word, {})
        assert expanded == ref_expand_flats(word, {}) == (word, {"marks": frozenset()})
        assert type(expanded[1]["marks"]) is frozenset
        ann = {"marks": frozenset()}
        assert _contract_marks(word, ann) == ref_contract_marks(word, ann) == (word, {})


def flipped_runs(s, marks):
    """(start, end, components) of each maximal run of the components ``_flip_marked`` mirrors."""
    runs = []
    for start, part in ref_split_components(s, step_heights(s)):
        if start == 0 or start in marks:
            if runs and runs[-1][1] == start:
                runs[-1] = (runs[-1][0], start + len(part), runs[-1][2] + 1)
            else:
                runs.append((start, start + len(part), 1))
    return runs


# Stripped words (a class-A component without its outer steps), with the runs of
# flipped components their expanded words hold: (components per run, last run ends the word).
RUN_CASES = [
    ("U" + "F" * 150 + "D", [151], True),
    ("U" + "FUUDD" * 120 + "FD", [122], True),
    ("UFUUDDFD" + "UUDD" + "UD" + "UFFD" + "UUUDDD" + "UFUDFD" + "UD", [3, 2, 2], False),
    ("UUDD" + "UFFD" + "UD" + "UFUUUDDDFD", [1, 2, 2], True),
    ("UUUDDD" + "UFD" + "UUDD" + "UFD", [1, 1, 1], True),  # later runs too short to rise higher
]


@pytest.mark.parametrize("inner,sizes,last_ends_word", RUN_CASES)
def test_flip_and_recover_match_the_references_on_runs(inner, sizes, last_ends_word):
    s, ann = _expand_flats(inner, {})
    runs = flipped_runs(s, ann["marks"])
    assert [k for _, _, k in runs] == sizes
    assert (runs[-1][1] == len(s)) is last_ends_word
    g, g_ann = _flip_marked(s, ann)
    assert (g, g_ann) == ref_flip_marked(s, ann)
    assert _recover_marks(g, g_ann) == ref_recover_marks(g, g_ann) == (s, ann)


def test_recover_marks_matches_the_reference_on_every_word_up_to_length_10():
    # Every word of its set L2.  One that ends with U ends below ground, so its last
    # below-ground run reaches the end; one that ends with D has an above-ground
    # component after that run.
    last_steps = {"U": 0, "D": 0}
    for m in range(6):
        for g, ann in members(2, m):
            assert _recover_marks(g, ann) == ref_recover_marks(g, ann), g
            last_steps[g[-1]] += 1
    assert last_steps["U"] and last_steps["D"]


@pytest.mark.parametrize("length", range(9))
def test_class_b_word_and_split_components_match_the_references(length):
    for word in map("".join, itertools.product("DFU", repeat=length)):
        hs = step_heights(word)
        assert class_b_word(word, hs) == ref_class_b_word(word, hs)
        if hs[-1] == 0:
            assert split_components(word, hs) == ref_split_components(word, hs)


def test_step_heights_matches_the_reference_on_every_short_word():
    for length in range(9):
        for word in map("".join, itertools.product("DFU", repeat=length)):
            assert step_heights(word) == ref_step_heights(word)


@pytest.mark.parametrize("word,bad", [
    ("UXD", "X"), ("U\u00e9D", "\u00e9"), ("U\x80D", "\x80"), ("U\x00D", "\x00"),
    ("U\ud800D", "\ud800"), ("UFDUUDZ\u00e9", "Z"),
])
def test_step_heights_names_the_first_bad_character(word, bad):
    # A lone surrogate has no UTF-8 encoding; it must still give the KeyError.
    for f in (step_heights, ref_step_heights):
        with pytest.raises(KeyError) as exc:
            f(word)
        assert exc.value.args == (bad,)


def _dyck(rng, k):
    """A random Dyck path of semilength k: the cycle lemma on k ups and k + 1 downs."""
    steps = ["U"] * k + ["D"] * (k + 1)
    rng.shuffle(steps)
    heights = list(itertools.accumulate((1 if c == "U" else -1 for c in steps), initial=0))
    cut = heights.index(min(heights))
    return "".join(steps[cut:] + steps[:cut])[:-1]


def long_above_component(seed, min_steps=20_000, min_flats=500):
    """A seeded above-ground class-A component: U, an inner word at height >= 1 with
    every flatstep on y=2, then D.  The inner word mixes flat-free Dyck paths,
    runs of flats and deep excursions (hundreds to thousands of steps high)."""
    rng = random.Random(seed)
    inner, steps, flats = [], 0, 0
    while steps < min_steps or flats < min_flats:
        r = rng.random()
        if r < 0.1:  # a deep excursion from y=1
            depth = rng.randint(100, 1500)
            part = "U" * depth + _dyck(rng, rng.randint(0, 200)) + "D" * depth
        elif r < 0.3:  # a flat-free Dyck path from y=1
            part = _dyck(rng, rng.randint(1, 300))
        else:  # an arch to y=2 holding flats and excursions above it
            body = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.6:
                    body.append("F" * rng.randint(1, 3))
                else:
                    depth = rng.choice((1, 1, 1, 50, 400))
                    body.append("U" * depth + _dyck(rng, rng.randint(0, 40)) + "D" * depth)
            part = "U" + "".join(body) + "D"
        inner.append(part)
        steps += len(part)
        flats += part.count("F")
    return "U" + "".join(inner) + "D"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_components_match_the_references(seed):
    c = long_above_component(seed)
    hs = step_heights(c)
    assert hs == ref_step_heights(c)
    assert len(c) >= 20_000 and c.count("F") >= 500 and max(hs) >= 100
    assert class_a_word(c, hs) and hs.count(0) == 2
    forward, checked = check_against_references(c, inverse=False)
    assert checked == 2
    q = forward[-1][1]
    backward, checked = check_against_references(q, inverse=True)
    assert checked == 2
    assert backward[-1][1] == c
    # A long path of such components with long below-ground (flat-free) ones among them.
    below = "D" + _dyck(random.Random(seed), 5_000).translate(MIRROR) + "U"
    p = c + below + "UD" + "DU" + long_above_component(seed + 10) + below + c
    p_hs, image = step_heights(p), map_word(p)
    q_hs = step_heights(image)
    assert p_hs == ref_step_heights(p) and q_hs == ref_step_heights(image)
    assert split_components(p, p_hs) == ref_split_components(p, p_hs)
    assert split_components(image, q_hs) == ref_split_components(image, q_hs)
    assert class_b_word(image, q_hs) is ref_class_b_word(image, q_hs) is True
    assert map_word(image, True) == p
    # A second peak in the one-peak image of c, far from the first.
    two_peaks = q[: q.rindex("F")] + "UD" + q[q.rindex("F") + 1 :]
    two_hs = step_heights(two_peaks)
    assert class_b_word(two_peaks, two_hs) is ref_class_b_word(two_peaks, two_hs) is False


def test_the_end_sets_are_the_inner_words_of_their_components():
    # L0(m): above-ground class-A components of size m + 1; L4(m): one-peak class-B ones.
    for m in range(8):
        a = [c for c in class_a_words(m + 1) if c[0] == "U" and step_heights(c).count(0) == 2]
        b = [c for c in class_b_words(m + 1) if "UD" in c[1:-1] and step_heights(c).count(0) == 2]
        for i, components in ((0, a), (4, b)):
            inner = sorted(c[1:-1] for c in components)
            assert sorted(s for s, _ in members(i, m)) == inner, (i, m)


def test_every_enumerated_member_satisfies_its_set_s_predicate():
    for i, in_set in enumerate(L_SETS):
        for m in range(8):
            assert all(in_set(s, ann, m) for s, ann in members(i, m)), (i, m)


@pytest.mark.parametrize("i", range(4), ids=[row[0] for row in _ABOVE_STAGES])
def test_each_stage_is_a_bijection_between_its_sets(i):
    check_stage(i, _ABOVE_STAGES[i], 9)


def _shifted_recover(g, ann):
    steps, ann = _recover_marks(g, ann)
    return steps, {"marks": frozenset(m + 1 for m in ann["marks"])}


def _wrong_block(g, ann):
    v1, v2 = ann["v1"], ann["v2"]
    return g[v2:] + g[:v1] + g[v1:v2], {"w": v2 - v1}


def _last_mark_dropped(s, ann):
    return _flip_marked(s, {"marks": ann["marks"] - {max(ann["marks"], default=None)}})


@pytest.mark.parametrize(
    "i,row,labels",
    [
        # Valid images that the inverse does not take back: both kernels are named.
        (1, (*_ABOVE_STAGES[1][:3], _shifted_recover), "flip-components/recover-marks"),
        (1, ("flip-components", _last_mark_dropped, *_ABOVE_STAGES[1][2:]),
         "flip-components/recover-marks"),
        # An image outside L3: the forward kernel is named.
        (2, ("interchange", _wrong_block, *_ABOVE_STAGES[2][2:]), "interchange"),
    ],
    ids=["shifted-marks", "dropped-mark", "wrong-block"],
)
def test_a_faulty_kernel_fails_the_stage_check_by_its_label(i, row, labels):
    with pytest.raises(AssertionError, match=f"^{labels}: "):
        check_stage(i, row, 4)


LONGPATHS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "longpaths.py"


def _longpath(seed):
    """The first path of the seeded ``long-paths`` generator: 100 000 steps, 1 000 components."""
    spec = importlib.util.spec_from_file_location("longpaths", LONGPATHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed, 1, 100_000, 1000)[0]


def test_every_stage_value_of_a_long_path_and_its_image_is_in_its_set():
    p = _longpath(7)
    for word, inverse in ((p, False), (map_word(p), True)):
        parts = {c for _, c in ref_split_components(word, ref_step_heights(word))}
        # The components the table maps: above ground forwards, one-peaked backwards.
        piped = [c for c in parts if len(c) > 2 and ("UD" in c if inverse else c[0] == "U")]
        assert len(piped) > 200
        sets = range(4, -1, -1) if inverse else range(5)
        for c in piped:
            m = _size(c) - 1
            values = _run(c, inverse)[1:-1]  # from strip-ends to the last stage
            for i, (label, s, ann) in zip(sets, values, strict=True):
                value = filled(i, s, ann) if inverse else (s, ann)
                assert L_SETS[i](*value, m), f"{label}: {c} -> {s} {ann}, outside L{i}"
