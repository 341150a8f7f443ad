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
"""

import itertools
import random

import pytest

from pathbij.bijection import (
    InverseDomainError,
    _contract_marks,
    _expand_flats,
    _flip_marked,
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
        if s[m - 1 : m + 1] != "DU":
            raise InverseDomainError(f"vertex {m} is not between a downstep and an upstep")
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
    if not g or "F" in g or hs[-1] != 0:
        raise InverseDomainError("expected a nonempty grand Dyck path")
    if g[0] != "D":
        raise InverseDomainError("first component must lie below ground")
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


def outcome(f, *args):
    """f's value, or the type and message of the domain error it raised."""
    try:
        return f(*args)
    except InverseDomainError as exc:
        return type(exc), str(exc)


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
    for word in map("".join, itertools.product("DFU", repeat=length)):
        assert _expand_flats(word, {}) == ref_expand_flats(word, {})
        assert outcome(_recover_marks, word, {}) == outcome(ref_recover_marks, word, {})
        if "F" in word:
            continue
        vertices = range(-1, length + 3)
        for k in range(3):
            for marks in itertools.combinations(vertices, k):
                ann = {"marks": frozenset(marks)}
                assert outcome(_contract_marks, word, ann) == outcome(ref_contract_marks, word, ann)


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
    # A grand Dyck word that ends with U ends below ground, so its last below-ground run
    # reaches the end; one that ends with D has an above-ground component after that run.
    last_steps = {"U": 0, "D": 0}
    for length in range(11):
        for word in map("".join, itertools.product("DFU", repeat=length)):
            got = outcome(_recover_marks, word, {})
            assert got == outcome(ref_recover_marks, word, {}), word
            if type(got[0]) is str:
                last_steps[word[-1]] += 1
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
