import importlib.util
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from pathbij import (
    NotInClass,
    Path,
    PathbijError,
    components,
    in_class_a,
    in_class_b,
    parse_path,
    phi,
    phi_inverse,
)
import pathbij.bijection
from pathbij.bijection import _ABOVE_STAGES, _flatten, _line, _run, map_word, trace_blocks
from pathbij.families import class_a_words, class_b_words
from pathbij.paths import MIRROR, split_components, step_heights

LONGPATHS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "longpaths.py"


def class_a_paths(max_size=5):
    words = st.integers(0, max_size).flatmap(lambda n: st.sampled_from(list(class_a_words(n))))
    return words.map(Path)


def _walk(draw, width, flat_height):
    """Steps spanning ``width`` half-units from relative height 0 back to 0, never below it.

    Flatsteps are allowed only at ``flat_height`` (never, if it is None).
    """
    steps, h = [], 0
    while width:
        moves = ["D"] if h > 0 else []
        if h == flat_height and h <= width - 2:
            moves.append("F")
        if h + 1 <= width - 1:
            moves.append("U")
        step = draw(st.sampled_from(moves))
        steps.append(step)
        h += {"U": 1, "F": 0, "D": -1}[step]
        width -= 2 if step == "F" else 1
    return "".join(steps)


@st.composite
def long_class_a_paths(draw, max_steps=300):
    """Concatenated random indecomposable components, up to about ``max_steps`` steps.

    Below-ground components are flat-free; above-ground ones keep their
    flatsteps on y=2 (height 1 once the outer steps are stripped).  Returns
    the path and, per component, whether it lies above ground.
    """
    parts, sides, budget = [], [], max_steps
    while budget >= 2 and draw(st.integers(0, 7)):
        size = draw(st.integers(1, min(40, budget // 2)))
        above = draw(st.booleans())
        inner = _walk(draw, 2 * size - 2, 1 if above else None)
        part = "U" + inner + "D"
        parts.append(part if above else part.translate(MIRROR))
        sides.append(above)
        budget -= len(parts[-1])
    return Path("".join(parts)), sides


def above_components(max_size):
    for n in range(1, max_size + 1):
        for w in class_a_words(n):
            if step_heights(w).count(0) == 2 and w[0] == "U":
                yield w


# Per-stage goldens, keyed by the forward label of each row of the stage table:
# (input, annotations in, output, annotations out) of the forward kernel.
STAGE_GOLDENS = {
    "expand-flats": [
        ("UUDDUFUUDUDDUDDUDUUDD", {}, "UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})}),
        ("UUDFD", {}, "UUDDUD", {"marks": frozenset({4})}),
        ("UDUD", {}, "UDUD", {"marks": frozenset()}),
        ("UD", {}, "UD", {"marks": frozenset()}),
    ],
    "flip-components": [
        (
            "UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})},
            "DDUUUDDDDUDUUDUUUDUUDD", {"v1": 9, "v2": 16},
        ),
        ("UUDDUD", {"marks": frozenset({4})}, "DDUUDU", {"v1": 2, "v2": 6}),
        ("UD", {"marks": frozenset()}, "DU", {"v1": 1, "v2": 2}),
    ],
    "interchange": [
        ("DDUUUDDDDUDUUDUUUDUUDD", {"v1": 9, "v2": 16}, "UDUUDUUDDUUUDDDDUDUUDD", {"w": 7}),
        ("DDUUDU", {"v1": 2, "v2": 6}, "UUDUDD", {"w": 4}),
        ("DU", {"v1": 1, "v2": 2}, "UD", {"w": 1}),
    ],
    "flatten-peaks": [
        ("UDUUDUUDDUUUDDDDUDUUDD", {"w": 7}, "FUFUUDDUUFDDDFUFD", {}),
        ("UUDUDD", {"w": 4}, "UFUDD", {}),
        ("UD", {"w": 1}, "UD", {}),
    ],
}


@pytest.mark.parametrize("row", _ABOVE_STAGES, ids=[row[0] for row in _ABOVE_STAGES])
def test_stage_kernels(row):
    label, forward, _, inverse = row
    for steps, ann, out, out_ann in STAGE_GOLDENS[label]:
        assert forward(steps, ann) == (out, out_ann)
        back, back_ann = inverse(out, out_ann)
        assert back == steps
        # the inverse recovers whatever annotations the forward kernel read
        assert back_ann.items() <= ann.items()


FORWARD_KERNELS = {row[0]: row[1] for row in _ABOVE_STAGES}
INVERSE_KERNELS = {row[2]: row[3] for row in _ABOVE_STAGES}


def test_flatten_peaks_examples():
    flatten = FORWARD_KERNELS["flatten-peaks"]
    assert flatten("UDUUDUUDDUUUDDDDUDUUDD", {"w": 7}) == ("FUFUUDDUUFDDDFUFD", {})
    assert flatten("UUDUDD", {"w": 4}) == ("UFUDD", {})
    # the below-ground move keeps no peak
    assert _flatten("UUDUUDDD") == "UFUFDD"
    assert _flatten("UFD") == "UFD"


def test_unflatten_flats_examples():
    unflatten = INVERSE_KERNELS["unflatten-flats"]
    assert unflatten("FUFUUDDUUFDDDFUFD", {}) == ("UDUUDUUDDUUUDDDDUDUUDD", {"w": 7})
    assert unflatten("UFUDD", {}) == ("UUDUDD", {"w": 4})
    assert unflatten("UUDD", {}) == ("UUDD", {"w": 2})
    # peak-free components are unflattened and mirrored below ground
    assert phi_inverse(parse_path("UFUFDD")).steps == "DDUDDUUU"
    assert phi_inverse(parse_path("F")).steps == "DU"


def test_flatten_unflatten_laws():
    flatten = FORWARD_KERNELS["flatten-peaks"]
    unflatten = INVERSE_KERNELS["unflatten-flats"]
    for n in range(1, 6):
        for q in class_b_words(n):
            if "F" not in q:  # Dyck path
                assert _flatten(q).count("UD") == 0
                for w in (v for v in range(1, len(q)) if q[v - 1 : v + 1] == "UD"):  # peak apexes
                    flat, _ = flatten(q, {"w": w})
                    assert flat.count("UD") == 1
                    assert unflatten(flat, {}) == (q, {"w": w})
            if q.count("UD") == 0:  # peak-free Schroeder path
                assert _flatten(q.replace("F", "UD")) == q


def test_map_indecomposable_below_examples():
    assert phi(parse_path("DDUDDUUU")).steps == "UFUFDD"
    assert phi(parse_path("DU")).steps == "F"
    assert phi(parse_path("DDUU")).steps == "UFD"


def test_expand_flats_examples():
    expand = FORWARD_KERNELS["expand-flats"]
    assert expand("UUDDUFUUDUDDUDDUDUUDD", {}) == (
        "UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})}
    )
    assert expand("UUDFD", {}) == ("UUDDUD", {"marks": frozenset({4})})
    assert expand("UD", {}) == ("UD", {"marks": frozenset()})


def test_contract_marks_examples():
    contract = INVERSE_KERNELS["contract-marks"]
    assert contract("UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})}) == ("UUDDUFUUDUDDUDDUDUUDD", {})
    assert contract("UDUD", {"marks": frozenset()}) == ("UDUD", {})
    assert contract("UUDDUD", {"marks": frozenset({4})}) == ("UUDFD", {})


def test_flip_marked_examples():
    flip = FORWARD_KERNELS["flip-components"]
    assert flip("UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})})[0] == "DDUUUDDDDUDUUDUUUDUUDD"
    assert flip("UUDDUD", {"marks": frozenset({4})})[0] == "DDUUDU"
    assert flip("UD", {"marks": frozenset()})[0] == "DU"


def test_landmarks_examples():
    # the flip-components stage annotates its output with the interchange landmarks
    flip = FORWARD_KERNELS["flip-components"]
    assert flip("UUDDUDUUUDUDDUDDUDUUDD", {"marks": frozenset({6})})[1] == {"v1": 9, "v2": 16}
    assert flip("UUDDUD", {"marks": frozenset({4})})[1] == {"v1": 2, "v2": 6}
    assert flip("UD", {"marks": frozenset()})[1] == {"v1": 1, "v2": 2}


def test_interchange_examples():
    swap = FORWARD_KERNELS["interchange"]
    assert swap("DDUUUDDDDUDUUDUUUDUUDD", {"v1": 9, "v2": 16}) == ("UDUUDUUDDUUUDDDDUDUUDD", {"w": 7})
    assert swap("DDUUDU", {"v1": 2, "v2": 6}) == ("UUDUDD", {"w": 4})
    assert swap("DU", {"v1": 1, "v2": 2}) == ("UD", {"w": 1})


def test_reverse_interchange_examples():
    unswap = INVERSE_KERNELS["reverse-interchange"]
    assert unswap("UUDUDD", {"w": 4}) == ("DDUUDU", {})
    assert unswap("UD", {"w": 1}) == ("DU", {})


def test_map_indecomposable_above_examples():
    assert phi(parse_path("UUUDDUFUUDUDDUDDUDUUDDD")).steps == "UFUFUUDDUUFDDDFUFDD"
    assert phi(parse_path("UUUDFDD")).steps == "UUFUDDD"
    assert phi(parse_path("UD")).steps == "UD"


def test_unmap_indecomposable_examples():
    assert phi_inverse(parse_path("UFUFDD")).steps == "DDUDDUUU"
    assert phi_inverse(parse_path("UUFUDDD")).steps == "UUUDFDD"
    assert phi_inverse(parse_path("F")).steps == "DU"
    assert phi_inverse(parse_path("UD")).steps == "UD"


def test_phi_worked_example_golden():
    assert phi(parse_path("DUUDDDUUUUUDFDD")).steps == "FUDUFDUUFUDDD"
    assert phi_inverse(parse_path("FUDUFDUUFUDDD")).steps == "DUUDDDUUUUUDFDD"
    assert phi(parse_path("")).steps == ""
    assert phi_inverse(parse_path("")).steps == ""


def test_phi_rejects_other_paths():
    with pytest.raises(NotInClass):
        phi(parse_path("F"))  # flatstep on ground
    with pytest.raises(NotInClass):
        phi(parse_path("UU"))
    with pytest.raises(NotInClass):
        phi_inverse(parse_path("DU"))
    with pytest.raises(NotInClass):
        phi_inverse(parse_path("UUDUDD"))


def test_map_word_agrees_with_phi_and_inverts():
    for n in range(6):
        for w in class_a_words(n):
            q = map_word(w)
            assert q == phi(Path(w)).steps
            assert map_word(q, True) == w
    with pytest.raises(NotInClass):
        map_word("F")


@pytest.mark.parametrize("n", range(6))
def test_bijection_exhaustive_small(n):
    a_paths = [Path(w) for w in class_a_words(n)]
    b_paths = [Path(w) for w in class_b_words(n)]
    images = []
    for p in a_paths:
        q = phi(p)
        images.append(q)
        assert q.size == n
        assert in_class_b(q)
        assert phi_inverse(q) == p
    assert sorted(images) == b_paths
    for q in b_paths:
        assert phi(phi_inverse(q)) == q


@given(class_a_paths())
def test_phi_preserves_component_structure(p):
    q = phi(p)
    p_parts = components(p).parts
    q_parts = components(q).parts
    assert [c.path.size for c in p_parts] == [c.path.size for c in q_parts]
    for cp, cq in zip(p_parts, q_parts):
        below = cp.path.steps[0] == "D"
        assert cq.path.steps.count("UD") == (0 if below else 1)


@settings(max_examples=60, deadline=None)
@given(long_class_a_paths())
def test_properties_beyond_exhaustive_sizes(case):
    p, sides = case
    assert in_class_a(p)
    q = phi(p)
    assert phi_inverse(q) == p
    assert phi(phi_inverse(q)) == q
    p_parts, q_parts = [c.path for c in components(p)], [c.path for c in components(q)]
    assert [c.size for c in p_parts] == [c.size for c in q_parts]
    assert [c.steps.count("UD") for c in q_parts] == [int(above) for above in sides]
    forward = [_run(c.steps, False)[-1][1] for c in p_parts]
    assert "".join(forward) == q.steps
    inverse = [_run(c.steps, True)[-1][1] for c in q_parts]
    assert "".join(inverse) == p.steps


def test_phi_builds_at_most_two_paths_per_call():
    a_paths = [Path(w) for n in range(6) for w in class_a_words(n)]
    b_paths = [phi(p) for p in a_paths]
    built = []
    post_init = Path.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    Path.__post_init__ = counted
    try:
        for f, inputs in ((phi, a_paths), (phi_inverse, b_paths)):
            built.clear()
            for x in inputs:
                f(x)
            assert len(built) <= 2 * len(inputs), f.__name__
    finally:
        Path.__post_init__ = post_init


def test_trace_builds_no_paths_and_records_words():
    """The input is validated once, where it enters; each block holds step words and text."""
    p = parse_path("DUUDDDUUUUUDFDDUUFDDUUFDD")
    q = phi(p)
    calls = []
    post_init = Path.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    Path.__post_init__ = counted
    try:
        for x, inverse in ((p, False), (q, True)):
            blocks = trace_blocks(x, inverse=inverse)
            assert len(blocks) == 6
            assert all(type(field) is str for block in blocks for field in block)
            assert all(type(w) is str for comp, _, _ in blocks for _, w, _ in _run(comp, inverse))
        assert calls == []
    finally:
        Path.__post_init__ = post_init


def test_trace_forward_worked_stages():
    """Golden trace for the 12-size worked component.

    The last two stages are forced by the stage rules: flattening keeps only
    the apex made by the block swap, so the tail of the flattened stage reads
    F,U,F,D.  A rendering of this pipeline whose tail keeps a second trailing
    U,U,D,D hump would contradict the exactly-one-peak output guarantee.
    """
    stages = _run("UUUDDUFUUDUDDUDDUDUUDDD", False)
    expected = [
        ("input", "UUUDDUFUUDUDDUDDUDUUDDD"),
        ("strip-ends", "UUDDUFUUDUDDUDDUDUUDD"),
        ("expand-flats", "UUDDUDUUUDUDDUDDUDUUDD"),
        ("flip-components", "DDUUUDDDDUDUUDUUUDUUDD"),
        ("interchange", "UDUUDUUDDUUUDDDDUDUUDD"),
        ("flatten-peaks", "FUFUUDDUUFDDDFUFD"),
        ("output", "UFUFUUDDUUFDDDFUFDD"),
    ]
    assert [(label, w) for label, w, _ in stages] == expected
    assert stages[2][2] == {"marks": {6}}
    assert stages[3][2] == {"v1": 9, "v2": 16}
    assert stages[4][2] == {"w": 7}
    assert stages[5][1].endswith("FUFD")
    assert stages[6][1].count("UD") == 1


def test_trace_forward_below_component():
    stages = _run("DU", False)
    assert [(label, w) for label, w, _ in stages] == [("input", "DU"), ("output", "F")]


def test_trace_forward_degenerate():
    stages = _run("UD", False)
    labels = [label for label, _, _ in stages]
    assert labels == [
        "input", "strip-ends", "expand-flats", "flip-components",
        "interchange", "flatten-peaks", "output",
    ]
    assert [w for _, w, _ in stages] == ["UD", "", "", "", "", "", "UD"]


def test_trace_inverse_roundtrips_forward():
    """The inverse trace lists the forward trace's values in reverse, with the same marks and w."""

    def marks_and_w(values):
        return [(w, ann.get("marks", frozenset()), ann.get("w")) for _, w, ann in values]

    for c in above_components(6):
        fwd = _run(c, False)
        inv = _run(fwd[-1][1], True)
        assert marks_and_w(inv) == marks_and_w(reversed(fwd))
        label, swapped, ann = fwd[4]
        assert label == "interchange"
        if swapped:
            assert min(step_heights(swapped)) >= 0
            assert swapped[ann["w"] - 1 : ann["w"] + 1] == "UD"


def test_trace_serialization():
    lines = [_line(label, w, **ann) for label, w, ann in _run("UUUDFDD", False)]
    assert lines == [
        "input: UUUDFDD",
        "strip-ends: UUDFD",
        "expand-flats: UUDDUD marks=4",
        "flip-components: DDUUDU v1=2 v2=6",
        "interchange: UUDUDD w=4",
        "flatten-peaks: UFUDD",
        "output: UUFUDDD",
    ]


def test_line_formats_each_annotation():
    assert _line("strip-ends", "UUDFD") == "strip-ends: UUDFD"
    assert _line("strip-ends", "") == "strip-ends:"
    assert _line("flip-components", "DDUUDU", v1=2, v2=6) == "flip-components: DDUUDU v1=2 v2=6"
    # Every value _run gives carries only annotations _line takes: a frozenset of marks
    # and int landmarks, with v2 set exactly when v1 is.
    kinds = {"marks": frozenset, "v1": int, "v2": int, "w": int}
    for c in {c for n in range(1, 7) for w in class_a_words(n) for c in _parts(w)}:
        for inverse, steps in ((False, c), (True, map_word(c))):
            for label, value, ann in _run(steps, inverse):
                assert all(type(ann[k]) is kinds[k] for k in ann), (label, ann)
                assert ("v1" in ann) == ("v2" in ann)
                assert all(type(m) is int for m in ann.get("marks", ()))
                assert _line(label, value, **ann).startswith(f"{label}:")


def test_trace_blocks_agree_with_the_maps():
    for n in range(6):
        for w in class_a_words(n):
            p = Path(w)
            q = phi(p)
            for x, y, inverse in ((p, q, False), (q, p, True)):
                blocks = trace_blocks(x, inverse=inverse)
                parts = [c.path for c in components(x)]
                assert blocks == [trace_blocks(c, inverse=inverse)[0] for c in parts]
                assert [comp for comp, _, _ in blocks] == [c.steps for c in parts]
                assert "".join(image for _, _, image in blocks) == y.steps


def test_trace_blocks_check_like_the_maps():
    for f, bad, inverse in (
        (phi, "UUDDUU", False),
        (phi, "F", False),
        (phi_inverse, "UUDUDD", True),
        (phi_inverse, "DU", True),
    ):
        with pytest.raises(NotInClass) as mapped:
            f(parse_path(bad))
        with pytest.raises(NotInClass) as traced:
            trace_blocks(parse_path(bad), inverse=inverse)
        assert str(traced.value) == str(mapped.value)
    # The flag is keyword-only: a truthy positional string such as "forward" is refused.
    with pytest.raises(TypeError):
        trace_blocks(parse_path("UD"), "forward")


def _longpath(seed):
    """The first path of the seeded ``long-paths`` generator: 100 000 steps, 1 000 components."""
    spec = importlib.util.spec_from_file_location("longpaths", LONGPATHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed, 1, 100_000, 1000)[0]


def _parts(w):
    return [c for _, c in split_components(w, step_heights(w))]


def test_repeated_components_map_like_their_composition():
    long = _longpath(7)
    assert len(_parts(long)) > len(set(_parts(long)))  # the generator repeats components
    for p in (long, "UUFDD" * 50 + "DU" * 50, "DU" + "UD" * 3 + "UUFDD" + "DU"):
        q = "".join(map_word(c) for c in _parts(p))
        assert map_word(p) == q
        assert "".join(map_word(c, True) for c in _parts(q)) == map_word(q, True) == p
        for x, inverse in ((p, False), (q, True)):
            blocks = trace_blocks(Path(x), inverse=inverse)
            assert blocks == [trace_blocks(Path(c), inverse=inverse)[0] for c in _parts(x)]


def test_each_distinct_component_runs_once_per_call(monkeypatch):
    runs = []
    real_run = pathbij.bijection._run

    def counted_run(steps, inverse):
        runs.append((steps, inverse))
        return real_run(steps, inverse)

    monkeypatch.setattr(pathbij.bijection, "_run", counted_run)
    p = "UUFDD" * 50 + "DU" * 50 + "UUFDD"
    q = map_word(p)
    assert runs == [("UUFDD", False), ("DU", False)]
    for call in (
        lambda: map_word(q, True),
        lambda: trace_blocks(Path(q), inverse=True),
    ):
        runs.clear()
        call()
        assert runs == [(c, True) for c in dict.fromkeys(_parts(q))]
    runs.clear()
    trace_blocks(Path(p))
    assert runs == [("UUFDD", False), ("DU", False)]
    # The memo lives for one call only: a second call runs each component again.
    runs.clear()
    map_word(p)
    map_word(p)
    assert runs == [("UUFDD", False), ("DU", False)] * 2


def test_the_first_failing_component_in_word_order_is_reported(monkeypatch):
    # UUDD precedes DU in the word but follows it in ASCII order.
    real_run = pathbij.bijection._run

    def faulty_run(steps, inverse):
        if steps in ("UUDD", "DU"):
            raise PathbijError(f"cannot map {steps}")
        return real_run(steps, inverse)

    monkeypatch.setattr(pathbij.bijection, "_run", faulty_run)
    p = "UD" + "UUDD" + "DU" + "UUDD" + "DU"
    for call in (lambda: map_word(p), lambda: trace_blocks(Path(p))):
        with pytest.raises(PathbijError) as exc:
            call()
        assert str(exc.value) == "cannot map UUDD"
