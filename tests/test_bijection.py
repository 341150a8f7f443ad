import pytest
from hypothesis import given, settings, strategies as st

from pathbij import (
    FlatNotAtHeightOne,
    InverseDomainError,
    MarkNotContractible,
    MarkedPath,
    NotInClass,
    Path,
    PreconditionViolated,
    UnknownApex,
    components,
    contract_marks,
    enumerate_class_a,
    enumerate_class_b,
    expand_flats,
    flatten_peaks,
    flip_marked,
    in_class_a,
    in_class_b,
    interchange,
    is_indecomposable,
    landmarks,
    map_indecomposable_above,
    map_indecomposable_below,
    parse_path,
    peak_apexes,
    phi,
    phi_inverse,
    recover_marks,
    reflect,
    reverse_interchange,
    trace_components,
    trace_stages,
    unflatten_flats,
    unmap_indecomposable,
)


def class_a_paths(max_size=5):
    return st.integers(0, max_size).flatmap(lambda n: st.sampled_from(enumerate_class_a(n)))


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
        parts.append(part if above else reflect(Path(part)).steps)
        sides.append(above)
        budget -= len(parts[-1])
    return Path("".join(parts)), sides


def above_components(max_size):
    for n in range(1, max_size + 1):
        for p in enumerate_class_a(n):
            if is_indecomposable(p) and p.steps[0] == "U":
                yield p


def test_flatten_peaks_examples():
    assert flatten_peaks(parse_path("UUDUUDDD")).steps == "UFUFDD"
    assert flatten_peaks(parse_path("UDUUDUUDDUUUDDDDUDUUDD"), keep={7}).steps == "FUFUUDDUUFDDDFUFD"
    assert flatten_peaks(parse_path("UFD")).steps == "UFD"


def test_flatten_peaks_rejects_non_apex():
    with pytest.raises(UnknownApex):
        flatten_peaks(parse_path("UUDD"), keep={1})


def test_unflatten_flats_examples():
    assert unflatten_flats(parse_path("UFUFDD")).steps == "UUDUUDDD"
    assert unflatten_flats(parse_path("F")).steps == "UD"
    assert unflatten_flats(parse_path("UUDD")).steps == "UUDD"


def test_flatten_unflatten_laws():
    for n in range(1, 6):
        for q in enumerate_class_b(n):
            if "F" not in q.steps:  # Dyck path
                flat = flatten_peaks(q)
                assert peak_apexes(flat) == []
                assert unflatten_flats(flat) == q
            if not peak_apexes(q):  # peak-free Schroeder path
                assert flatten_peaks(unflatten_flats(q)) == q


def test_map_indecomposable_below_examples():
    assert map_indecomposable_below(parse_path("DDUDDUUU")).steps == "UFUFDD"
    assert map_indecomposable_below(parse_path("DU")).steps == "F"
    assert map_indecomposable_below(parse_path("DDUU")).steps == "UFD"


@pytest.mark.parametrize("bad", ["", "UD", "DUDU", "UUDD", "DUU"])
def test_map_indecomposable_below_domain(bad):
    with pytest.raises(PreconditionViolated):
        map_indecomposable_below(parse_path(bad))


def test_expand_flats_examples():
    mp = expand_flats(parse_path("UUDDUFUUDUDDUDDUDUUDD"))
    assert mp.path.steps == "UUDDUDUUUDUDDUDDUDUUDD"
    assert mp.marks == {6}

    mp = expand_flats(parse_path("UUDFD"))
    assert mp.path.steps == "UUDDUD"
    assert mp.marks == {4}

    mp = expand_flats(parse_path("UD"))
    assert mp.path.steps == "UD"
    assert mp.marks == frozenset()


def test_expand_flats_requires_height_one():
    with pytest.raises(FlatNotAtHeightOne):
        expand_flats(parse_path("F"))
    with pytest.raises(FlatNotAtHeightOne):
        expand_flats(parse_path("UUFDD"))


def test_contract_marks_examples():
    assert contract_marks(MarkedPath(parse_path("UUDDUDUUUDUDDUDDUDUUDD"), frozenset({6}))).steps == "UUDDUFUUDUDDUDDUDUUDD"
    assert contract_marks(MarkedPath(parse_path("UDUD"), frozenset())).steps == "UDUD"
    assert contract_marks(MarkedPath(parse_path("UUDDUD"), frozenset({4}))).steps == "UUDFD"


def test_contract_marks_requires_valley():
    with pytest.raises(MarkNotContractible):
        contract_marks(MarkedPath(parse_path("UDDU"), frozenset({2})))


def test_flip_marked_examples():
    assert flip_marked(MarkedPath(parse_path("UUDDUDUUUDUDDUDDUDUUDD"), frozenset({6}))).steps == "DDUUUDDDDUDUUDUUUDUUDD"
    assert flip_marked(MarkedPath(parse_path("UUDDUD"), frozenset({4}))).steps == "DDUUDU"
    assert flip_marked(MarkedPath(parse_path("UD"), frozenset())).steps == "DU"


def test_flip_marked_domain():
    with pytest.raises(PreconditionViolated):
        flip_marked(MarkedPath(parse_path(""), frozenset()))
    with pytest.raises(PreconditionViolated):
        flip_marked(MarkedPath(parse_path("UFD"), frozenset()))


def test_recover_marks_inverts_flip():
    for n in range(1, 6):
        for p in above_components(n):
            marked = expand_flats(Path(p.steps[1:-1]))
            if not marked.path.steps:
                continue
            assert recover_marks(flip_marked(marked)) == marked


def test_recover_marks_domain():
    with pytest.raises(InverseDomainError):
        recover_marks(parse_path("UDDU"))  # first component above ground
    with pytest.raises(InverseDomainError):
        recover_marks(parse_path("FDU"))  # contains a flatstep


def test_landmarks_examples():
    assert landmarks(parse_path("DDUUUDDDDUDUUDUUUDUUDD")) == (9, 16)
    assert landmarks(parse_path("DDUUDU")) == (2, 6)
    assert landmarks(parse_path("DU")) == (1, 2)


def test_landmarks_domain():
    with pytest.raises(PreconditionViolated):
        landmarks(parse_path("UDDU"))
    with pytest.raises(PreconditionViolated):
        landmarks(parse_path(""))


def test_interchange_examples():
    path, w = interchange(parse_path("DDUUUDDDDUDUUDUUUDUUDD"), 9, 16)
    assert path.steps == "UDUUDUUDDUUUDDDDUDUUDD"
    assert w == 7

    path, w = interchange(parse_path("DDUUDU"), 2, 6)
    assert path.steps == "UUDUDD"
    assert w == 4

    path, w = interchange(parse_path("DU"), 1, 2)
    assert path.steps == "UD"
    assert w == 1


def test_interchange_requires_landmarks():
    with pytest.raises(PreconditionViolated):
        interchange(parse_path("DDUUDU"), 2, 4)


def test_interchange_output_structure():
    # nonnegative, with a kept peak at w, for every above component
    for p in above_components(6):
        inner = Path(p.steps[1:-1])
        if not inner.steps:
            continue
        flipped = flip_marked(expand_flats(inner))
        d, w = interchange(flipped, *landmarks(flipped))
        assert d.min_height >= 0
        assert w in peak_apexes(d)
        assert reverse_interchange(d, w) == flipped


def test_reverse_interchange_examples():
    assert reverse_interchange(parse_path("UUDUDD"), 4).steps == "DDUUDU"
    assert reverse_interchange(parse_path("UD"), 1).steps == "DU"


def test_reverse_interchange_domain():
    with pytest.raises(InverseDomainError):
        reverse_interchange(parse_path("UUDD"), 1)  # not an apex
    with pytest.raises(InverseDomainError):
        reverse_interchange(parse_path("UFD"), 1)  # not a Dyck path


def test_map_indecomposable_above_examples():
    assert map_indecomposable_above(parse_path("UUUDDUFUUDUDDUDDUDUUDDD")).steps == "UFUFUUDDUUFDDDFUFDD"
    assert map_indecomposable_above(parse_path("UUUDFDD")).steps == "UUFUDDD"
    assert map_indecomposable_above(parse_path("UD")).steps == "UD"


@pytest.mark.parametrize("bad", ["", "DU", "UDUD", "UFD", "UU"])
def test_map_indecomposable_above_domain(bad):
    with pytest.raises(PreconditionViolated):
        map_indecomposable_above(parse_path(bad))


def test_unmap_indecomposable_examples():
    assert unmap_indecomposable(parse_path("UFUFDD")).steps == "DDUDDUUU"
    assert unmap_indecomposable(parse_path("UUFUDDD")).steps == "UUUDFDD"
    assert unmap_indecomposable(parse_path("F")).steps == "DU"
    assert unmap_indecomposable(parse_path("UD")).steps == "UD"


@pytest.mark.parametrize("bad", ["", "UDUD", "UUDUDD", "DU"])
def test_unmap_indecomposable_domain(bad):
    with pytest.raises(PreconditionViolated):
        unmap_indecomposable(parse_path(bad))


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


@pytest.mark.parametrize("n", range(6))
def test_bijection_exhaustive_small(n):
    a_paths = enumerate_class_a(n)
    b_paths = enumerate_class_b(n)
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
        assert len(peak_apexes(cq.path)) == (0 if below else 1)


@settings(max_examples=60, deadline=None)
@given(long_class_a_paths())
def test_properties_beyond_exhaustive_sizes(case):
    p, sides = case
    assert in_class_a(p)
    q = phi(p)
    assert phi_inverse(q) == p
    assert phi(phi_inverse(q)) == q
    p_parts, q_parts = components(p).paths, components(q).paths
    assert [c.size for c in p_parts] == [c.size for c in q_parts]
    assert [len(peak_apexes(c)) for c in q_parts] == [int(above) for above in sides]
    forward = [trace_stages(c, "forward").stages[-1].path.steps for c in p_parts]
    assert "".join(forward) == q.steps
    inverse = [trace_stages(c, "inverse").stages[-1].path.steps for c in q_parts]
    assert "".join(inverse) == p.steps


def test_phi_builds_at_most_two_paths_per_call():
    a_paths = [p for n in range(6) for p in enumerate_class_a(n)]
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


def test_trace_forward_worked_stages():
    """Golden trace for the 12-size worked component.

    The last two stages are forced by the stage rules: flattening keeps only
    the apex made by the block swap, so the tail of the flattened stage reads
    F,U,F,D.  A rendering of this pipeline whose tail keeps a second trailing
    U,U,D,D hump would contradict the exactly-one-peak output guarantee.
    """
    trace = trace_stages(parse_path("UUUDDUFUUDUDDUDDUDUUDDD"), "forward")
    expected = [
        ("input", "UUUDDUFUUDUDDUDDUDUUDDD"),
        ("strip-ends", "UUDDUFUUDUDDUDDUDUUDD"),
        ("expand-flats", "UUDDUDUUUDUDDUDDUDUUDD"),
        ("flip-components", "DDUUUDDDDUDUUDUUUDUUDD"),
        ("interchange", "UDUUDUUDDUUUDDDDUDUUDD"),
        ("flatten-peaks", "FUFUUDDUUFDDDFUFD"),
        ("output", "UFUFUUDDUUFDDDFUFDD"),
    ]
    assert [(s.label, s.path.steps) for s in trace.stages] == expected
    assert trace.stages[2].marks == {6}
    assert (trace.stages[3].v1, trace.stages[3].v2) == (9, 16)
    assert trace.stages[4].w == 7
    assert trace.stages[5].path.steps.endswith("FUFD")
    assert len(peak_apexes(trace.stages[6].path)) == 1


def test_trace_forward_below_component():
    trace = trace_stages(parse_path("DU"), "forward")
    assert [(s.label, s.path.steps) for s in trace.stages] == [("input", "DU"), ("output", "F")]


def test_trace_forward_degenerate():
    trace = trace_stages(parse_path("UD"), "forward")
    labels = [s.label for s in trace.stages]
    assert labels == [
        "input", "strip-ends", "expand-flats", "flip-components",
        "interchange", "flatten-peaks", "output",
    ]
    assert [s.path.steps for s in trace.stages] == ["UD", "", "", "", "", "", "UD"]


def test_trace_inverse_roundtrips_forward():
    for p in above_components(5):
        fwd = trace_stages(p, "forward")
        inv = trace_stages(fwd.stages[-1].path, "inverse")
        assert inv.stages[-1].path == p
        # the inverse pipeline walks the same intermediate paths backwards
        if len(p) > 2:
            assert inv.stages[2].path == fwd.stages[4].path
            assert inv.stages[2].w == fwd.stages[4].w
            assert inv.stages[3].path == fwd.stages[3].path
            assert inv.stages[4].marks == fwd.stages[2].marks


def test_trace_rejects_decomposable_or_misclassed():
    with pytest.raises(NotInClass):
        trace_stages(parse_path("UDUD"), "forward")
    with pytest.raises(NotInClass):
        trace_stages(parse_path("F"), "forward")
    with pytest.raises(NotInClass):
        trace_stages(parse_path("DU"), "inverse")
    with pytest.raises(ValueError):
        trace_stages(parse_path("UD"), "sideways")


def test_trace_serialization():
    lines = trace_stages(parse_path("UUUDFDD"), "forward").lines()
    assert lines == [
        "input: UUUDFDD",
        "strip-ends: UUDFD",
        "expand-flats: UUDDUD marks=4",
        "flip-components: DDUUDU v1=2 v2=6",
        "interchange: UUDUDD w=4",
        "flatten-peaks: UFUDD",
        "output: UUFUDDD",
    ]


def test_trace_components_agree_with_the_maps():
    for n in range(6):
        for p in enumerate_class_a(n):
            q = phi(p)
            for x, y, direction in ((p, q, "forward"), (q, p, "inverse")):
                traces = trace_components(x, direction)
                parts = components(x).paths
                assert traces == tuple(trace_stages(c, direction) for c in parts)
                assert "".join(t.stages[-1].path.steps for t in traces) == y.steps


def test_trace_components_check_like_the_maps():
    for f, bad, direction in ((phi, "UUDDUU", "forward"), (phi_inverse, "UUDUDD", "inverse")):
        with pytest.raises(NotInClass) as mapped:
            f(parse_path(bad))
        with pytest.raises(NotInClass) as traced:
            trace_components(parse_path(bad), direction)
        assert str(traced.value) == str(mapped.value)
    with pytest.raises(ValueError):
        trace_components(parse_path("UD"), "sideways")
