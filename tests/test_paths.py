import pytest
from hypothesis import given, strategies as st

from pathbij import (
    InvalidCharacter,
    NotGroundTerminated,
    Path,
    components,
    in_class_a,
    in_class_b,
    parse_path,
    render_ascii,
)
from pathbij.paths import MIRROR, step_heights

step_words = st.text(alphabet="UFD", max_size=30)


@st.composite
def ground_paths(draw):
    """Random ground-terminated paths: a shuffled multiset of U^a D^a F^b."""
    ups = draw(st.integers(0, 5))
    flats = draw(st.integers(0, 4))
    word = draw(st.permutations(["U"] * ups + ["D"] * ups + ["F"] * flats))
    return Path("".join(word))


def test_parse_empty():
    p = parse_path("")
    assert p.size == 0
    assert p.heights == (0,)
    assert p.steps == ""


def test_parse_basic_geometry():
    p = parse_path("UFD")
    assert p.heights == (0, 1, 1, 0)
    assert p.size == 2


def test_parse_longer_path():
    p = parse_path("DUUDDDUUUUUDFDD")
    assert p.size == 8
    assert p.end_height == 0


def test_parse_rejects_bad_characters():
    with pytest.raises(InvalidCharacter) as exc:
        parse_path("UFx")
    assert exc.value.position == 2
    assert exc.value.char == "x"
    with pytest.raises(InvalidCharacter) as exc:
        parse_path("uFD")
    assert exc.value.position == 0


@pytest.mark.parametrize(
    "text, char, position",
    [("U\uff26D", "\uff26", 1), ("UD\u00e9", "\u00e9", 2), ("\u0660", "\u0660", 0), ("UU\x00DD", "\x00", 2)],
)
def test_parse_rejects_non_ascii_and_control_characters(text, char, position):
    with pytest.raises(InvalidCharacter) as exc:
        parse_path(text)
    assert (exc.value.char, exc.value.position) == (char, position)
    assert str(exc.value) == f"invalid step character {char!r} at position {position}"


@given(step_words)
def test_parse_format_roundtrip(s):
    assert parse_path(s).steps == s


def test_in_class_a_examples():
    assert in_class_a(parse_path("DUUDDDUUUUUDFDD"))
    assert not in_class_a(parse_path("F"))
    assert in_class_a(parse_path("UFD"), flat_line=1)
    assert in_class_a(parse_path("F"), flat_line=0)
    assert not in_class_a(parse_path("UU"))


def test_in_class_b_examples():
    assert in_class_b(parse_path("FUDUFDUUFUDDD"))
    assert not in_class_b(parse_path("UUDUDD"))  # one component, two peaks
    assert in_class_b(parse_path("UDUD"))  # one peak in each of two components
    assert not in_class_b(parse_path("UDUUDUDD"))  # the second component has two peaks
    assert not in_class_b(parse_path("DU"))
    assert in_class_b(parse_path(""))


def test_components_examples():
    view = components(parse_path("FUDUFDUUFUDDD"))
    assert [c.path.steps for c in view.parts] == ["F", "UD", "UFD", "UUFUDDD"]
    assert [c.start for c in view.parts] == [0, 1, 3, 6]

    view = components(parse_path("DUUDDDUUUUUDFDD"))
    assert [c.path.steps for c in view.parts] == ["DU", "UD", "DDUU", "UUUDFDD"]

    assert len(components(parse_path(""))) == 0

    with pytest.raises(NotGroundTerminated):
        components(parse_path("UU"))


@given(ground_paths())
def test_components_concat_roundtrip(p):
    view = components(p)
    assert "".join(c.path.steps for c in view.parts) == p.steps
    assert sum(c.path.size for c in view.parts) == p.size
    for c in view.parts:
        assert step_heights(c.path.steps).count(0) == 2


def test_single_flat_is_one_component():
    assert len(components(parse_path("F"))) == 1
    assert step_heights("F").count(0) == 2


def test_reflect_examples():
    assert "DDUDDUUU".translate(MIRROR) == "UUDUUDDD"
    assert "F".translate(MIRROR) == "F"
    assert "".translate(MIRROR) == ""


@given(step_words)
def test_reflect_involution_and_heights(s):
    # The kernels read a mirrored word's heights as the negated heights of the word.
    mirrored = s.translate(MIRROR)
    assert mirrored.translate(MIRROR) == s
    assert step_heights(mirrored) == [-h for h in step_heights(s)]


def test_class_b_holds_componentwise():
    # membership of the whole path is membership of every component
    for q in ["FUDUFDUUFUDDD", "UDUD", "FFF"]:
        p = parse_path(q)
        assert in_class_b(p)
        assert all(in_class_b(c.path) for c in components(p).parts)
    bad = parse_path("UDUUDUDD")
    assert not in_class_b(bad)
    assert any(not in_class_b(c.path) for c in components(bad).parts)


def test_path_ordering_is_ascii():
    paths = [Path("UD"), Path("DU"), Path("F")]
    assert [p.steps for p in sorted(paths)] == ["DU", "F", "UD"]


def test_render_ascii_goldens():
    assert render_ascii(parse_path("UD")) == "/\\"
    assert render_ascii(parse_path("DU")) == "\\/"
    assert render_ascii(parse_path("F")) == "__"
    assert render_ascii(parse_path("")) == ""
    assert render_ascii(parse_path("UFD")) == " __\n/  \\"
    assert render_ascii(parse_path("UUDD")) == " /\\\n/  \\"
    assert render_ascii(parse_path("UU")) == " /\n/"  # ends off ground
    assert render_ascii(parse_path("DFU")) == "\\__/"  # a flat below ground
    assert render_ascii(parse_path("UFDDFU")) == " __\n/  \\\n    \\__/"
    assert render_ascii(parse_path("DDFFUU")) == "\\      /\n \\____/"
    assert render_ascii(parse_path("UFUFDD")) == "    __\n __/  \\\n/      \\"  # flats on two heights


def test_render_ascii_below_ground():
    assert render_ascii(parse_path("DDUU")) == "\\  /\n \\/"


def test_render_ascii_has_no_trailing_spaces():
    art = render_ascii(parse_path("DUUDDDUUUUUDFDD"))
    assert all(line == line.rstrip() for line in art.splitlines())
