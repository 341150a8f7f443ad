import random
import re
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from pathbij import (
    MalformedLine,
    NonContiguousIndex,
    RangeNotCovered,
    compare_sequence,
    parse_bfile,
)
from pathbij.oeis import check_covered


def test_parse_bfile_basic():
    assert parse_bfile("0 1\n1 2\n") == {0: 1, 1: 2}
    assert list(parse_bfile("0 1\n1 2\n")) == [0, 1]


def test_parse_bfile_skips_comments_and_blanks():
    assert parse_bfile("# a comment\n\n0 1\n  \n1 5\n") == {0: 1, 1: 5}
    entries = parse_bfile("# note\n3 7\n4 9\n5 11\n")
    assert list(entries.items()) == [(3, 7), (4, 9), (5, 11)]


def test_parse_bfile_signs_and_big_values():
    entries = parse_bfile("-1 -7\n0 123456789012345678901234567890\n")
    assert entries[-1] == -7
    assert entries[0] == 123456789012345678901234567890


def test_parse_bfile_malformed():
    with pytest.raises(MalformedLine) as exc:
        parse_bfile("0 one\n")
    assert exc.value.line_number == 1

    with pytest.raises(MalformedLine) as exc:
        parse_bfile("0 1\n2\n")
    assert exc.value.line_number == 2

    with pytest.raises(MalformedLine):
        parse_bfile("0 1 2\n")


@pytest.mark.parametrize(
    "text,line_number",
    [("0 1_0\n1 2\n", 1), ("0 1\n1 \u0662\n", 2), ("0 1\n\uff11 2\n", 2)],
    ids=["underscore", "arabic-indic", "fullwidth"],
)
def test_parse_bfile_takes_only_ascii_decimal_fields(text, line_number):
    # Python's int() accepts all of these.
    with pytest.raises(MalformedLine) as exc:
        parse_bfile(text)
    assert exc.value.line_number == line_number
    assert str(exc.value) == f"malformed b-file line {line_number}: fields must be integers"


def test_parse_bfile_splits_fields_on_unicode_whitespace():
    assert parse_bfile("0\u00a01\n1\u30002\n2\t\u00a06 \u3000\n") == {0: 1, 1: 2, 2: 6}


_INTEGER = re.compile(r"[+-]?[0-9]+")


def ref_parse_bfile(text):
    """The field-splitting ``parse_bfile``: the reference for its entries and errors."""
    entries = {}
    previous = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise MalformedLine(line_number, f"expected 2 fields, got {len(parts)}")
        a, b = parts
        if not (_INTEGER.fullmatch(a) and _INTEGER.fullmatch(b)):
            raise MalformedLine(line_number, "fields must be integers")
        index, value = int(a), int(b)
        if previous is not None and index != previous + 1:
            raise NonContiguousIndex(line_number)
        entries[index] = value
        previous = index
    return entries


def _parsed(parse, text):
    try:
        return list(parse(text).items())
    except (MalformedLine, NonContiguousIndex) as exc:
        return type(exc), str(exc), exc.line_number


# Spaces that str.split() and re's \s both take, digits that int() takes and [0-9] does not,
# and a separator (\x1f) that is whitespace but no line break.
_SPACES = " \t\u00a0\u2003\u3000\x1f"
_LINE = st.one_of(
    st.text("0123456789+-_#a\u0661\uff11" + _SPACES, max_size=12),
    # Well-formed pairs with small indices, so runs of contiguous lines occur.
    st.builds(
        "{}{}{}{}{}".format,
        st.text(_SPACES, max_size=2),
        st.sampled_from(["0", "1", "2", "+1", "-0", "02", "1_0", "\uff11"]),
        st.text(_SPACES, min_size=1, max_size=2),
        st.sampled_from(["7", "-7", "+7", "1_0", "\u0661"]),
        st.text(_SPACES, max_size=2),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\u2028"])), max_size=6))
def test_parse_bfile_agrees_with_the_field_splitting_parser(lines):
    text = "".join(line + brk for line, brk in lines)
    assert _parsed(parse_bfile, text) == _parsed(ref_parse_bfile, text)


def test_parse_bfile_non_contiguous():
    with pytest.raises(NonContiguousIndex) as exc:
        parse_bfile("0 1\n2 4\n")
    assert exc.value.line_number == 2


def test_compare_sequence_match():
    assert compare_sequence([1, 2, 6], {0: 1, 1: 2, 2: 6}) == 3


def test_compare_sequence_mismatch():
    # The count stops at the first mismatch, here size 2 (6 expected, 7 computed).
    assert compare_sequence([1, 2, 7, 21], {0: 1, 1: 2, 2: 6, 3: 21}) == 2
    assert compare_sequence([0, 2], {0: 1, 1: 2}) == 0


def test_compare_sequence_offset():
    assert compare_sequence([10, 20], {5: 10, 6: 20}, start_index=5) == 2


def test_compare_sequence_empty():
    assert compare_sequence([], {}, start_index=3) == 0


def test_compare_sequence_range_not_covered():
    with pytest.raises(RangeNotCovered) as exc:
        compare_sequence([1, 2, 3], {0: 1, 1: 2})
    assert str(exc.value) == "table lacks indices 2..2"
    with pytest.raises(RangeNotCovered) as exc:
        compare_sequence([1, 2, 3, 4], {1: 2, 2: 6}, source_name="b_x.txt")
    assert str(exc.value) == "b_x.txt lacks indices 0..0 and 3..3"


def test_check_covered_needs_only_the_term_count():
    check_covered({0: 1, 1: 2}, 0, 2)
    check_covered({}, 5, 0)
    with pytest.raises(RangeNotCovered) as exc:
        check_covered({0: 1, 1: 2}, 0, 20_001, "b2.txt")
    assert str(exc.value) == "b2.txt lacks indices 2..20000"
    with pytest.raises(RangeNotCovered) as exc:
        check_covered({1: 2, 2: 6}, -1, 5)
    assert str(exc.value) == "table lacks indices -1..0 and 3..3"


def ref_check_covered(entries, start_index, count, source_name="table"):
    """The range-walking ``check_covered``: the reference for its messages."""
    missing = [i for i in range(start_index, start_index + count) if i not in entries]
    if missing:
        # Runs of consecutive missing indices share a value of index - position.
        runs = [[i for _, i in g] for _, g in groupby(enumerate(missing), lambda t: t[1] - t[0])]
        spans = " and ".join(f"{run[0]}..{run[-1]}" for run in runs)
        raise RangeNotCovered(f"{source_name} lacks indices {spans}")


def _covered_message(check, entries, start_index, count):
    try:
        check(entries, start_index, count, "b.txt")
    except RangeNotCovered as exc:
        return str(exc)
    return None


def test_check_covered_agrees_with_the_range_walk():
    rng = random.Random(7)
    for _ in range(2000):
        low = rng.randint(-20, 20)
        density = rng.random()
        entries = {k: k for k in range(low, low + 60) if rng.random() < density}
        start_index, count = rng.randint(-30, 40), rng.randint(-5, 50)
        assert _covered_message(check_covered, entries, start_index, count) == _covered_message(
            ref_check_covered, entries, start_index, count
        ), (sorted(entries), start_index, count)


def test_check_covered_memory_follows_the_table_not_the_range():
    tracemalloc.start()
    try:
        with pytest.raises(RangeNotCovered) as exc:
            check_covered({0: 1}, 0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "table lacks indices 1..999999"
    assert peak <= 64 * 1024
