import pytest

from pathbij import (
    MalformedLine,
    Mismatch,
    NonContiguousIndex,
    RangeNotCovered,
    SequenceTable,
    compare_sequence,
    parse_bfile,
)


def test_parse_bfile_basic():
    table = parse_bfile("0 1\n1 2\n")
    assert table.entries == {0: 1, 1: 2}
    assert table.first_index == 0
    assert table.last_index == 1


def test_parse_bfile_skips_comments_and_blanks():
    table = parse_bfile("# a comment\n\n0 1\n  \n1 5\n")
    assert table.entries == {0: 1, 1: 5}
    table = parse_bfile("# note\n3 7\n4 9\n5 11\n")
    assert list(table.entries.items()) == [(3, 7), (4, 9), (5, 11)]


def test_parse_bfile_signs_and_big_values():
    table = parse_bfile("-1 -7\n0 123456789012345678901234567890\n")
    assert table.entries[-1] == -7
    assert table.entries[0] == 123456789012345678901234567890


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


def test_parse_bfile_non_contiguous():
    with pytest.raises(NonContiguousIndex) as exc:
        parse_bfile("0 1\n2 4\n")
    assert exc.value.line_number == 2


def test_compare_sequence_match():
    table = SequenceTable({0: 1, 1: 2, 2: 6})
    report = compare_sequence([1, 2, 6], table)
    assert report.ok
    assert report.matches == 3
    assert report.summary() == "MATCH 3/3"


def test_compare_sequence_mismatch():
    table = SequenceTable({0: 1, 1: 2, 2: 6})
    report = compare_sequence([1, 2, 7], table)
    assert report.first_mismatch == Mismatch(2, 6, 7)
    assert report.matches == 2
    assert report.summary() == "MISMATCH at n=2"


def test_compare_sequence_offset():
    table = SequenceTable({5: 10, 6: 20})
    assert compare_sequence([10, 20], table, start_index=5).ok


def test_compare_sequence_empty():
    assert compare_sequence([], SequenceTable({}), start_index=3).matches == 0


def test_compare_sequence_range_not_covered():
    with pytest.raises(RangeNotCovered):
        compare_sequence([1, 2, 3], SequenceTable({0: 1, 1: 2}))
