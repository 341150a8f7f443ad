"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every stated runtime bound is asserted, not just observed.
"""

import contextlib
import io
import itertools
import pathlib
import time

import pytest

from pathbij import (
    Path,
    compare_sequence,
    count_avoiders,
    count_class_a_series,
    count_class_b_series,
    in_class_a,
    in_class_b,
    parse_bfile,
    parse_path,
    phi,
    phi_inverse,
)
from pathbij.bijection import trace_blocks
from pathbij.cli import main
from pathbij.families import class_a_words, class_b_words

DATA_DIR = pathlib.Path(__file__).parent / "data"

VERIFY_MAX_SIZE = 8


def _report(criterion, message):
    print(f"criterion {criterion} PASS: {message}")


def test_criterion_1_worked_example_golden():
    p = parse_path("DUUDDDUUUUUDFDD")
    t0 = time.perf_counter()
    image = phi(p)
    back = phi_inverse(image)
    elapsed = time.perf_counter() - t0
    assert image.steps == "FUDUFDUUFUDDD"
    assert back == p
    assert elapsed < 0.001, f"{elapsed * 1e6:.0f} us"
    _report(1, f"worked-example map and inverse roundtrip ({elapsed * 1e6:.0f}us)")


def test_criterion_2_below_component_golden():
    p = parse_path("DDUDDUUU")
    t0 = time.perf_counter()
    image = phi(p)
    back = phi_inverse(image)
    elapsed = time.perf_counter() - t0
    assert image.steps == "UFUFDD"
    assert back == p
    assert elapsed < 0.001, f"{elapsed * 1e6:.0f} us"
    _report(2, f"below-ground component golden and roundtrip ({elapsed * 1e6:.0f}us)")


def test_criterion_3_stage_trace_golden():
    """The first five stages are asserted verbatim; the last two follow from
    the stage rules alone (flattening keeps only the apex created by the
    block swap, so the flattened tail reads F,U,F,D rather than a second
    trailing U,U,D,D hump, which would contradict the one-peak guarantee)."""
    t0 = time.perf_counter()
    ((component, text, image),) = trace_blocks(parse_path("UUUDDUFUUDUDDUDDUDUUDDD"))
    elapsed = time.perf_counter() - t0
    lines = text.split("\n")
    assert component == "UUUDDUFUUDUDDUDDUDUUDDD"
    assert lines[:5] == [
        "input: UUUDDUFUUDUDDUDDUDUUDDD",
        "strip-ends: UUDDUFUUDUDDUDDUDUUDD",
        "expand-flats: UUDDUDUUUDUDDUDDUDUUDD marks=6",
        "flip-components: DDUUUDDDDUDUUDUUUDUUDD v1=9 v2=16",
        "interchange: UDUUDUUDDUUUDDDDUDUUDD w=7",
    ]
    assert lines[5:] == ["flatten-peaks: FUFUUDDUUFDDDFUFD", "output: UFUFUUDDUUFDDDFUFDD"]
    assert image == "UFUFUUDDUUFDDDFUFDD"
    assert image.count("UD") == 1
    assert elapsed < 0.001, f"{elapsed * 1e6:.0f} us"
    _report(3, f"seven-stage trace golden ({elapsed * 1e6:.0f}us)")


def test_criterion_4_bijection_exhaustive():
    """The exhaustive check is ``verify`` itself; test_bijection checks the maps directly."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--max-size", str(VERIFY_MAX_SIZE)])
    elapsed = time.perf_counter() - t0
    lines = out.getvalue().splitlines()
    assert code == 0
    assert len(lines) == VERIFY_MAX_SIZE + 1
    assert all(line.endswith(" bijection OK") for line in lines)
    assert elapsed < 60.0
    _report(4, f"verify reports the bijection OK at sizes <= {VERIFY_MAX_SIZE} ({elapsed:.1f}s)")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    counts_a, counts_b = count_class_a_series(10), count_class_b_series(10)
    for n in range(11):
        assert sum(1 for _ in class_a_words(n)) == counts_a[n]
        assert sum(1 for _ in class_b_words(n)) == counts_b[n]
    assert count_class_a_series(200) == count_class_b_series(200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, f"enumeration matches counts to n=10, counters agree to n=200 ({elapsed:.1f}s)")


def test_criterion_6_small_values():
    expected = [1, 2, 6, 21]
    # brute-force confirmation over every step word of the right size
    for n, value in enumerate(expected):
        brute_a = brute_b = 0
        for length in range(n, 2 * n + 1):
            for word in itertools.product("DFU", repeat=length):
                s = "".join(word)
                if s.count("U") + s.count("F") != n:
                    continue
                p = Path(s)
                brute_a += in_class_a(p)
                brute_b += in_class_b(p)
        assert brute_a == brute_b == value
    assert count_class_a_series(3) == count_class_b_series(3) == expected
    _report(6, f"sizes 0..3 count {expected} by brute force and by DP")


def test_criterion_7_permutation_cross_check():
    t0 = time.perf_counter()
    counts_b = count_class_b_series(8)
    for m in range(1, 10):
        assert count_avoiders(m) == counts_b[m - 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, f"avoider counts match path counts for 1..9 elements ({elapsed:.1f}s)")


def test_criterion_8_census():
    """``verify --census`` compares the census; test_families checks ``indec_census`` itself."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--max-size", str(VERIFY_MAX_SIZE), "--census"])
    elapsed = time.perf_counter() - t0
    lines = out.getvalue().splitlines()
    assert code == 0
    assert len(lines) == VERIFY_MAX_SIZE + 1
    assert all(line.endswith(" bijection OK") for line in lines)
    _report(8, f"indecomposable census matches for sizes 1..{VERIFY_MAX_SIZE} ({elapsed:.1f}s)")


@pytest.mark.parametrize(
    "filename,cls",
    [("b026737.txt", "A"), ("b111279.txt", "B")],
    ids=["A026737", "A111279"],
)
def test_criterion_9_oeis_bfiles(filename, cls):
    """Compares counts for n <= 30 against a local b-file; the offset used is
    the file's own first index (its first term counts size 0)."""
    bfile = DATA_DIR / filename
    if not bfile.exists():
        pytest.skip(f"tests/data/{filename} not present; see README for how to fetch it")
    t0 = time.perf_counter()
    entries = parse_bfile(bfile.read_text(encoding="utf-8"))
    first = next(iter(entries))
    series = count_class_a_series(30) if cls == "A" else count_class_b_series(30)
    assert compare_sequence(series, entries, first, filename) == 31

    code = main(
        ["oeis", "--bfile", str(bfile), "--class", cls, "--max-size", "30",
         "--offset", str(first)]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0
    _report(9, f"computed terms match {filename} for n <= 30 ({elapsed:.1f}s)")
