import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pathbij.bijection
import pathbij.cli
import pathbij.families
from pathbij import count_class_a_series, count_class_b_series, count_series
from pathbij.bijection import _run, map_component, map_word
from pathbij.cli import main
from pathbij.families import Census, class_a_words, class_b_words, indec_census
from pathbij.paths import (
    PathbijError,
    class_a_word,
    class_b_word,
    split_components,
    step_heights,
)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_map_worked_example(capsys):
    code, out, _ = run(["map", "--path", "DUUDDDUUUUUDFDD"], capsys)
    assert code == 0
    assert out == "FUDUFDUUFUDDD\n"


def test_unmap_worked_example(capsys):
    code, out, _ = run(["unmap", "--path", "FUDUFDUUFUDDD"], capsys)
    assert code == 0
    assert out == "DUUDDDUUUUUDFDD\n"


def test_help_lists_map_and_unmap(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width

    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    top = help_text(["--help"]).splitlines()
    assert top[0] == "usage: pathbij [-h] {enumerate,count,map,unmap,verify,perms,oeis,render} ..."
    verbs = [line.split()[0] for line in top if line.startswith("    ") and line[4] != " "]
    assert verbs == ["enumerate", "count", "map", "unmap", "verify", "perms", "oeis", "render"]
    assert "    map                 apply the forward bijection to a path" in top
    assert "    unmap               apply the inverse bijection to a path" in top
    for verb in ("map", "unmap"):
        assert help_text([verb, "--help"]) == (
            f"usage: pathbij {verb} [-h] --path PATH [--trace]\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
            "  --path PATH\n"
            "  --trace      print the pipeline stages\n"
        )


def test_handlers_rebound_after_the_first_call_are_the_ones_that_run(capsys, monkeypatch):
    assert main(["count", "--class", "A", "--size", "3"]) == 0  # the parser exists from here on
    capsys.readouterr()
    seen = []

    def recorder(args):
        seen.append(args)
        return 7

    monkeypatch.setattr(pathbij.cli, "cmd_count", recorder)
    assert main(["count", "--class", "A", "--size", "3"]) == 7
    assert [args.size for args in seen] == [3]
    seen.clear()
    monkeypatch.setattr(pathbij.cli, "cmd_map", recorder)  # one handler serves both verbs
    assert main(["map", "--path", "UD"]) == 7
    assert main(["unmap", "--path", "UD"]) == 7
    assert [args.inverse for args in seen] == [False, True]
    assert capsys.readouterr() == ("", "")


def test_the_parser_is_built_once_and_help_follows_the_width_at_print_time(capsys, monkeypatch):
    main(["count", "--class", "A", "--size", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", spy)
        main(["count", "--class", "A", "--size", "2"])
        main(["perms", "--n", "3"])
    assert built == []
    pathbij.cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "30")
    main(["count", "--class", "A", "--size", "1"])  # builds the parser at width 30
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for verb in ([], ["enumerate"], ["count"], ["map"], ["unmap"], ["verify"], ["perms"],
                 ["oeis"], ["render"]):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--help"])
        assert exc.value.code == 0
        text += capsys.readouterr().out
    # The digest of the same help printed by fresh processes; scripts/smoke.sh checks it too.
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1080f5dd19ee7cfb0b5647fa9a0e109b5bf2fa184178dd88bb7f4f0678d31f1e"
    )


def test_map_trace_single_component(capsys):
    code, out, _ = run(["map", "--path", "UUUDFDD", "--trace"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "input: UUUDFDD",
        "strip-ends: UUDFD",
        "expand-flats: UUDDUD marks=4",
        "flip-components: DDUUDU v1=2 v2=6",
        "interchange: UUDUDD w=4",
        "flatten-peaks: UFUDD",
        "output: UUFUDDD",
        "UUFUDDD",
    ]


def test_unmap_trace_covers_every_inverse_shape(capsys):
    # peak-free, one-peak and size-1 components, in that order
    code, out, _ = run(["unmap", "--path", "FUUFUDDDUD", "--trace"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "component 1: F",
        "input: F",
        "output: DU",
        "component 2: UUFUDDD",
        "input: UUFUDDD",
        "strip-ends: UFUDD",
        "unflatten-flats: UUDUDD w=4",
        "reverse-interchange: DDUUDU",
        "recover-marks: UUDDUD marks=4",
        "contract-marks: UUDFD",
        "output: UUUDFDD",
        "component 3: UD",
        "input: UD",
        "strip-ends:",
        "unflatten-flats:",
        "reverse-interchange:",
        "recover-marks:",
        "contract-marks:",
        "output: UD",
        "DUUUUDFDDUD",
    ]


def test_map_trace_multi_component(capsys):
    code, out, _ = run(["map", "--path", "DUUD", "--trace"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "component 1: DU"
    assert "output: F" in lines
    assert lines[-1] == "FUD"



def test_map_trace_heads_each_repeated_component(capsys):
    # DU and UUFDD repeat; each occurrence prints its own header and its full trace.
    _, above, _ = run(["map", "--path", "UUFDD", "--trace"], capsys)
    _, below, _ = run(["map", "--path", "DU", "--trace"], capsys)
    above, below = above.splitlines()[:-1], below.splitlines()[:-1]
    code, out, _ = run(["map", "--path", "DUUUFDDDUUUFDD", "--trace"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "component 1: DU", *below,
        "component 2: UUFDD", *above,
        "component 3: DU", *below,
        "component 4: UUFDD", *above,
        "FUFUDDFUFUDD",
    ]


def test_verify_reports_an_inverse_stage_that_shifts_marks(capsys, monkeypatch):
    # A recover-marks stage that shifts every mark: no kernel re-tests its input, so
    # contract-marks returns a wrong word, and verify names the component it fails.
    table = list(pathbij.bijection._ABOVE_STAGES)
    recover = table[1][3]

    def shifted(g, ann):
        steps, ann = recover(g, ann)
        return steps, {"marks": frozenset(m + 1 for m in ann["marks"])}

    table[1] = (*table[1][:3], shifted)
    monkeypatch.setattr(pathbij.bijection, "_ABOVE_STAGES", tuple(table))
    code, out, err = run(["verify", "--max-size", "4"], capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[3:5] == [
        "n=3: |A|=21 |B|=21 bijection FAILED",
        "  inverse roundtrip failed for UUFDD",
    ]

def test_map_rejects_invalid_characters(capsys):
    code, _, err = run(["map", "--path", "UXD"], capsys)
    assert code == 2
    assert "position 1" in err


def test_map_rejects_wrong_class(capsys):
    code, _, err = run(["map", "--path", "UU"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("verb,path", [("map", "UDUDDUU"), ("unmap", "UDUUDUDD")])
def test_trace_checks_the_whole_path_before_printing(verb, path, capsys):
    # The first component is fine, the last is not: nothing may be printed.
    code, out, err = run([verb, "--path", path, "--trace"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: input is not a")


LONGPATHS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "longpaths.py"


def _longpath(seed):
    """The first path of the seeded ``long-paths`` generator: 100 000 steps, 1 000 components."""
    spec = importlib.util.spec_from_file_location("longpaths", LONGPATHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed, 1, 100_000, 1000)[0]


def ref_line(label, steps, ann):
    """The trace line of one ``_run`` value, written out apart from ``_line``."""
    out = f"{label}: {steps}".rstrip()
    if ann.get("marks"):
        out += " marks=" + ",".join(str(m) for m in sorted(ann["marks"]))
    if ann.get("v1") is not None:
        out += f" v1={ann['v1']} v2={ann['v2']}"
    if ann.get("w") is not None:
        out += f" w={ann['w']}"
    return out


def ref_trace(path, inverse):
    """The exit code and stdout of ``map --trace`` (``unmap`` if inverse), rendered from
    ``_run``'s values on each of ``split_components``' components: per component an
    optional header and its stage lines, then the image."""
    hs = step_heights(path)
    if not (class_b_word if inverse else class_a_word)(path, hs):
        return 2, ""
    comps = [c for _, c in split_components(path, hs)]
    out, images = [], []
    for i, c in enumerate(comps):
        values = _run(c, inverse)
        if len(comps) > 1:
            out.append(f"component {i + 1}: {c}")
        out += (ref_line(*value) for value in values)
        images.append(values[-1][1])
    out.append("".join(images))
    return 0, "".join(line + "\n" for line in out)


def _trace_bytes(path, capsys):
    """Exit code and stdout of ``map --trace`` and of ``unmap --trace`` on path."""
    return [run([verb, "--path", path, "--trace"], capsys)[:2] for verb in ("map", "unmap")]


def test_trace_bytes_match_the_stage_renderer(capsys):
    # Every word of both classes up to size 5 in both directions: the one in its class
    # traces, the one outside it exits 2 with nothing printed.  Then multi-flat, repeated,
    # size-1 and empty inputs, each with its image, so both verbs trace each of them.
    words = [w for n in range(6) for w in itertools.chain(class_a_words(n), class_b_words(n))]
    for p in ["DUUDDDUUUUUDFDD", "DUUUFUDFFDUFFDDUDDUUUFFUUDDFDD", "DUUUFDDDUUUFDD", "UD", ""]:
        q = map_word(p)
        assert ref_trace(p, False)[0] == ref_trace(q, True)[0] == 0
        words += (p, q)
    for word in words:
        assert _trace_bytes(word, capsys) == [ref_trace(word, False), ref_trace(word, True)]


def test_trace_bytes_of_the_empty_path(capsys):
    assert _trace_bytes("", capsys) == [(0, "\n"), (0, "\n")] == [
        ref_trace("", False),
        ref_trace("", True),
    ]


def test_trace_bytes_of_a_long_path_match_the_stage_renderer(capsys):
    p = _longpath(7)
    q = map_word(p)
    code, out = run(["map", "--path", p, "--trace"], capsys)[:2]
    assert (code, out) == ref_trace(p, False)
    assert out.endswith(f"\n{q}\n")
    assert run(["unmap", "--path", q, "--trace"], capsys)[:2] == ref_trace(q, True)


def test_count(capsys):
    assert run(["count", "--class", "A", "--size", "0"], capsys)[1] == "1\n"
    assert run(["count", "--class", "B", "--size", "3"], capsys)[1] == "21\n"


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def _decimal(n):
    """str(n) past Python's int/str digit limit, which main lifts only while a verb runs."""
    limit = _digit_limit()
    if limit is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_prints_past_the_int_str_digit_limit(capsys):
    limit = _digit_limit()
    code, out, err = run(["count", "--class", "A", "--size", "7000"], capsys)
    assert (code, err) == (0, "")
    assert out == _decimal(count_series(7000)[7000]) + "\n"
    assert len(out) == 4388 + 1
    assert _digit_limit() == limit


def test_count_size_3000_is_fast(capsys):
    best = float("inf")
    for _ in range(3):  # best of three, so one stall on a shared machine does not decide
        start = time.perf_counter()
        code, out, _ = run(["count", "--class", "A", "--size", "3000"], capsys)
        best = min(best, time.perf_counter() - start)
    assert code == 0
    assert len(out) > 1000
    assert best < 0.1


DP_SERIES = {"A": count_class_a_series, "B": count_class_b_series}


def run_both(argv, capsys, monkeypatch):
    """The CLI's output through the recurrence, then through the class's own DP."""
    fast = run(argv, capsys)
    with monkeypatch.context() as m:
        m.setattr(pathbij.cli, "count_series", DP_SERIES[argv[argv.index("--class") + 1]])
        slow = run(argv, capsys)
    return fast, slow


@pytest.mark.parametrize("cls", "AB")
def test_count_matches_the_dp_output(cls, capsys, monkeypatch):
    for n in range(61):
        fast, slow = run_both(["count", "--class", cls, "--size", str(n)], capsys, monkeypatch)
        assert fast == slow, n


@pytest.mark.parametrize("cls", "AB")
def test_oeis_matches_the_dp_output(cls, tmp_path, capsys, monkeypatch):
    terms = count_class_a_series(60)
    good = tmp_path / "b_good.txt"
    good.write_text("".join(f"{i} {v}\n" for i, v in enumerate(terms)))
    bad = tmp_path / "b_bad.txt"
    bad.write_text("".join(f"{i} {v + (i == 40)}\n" for i, v in enumerate(terms)))
    for bfile in (good, bad):
        for size in (0, 1, 39, 40, 60):
            argv = ["oeis", "--bfile", str(bfile), "--class", cls, "--max-size", str(size)]
            fast, slow = run_both(argv, capsys, monkeypatch)
            assert fast == slow, (bfile.name, size)
    assert fast[0] == 1  # the last call reads past the altered term


def test_verify_reports_a_recurrence_mismatch(capsys, monkeypatch):
    def wrong(max_n):
        series = count_class_a_series(max_n)
        series[3] += 1
        return series

    monkeypatch.setattr(pathbij.cli, "count_series", wrong)
    code, out, _ = run(["verify", "--max-size", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == "n=3: |A|=21 |B|=21 bijection FAILED"
    assert lines[4] == "  recurrence count 22 != DP counts 21 (A), 21 (B)"
    assert lines[5] == "n=4: |A|=79 |B|=79 bijection OK"


def _size(word):
    return word.count("U") + word.count("F")


def _faulty(forward=None, backward=None):
    """``map_component`` with a fault on every component it maps in one direction."""

    def faulty(word, inverse=False):
        fault = backward if inverse else forward
        return fault(word) if fault else map_component(word, inverse)

    return faulty


_SWAPPED = {"UFFD": "UUFDD", "UUFDD": "UFFD"}


def _swapped_preimages(q):
    """The inverse map, but with the preimages of two one-component B words swapped."""
    return map_component(_SWAPPED.get(q, q), True)


def _last_b_extended(n, enumerate_b=class_b_words):
    words = list(enumerate_b(n))
    return words[:-1] + [words[-1] + "F"]  # still sorted and as many


@pytest.mark.parametrize(
    "name,fault,max_size,line",
    [
        pytest.param(
            "class_a_words", lambda n: list(class_a_words(n))[1:], 1,
            "count A 2 != enumeration 1", id="count",
        ),
        pytest.param(
            "class_b_words", lambda n: reversed(list(class_b_words(n))), 1,
            "class B enumeration is not strictly sorted", id="sorted",
        ),
        pytest.param(
            # two words outside class A: the first one is named
            "class_a_words",
            lambda n: [{"DU": "F", "UD": "U"}.get(w, w) for w in class_a_words(n)],
            1,
            "class A enumeration holds F, not in A_1",
            id="outside-class-a",
        ),
        pytest.param(
            "class_a_words", lambda n: ["U" if w == "DU" else w for w in class_a_words(n)], 1,
            "class A enumeration holds U, not in A_1", id="off-ground",
        ),
        pytest.param(
            "map_component", _faulty(forward=lambda w: map_word(w) + "UD"), 1,
            "size changed: DU -> FUD", id="size",
        ),
        pytest.param(
            "map_component", _faulty(forward=lambda w: "F" * _size(w)), 2,
            "component sizes changed: UUDD -> FF", id="component-sizes",
        ),
        pytest.param(
            "map_component", _faulty(forward=lambda w: "F" * _size(w)), 1,
            "peak structure wrong: UD -> F", id="peaks",
        ),
        pytest.param(
            "map_component", _faulty(backward=lambda w: "DU" * _size(w)), 1,
            "inverse roundtrip failed for UD", id="inverse-roundtrip",
        ),
        pytest.param(
            "class_b_words", _last_b_extended, 1,
            "class B enumeration holds UDF, not in B_1", id="outside-class-b",
        ),
        pytest.param(
            # a character outside U/F/D in an image of the wrong size
            "map_component", _faulty(forward=lambda w: "X"), 1,
            "size changed: DU -> X", id="bad-character",
        ),
        pytest.param(
            # a character outside U/F/D in an image of the right size
            "map_component", _faulty(forward=lambda w: {"DU": "UX"}.get(w) or map_component(w)),
            1, "image has a step outside U/F/D: DU -> UX", id="bad-character-sized",
        ),
        pytest.param(
            # a word with a character outside U/F/D in the class-A enumeration
            "class_a_words", lambda n: ["UX" if w == "UD" else w for w in class_a_words(n)], 1,
            "class A enumeration holds UX, not in A_1", id="bad-character-class-a",
        ),
        pytest.param(
            "map_component", _faulty(backward=_swapped_preimages), 3,
            "inverse roundtrip failed for DDDUUU", id="swapped-preimages",
        ),
        pytest.param(
            "Census", lambda *counts: Census(*counts)._replace(below_a=0), 1,
            "census mismatch: Census(below_a=0, above_a=1, nopeak_b=1, onepeak_b=1)", id="census",
        ),
    ],
)
def test_verify_reports_each_problem(name, fault, max_size, line, capsys, monkeypatch):
    monkeypatch.setattr(pathbij.cli, name, fault)
    code, out, err = run(["verify", "--max-size", str(max_size), "--census"], capsys)
    assert code == 1
    assert err == ""
    assert "  " + line in out.splitlines()


def test_verify_orders_the_premises_of_both_classes(capsys, monkeypatch):
    # Faults in both classes: each premise's A line comes before its B line.
    monkeypatch.setattr(pathbij.cli, "class_a_words", lambda n: reversed(list(class_a_words(n))))
    monkeypatch.setattr(pathbij.cli, "class_b_words", lambda n: list(class_b_words(n))[1:])
    code, out, err = run(["verify", "--max-size", "1", "--census"], capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[lines.index("n=1: |A|=2 |B|=2 bijection FAILED") :] == [
        "n=1: |A|=2 |B|=2 bijection FAILED",
        "  count B 2 != enumeration 1",
        "  class A enumeration is not strictly sorted",
        "  census mismatch: Census(below_a=1, above_a=1, nopeak_b=0, onepeak_b=1)",
    ]


def test_verify_reports_a_map_that_raises(capsys, monkeypatch):
    monkeypatch.setattr(
        pathbij.cli, "map_component", _faulty(forward=lambda w: map_word(w)[::-1])
    )
    code, out, err = run(["verify", "--max-size", "3"], capsys)
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[:2] == ["n=0: |A|=1 |B|=1 bijection OK", "n=1: |A|=2 |B|=2 bijection FAILED"]
    error = "input is not a Schroeder path with at most one peak per component"
    assert f"  error for UD: {error}" in lines
    assert [line for line in lines if line.startswith("n=")][2:] == [
        "n=2: |A|=6 |B|=6 bijection FAILED",
        "n=3: |A|=21 |B|=21 bijection FAILED",
    ]


@pytest.mark.parametrize(
    "component,line",
    [("UD", "peak structure wrong: UD -> F"), ("UUFDD", "component sizes changed: UUFDD -> FFF")],
    ids=["UD", "UUFDD"],
)
def test_verify_names_a_faulty_component_once_per_run(component, line, capsys, monkeypatch):
    # A larger word holding the component, such as UD + UD, is not checked again.
    real_run = pathbij.bijection._run
    k = _size(component)

    def faulty_run(steps, inverse):
        if steps == component and not inverse:
            return [("input", steps, {}), ("output", "F" * k, {})]
        return real_run(steps, inverse)

    monkeypatch.setattr(pathbij.bijection, "_run", faulty_run)
    code, out, err = run(["verify", "--max-size", str(k + 2)], capsys)
    assert code == 1
    assert err == ""
    blocks = [block.splitlines() for block in out.split("n=")[1:]]
    assert len(blocks) == k + 3
    assert [block[0].endswith(" bijection OK") for block in blocks[:k]] == [True] * k
    assert blocks[k][0].endswith(" bijection FAILED")
    assert "  " + line in blocks[k]
    for block in blocks[k + 1 :]:
        assert block[0].endswith(" bijection FAILED")
        assert f"  smaller components failed: 1, first {component}" in block
        assert not any(f" {component} -> " in ln for ln in block)


def test_verify_fails_no_later_size_for_a_word_outside_class_a(capsys, monkeypatch):
    # F is no class-A component, so no word of size 2 holds it.
    def faulty(n):
        return ["F" if w == "DU" else w for w in class_a_words(n)]

    monkeypatch.setattr(pathbij.cli, "class_a_words", faulty)
    code, out, _ = run(["verify", "--max-size", "2"], capsys)
    assert code == 1
    assert out.splitlines()[1:] == [
        "n=1: |A|=2 |B|=2 bijection FAILED",
        "  class A enumeration holds F, not in A_1",
        "n=2: |A|=6 |B|=6 bijection OK",
    ]


def test_verify_checks_the_size_of_each_class_a_word(capsys, monkeypatch):
    # UUFDDUD lies in class A and keeps the enumeration sorted and as long, but has size 4,
    # so the indecomposable UUFDD it replaces is never mapped.
    def faulty(n):
        return (w + "UD" if w == "UUFDD" else w for w in class_a_words(n))

    monkeypatch.setattr(pathbij.cli, "class_a_words", faulty)
    code, out, err = run(["verify", "--max-size", "3"], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines()[2:] == [
        "n=2: |A|=6 |B|=6 bijection OK",
        "n=3: |A|=21 |B|=21 bijection FAILED",
        "  class A enumeration holds UUFDDUD, not in A_3",
    ]


def _scan_per_word(name, words, n, count, member):
    """``cli._scan`` one word at a time: its members, then its count, sorted, outside messages."""
    members, length, in_order, outside, last = [], 0, True, None, None
    for length, w in enumerate(words, 1):
        in_order = in_order and (last is None or last < w)
        last = w
        hs = step_heights(w)
        if _size(w) != n or not member(w, hs):
            outside = w if outside is None else outside
        elif hs.count(0) == 2:
            members.append(w)
    return members, (
        f"count {name} {count} != enumeration {length}" if count != length else "",
        "" if in_order else f"class {name} enumeration is not strictly sorted",
        "" if outside is None else f"class {name} enumeration holds {outside}, not in {name}_{n}",
    )


_SCAN_CLASSES = {"A": (class_a_words, class_a_word), "B": (class_b_words, class_b_word)}
# A word of size n, ending on ground, outside each class: a flat at height 1 in A, and
# a component with two peaks in B.
_OUTSIDE = {"A": lambda n: "UFD" + "UD" * (n - 2), "B": lambda n: "UUDUDD" + "UD" * (n - 3)}


# Each fault: the words it puts at positions i, i + 1, ..., given the words there.
_SCAN_FAULTS = {
    "outside": lambda name, n, ws: [_OUTSIDE[name](n)],
    "off-ground": lambda name, n, ws: [ws[0] + "D"],
    # Each ends off ground, but joined they end on ground, and the join is in A and in B.
    "off-ground-pair": lambda name, n, ws: ["UU" + "F" * (n - 1), "F" * (n - 1) + "DD"],
    "size": lambda name, n, ws: [ws[0] + "UD"],
    "unsorted": lambda name, n, ws: [ws[1], ws[0]],
}


@pytest.mark.parametrize("name", ["A", "B"])
@pytest.mark.parametrize("n,chunk", [(3, 8), (4, 8), (5, 16), (6, None)], ids=str)
def test_scan_chunks_agree_with_the_per_word_loop(name, n, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(pathbij.cli, "_SCAN_CHUNK", chunk)
    chunk = pathbij.cli._SCAN_CHUNK
    enumerate_words, member = _SCAN_CLASSES[name]
    clean = list(enumerate_words(n))
    assert len(clean) > chunk + 1
    heights_calls = []

    def counted_heights(steps):
        heights_calls.append(steps)
        return step_heights(steps)

    monkeypatch.setattr(pathbij.cli, "step_heights", counted_heights)

    def check(words, count, failing=()):
        heights_calls.clear()
        premises = []
        members = list(pathbij.cli._scan(name, words, n, count, member, premises))
        assert (members, premises[0]) == _scan_per_word(name, words, n, count, member)
        # One joined profile per chunk, and one per word of each chunk that fails.
        expected = []
        for k in range(0, len(words), chunk):
            c = words[k : k + chunk]
            expected += ["".join(c), *(c if k // chunk in failing else ())]
        assert heights_calls == expected

    check(clean, len(clean))
    check(clean[1:], len(clean))  # a count that differs from the enumeration
    # The first word of a chunk, its middle, its last word and the first of the next.
    for i in (0, chunk // 2, chunk - 1, chunk):
        for fault, make in _SCAN_FAULTS.items():
            new = make(name, n, clean[i : i + 2])
            words = clean[:i] + new + clean[i + len(new) :]
            failing = () if fault == "unsorted" else {(i + j) // chunk for j in range(len(new))}
            check(words, len(clean), failing)
    # Two words outside, in two chunks: the first one, by word order, is named.
    words = clean[:]
    words[1] += "D"
    words[chunk + 1] = "D" + words[chunk + 1]
    check(words, len(clean), (0, 1))


# Every U/F/D word of length <= 7: ending off ground, going below ground, of any size, or
# of several components.
_SHORT_WORDS = ["".join(t) for k in range(8) for t in itertools.product("UFD", repeat=k)]


@pytest.mark.parametrize("name", ["A", "B"])
def test_scan_tests_a_single_word_as_the_per_word_loop(name, monkeypatch):
    member = _SCAN_CLASSES[name][1]
    heights_calls = []

    def counted_heights(steps):
        heights_calls.append(steps)
        return step_heights(steps)

    monkeypatch.setattr(pathbij.cli, "step_heights", counted_heights)
    for n in range(5):
        for w in _SHORT_WORDS:
            heights_calls.clear()
            premises = []
            members = list(pathbij.cli._scan(name, [w], n, 1, member, premises))
            expected = _scan_per_word(name, [w], n, 1, member)
            assert (members, premises[0]) == expected, (w, n)
            # The word's profile as a chunk, then once more alone if it fails.
            assert heights_calls == ([w, w] if expected[1][2] else [w]), (w, n)


def _count_enumerations(monkeypatch):
    """Record the size of each ``class_a_words``/``class_b_words`` call, by name."""
    enumerated = {"class_a_words": [], "class_b_words": []}

    def counting(name, fn):
        def counted(n):
            enumerated[name].append(n)
            return fn(n)

        return counted

    # indec_census would reach the enumerators through the families module's globals.
    for name in enumerated:
        counted = counting(name, getattr(pathbij.families, name))
        monkeypatch.setattr(pathbij.families, name, counted)
        monkeypatch.setattr(pathbij.cli, name, counted)
    return enumerated


def test_verify_enumerates_each_size_once_under_a_fault(capsys, monkeypatch):
    enumerated = _count_enumerations(monkeypatch)
    counted_b = pathbij.cli.class_b_words
    monkeypatch.setattr(pathbij.cli, "class_b_words", lambda n: _last_b_extended(n, counted_b))
    code, out, err = run(["verify", "--max-size", "3", "--census"], capsys)
    assert enumerated == {"class_a_words": [0, 1, 2, 3], "class_b_words": [0, 1, 2, 3]}
    assert code == 1
    assert err == ""
    assert "  class B enumeration holds UDF, not in B_1" in out.splitlines()


def test_verify_fails_when_the_classes_differ_in_size(capsys, monkeypatch):
    # B's count and enumeration agree with each other, but not with A's.
    def short(max_n):
        series = count_class_b_series(max_n)
        series[1] -= 1
        return series

    b_moves = pathbij.families._b_moves

    def no_ground_flat(state, rem):
        return [move for move in b_moves(state, rem) if move[0] != "F" or state[0]]

    patches = {
        "count and enumeration": [
            (pathbij.cli, "count_class_b_series", short),
            (pathbij.cli, "class_b_words", lambda n: list(class_b_words(n))[:1]),
        ],
        # B's one step rule made short: its enumeration and its DP both walk it.
        "step rule": [(pathbij.families, "_b_moves", no_ground_flat)],
    }
    for label, patch in patches.items():
        with monkeypatch.context() as m:
            for target, name, value in patch:
                m.setattr(target, name, value)
            code, out, _ = run(["verify", "--max-size", "1"], capsys)
        assert code == 1
        assert out.splitlines()[1:] == [
            "n=1: |A|=2 |B|=1 bijection FAILED",
            "  recurrence count 2 != DP counts 2 (A), 1 (B)",
        ], label


def test_enumerate(capsys):
    code, out, _ = run(["enumerate", "--class", "A", "--size", "1"], capsys)
    assert code == 0
    assert out == "DU\nUD\n"
    code, out, _ = run(["enumerate", "--class", "B", "--size", "1"], capsys)
    assert out == "F\nUD\n"
    code, out, _ = run(["enumerate", "--class", "A", "--size", "0"], capsys)
    assert out == "\n"
    # 5 026 words, more than one chunk: the chunked writes add and drop nothing.
    code, out, _ = run(["enumerate", "--class", "B", "--size", "7"], capsys)
    assert out == "".join(w + "\n" for w in class_b_words(7))


def test_enumerate_flat_line(capsys):
    code, out, _ = run(["enumerate", "--class", "A", "--size", "1", "--flat-line", "0"], capsys)
    assert code == 0
    assert out == "DU\nF\nUD\n"
    code, _, err = run(["enumerate", "--class", "B", "--size", "1", "--flat-line", "0"], capsys)
    assert code == 2
    assert "class A only" in err


def test_verify_small(capsys):
    code, out, _ = run(["verify", "--max-size", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "n=0: |A|=1 |B|=1 bijection OK",
        "n=1: |A|=2 |B|=2 bijection OK",
        "n=2: |A|=6 |B|=6 bijection OK",
    ]


def test_verify_runs_each_counter_once(capsys, monkeypatch):
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("count_class_a_series", "count_class_b_series"):
        monkeypatch.setattr(pathbij.cli, name, counting(name, getattr(pathbij.cli, name)))
    code, out, _ = run(["verify", "--max-size", "3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4
    assert sorted(calls) == ["count_class_a_series", "count_class_b_series"]


def test_verify_maps_each_distinct_component_once_per_run(capsys, monkeypatch):
    indecomposables = sum(step_heights(w).count(0) == 2 for n in range(6) for w in class_a_words(n))
    assert indecomposables == 73
    enumerated = _count_enumerations(monkeypatch)
    runs = {False: [], True: []}
    real_run = pathbij.bijection._run

    def counted_run(steps, inverse):
        runs[inverse].append(steps)
        return real_run(steps, inverse)

    monkeypatch.setattr(pathbij.bijection, "_run", counted_run)
    code, _, _ = run(["verify", "--max-size", "5", "--census"], capsys)
    assert code == 0
    assert enumerated == {"class_a_words": list(range(6)), "class_b_words": list(range(6))}
    # Each indecomposable is checked at its own size only, one map each way.
    assert len(runs[False]) == len(runs[True]) == indecomposables


def _faulty_run(component, inverse, fault):
    """``bijection._run`` with ``fault(steps)`` as the output of one component in one direction,
    recording each call's steps under its direction."""
    real_run = pathbij.bijection._run
    runs = {False: [], True: []}

    def faulty_run(steps, inv):
        runs[inv].append(steps)
        if steps == component and inv == inverse:
            return [("input", steps, {}), ("output", fault(steps), {})]
        return real_run(steps, inv)

    return faulty_run, runs


def _raise(steps):
    raise PathbijError(f"refused {steps}")


@pytest.mark.parametrize(
    "inverse,fault,line,raising",
    [
        # The image fails the chunk's forward test, so it is never mapped back.
        (False, lambda s: "FFF", "component sizes changed: UUFDD -> FFF", False),
        # The images pass it, and the one that does not map back is named.
        (True, lambda s: "DUDUDU", "inverse roundtrip failed for UUFDD", False),
        # A map that raises is made again one component at a time, and raises again.
        (False, _raise, "error for UUFDD: refused UUFDD", True),
        (True, _raise, "error for UUFDD: refused UFUDD", True),
    ],
    ids=["forward", "inverse", "forward-raises", "inverse-raises"],
)
def test_verify_maps_each_distinct_component_once_per_failing_run(
    inverse, fault, line, raising, capsys, monkeypatch
):
    # UUFDD maps to UFUDD; its chunk holds all 5 indecomposables of size 3.
    faulty_run, runs = _faulty_run("UFUDD" if inverse else "UUFDD", inverse, fault)
    monkeypatch.setattr(pathbij.bijection, "_run", faulty_run)
    code, out, err = run(["verify", "--max-size", "5", "--census"], capsys)
    assert (code, err) == (1, "")
    assert "  " + line in out.splitlines()
    forward, backward = collections.Counter(runs[False]), collections.Counter(runs[True])
    assert (len(forward), len(backward)) == (73, 72 + inverse)
    # No map is made twice, but for a map that raised: once in its chunk, once alone.
    assert [s for s, k in forward.items() if k > 1] == ["UUFDD"] * (raising and not inverse)
    assert [s for s, k in backward.items() if k > 1] == ["UFUDD"] * (raising and inverse)
    assert {*forward.values(), *backward.values()} == {1, 1 + raising}


def test_verify_names_a_kernel_that_raises_a_plain_exception(capsys, monkeypatch):
    # A faulty kernel fails with an IndexError, not a PathbijError: the run goes on and the
    # component's line names the exception's class.
    def index_error(steps):
        raise IndexError("list index out of range")

    faulty_run, _ = _faulty_run("UUFDD", False, index_error)
    monkeypatch.setattr(pathbij.bijection, "_run", faulty_run)
    code, out, err = run(["verify", "--max-size", "4"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[3:] == [
        "n=3: |A|=21 |B|=21 bijection FAILED",
        "  error for UUFDD: IndexError: list index out of range",
        "n=4: |A|=79 |B|=79 bijection FAILED",
        "  smaller components failed: 1, first UUFDD",
    ]
    assert "Traceback" not in out


@pytest.mark.parametrize(
    "n,forward,backward,lines",
    [
        # Each image has a peak just when its component lies below ground.
        (
            1, {"DU": "UD", "UD": "F"}, {"UD": "DU", "F": "UD"},
            ["n=1: |A|=2 |B|=2 bijection FAILED",
             "  peak structure wrong: DU -> UD", "  peak structure wrong: UD -> F"],
        ),
        # A one-peaked class-B image of three components.
        (
            3, {"UUFDD": "UDFF"}, {"UDFF": "UUFDD"},
            ["n=3: |A|=21 |B|=21 bijection FAILED", "  component sizes changed: UUFDD -> UDFF"],
        ),
    ],
    ids=["peaks", "components"],
)
def test_verify_names_images_that_fail_only_one_test(
    n, forward, backward, lines, capsys, monkeypatch
):
    # Each faulty image is in class B, of the right size, and maps back to its component.
    faulty = _faulty(
        forward=lambda w: forward.get(w) or map_component(w),
        backward=lambda q: backward.get(q) or map_component(q, True),
    )
    monkeypatch.setattr(pathbij.cli, "map_component", faulty)
    code, out, err = run(["verify", "--max-size", str(n), "--census"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[n:] == lines


@pytest.mark.parametrize(
    "inverse,fault,line",
    [
        (False, lambda s: "F" * 7, "component sizes changed: UUUUUUUDDDDDDD -> FFFFFFF"),
        (True, lambda s: "D" * 7 + "U" * 7, "inverse roundtrip failed for UUUUUUUDDDDDDD"),
    ],
    ids=["forward", "inverse"],
)
def test_verify_names_a_faulty_component_in_the_last_chunk(
    inverse, fault, line, capsys, monkeypatch
):
    sevens = [w for w in class_a_words(7) if step_heights(w).count(0) == 2]
    last = sevens[-1]
    assert (len(sevens), last) == (594, "UUUUUUUDDDDDDD")
    assert (len(sevens) - 1) // pathbij.cli._SCAN_CHUNK == 2  # the third chunk
    faulty_run, _ = _faulty_run(map_component(last) if inverse else last, inverse, fault)
    monkeypatch.setattr(pathbij.bijection, "_run", faulty_run)
    code, out, err = run(["verify", "--max-size", "8", "--census"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[7:] == [
        "n=7: |A|=5026 |B|=5026 bijection FAILED",
        "  " + line,
        "n=8: |A|=20626 |B|=20626 bijection FAILED",
        f"  smaller components failed: 1, first {last}",
    ]


def test_verify_peak_memory_is_small(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(["verify", "--max-size", "7", "--census"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.count(" bijection OK\n") == 8
    assert peak < 2_000_000


def _verify_peak(argv, capsys):
    tracemalloc.start()
    try:
        code, _, _ = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_verify_peak_memory_grows_slowly_with_the_size(capsys):
    # The scan holds one chunk of words at a time, never a whole class.
    _verify_peak(["verify", "--max-size", "1", "--census"], capsys)  # warm-up
    seven = _verify_peak(["verify", "--max-size", "7", "--census"], capsys)
    eight = _verify_peak(["verify", "--max-size", "8", "--census"], capsys)
    assert eight <= 1.25 * seven


def test_verify_census_adds_no_memory(capsys):
    # The census is four counters, not a list of the indecomposables of each size.
    _verify_peak(["verify", "--max-size", "1", "--census"], capsys)  # warm-up
    plain = _verify_peak(["verify", "--max-size", "8"], capsys)
    census = _verify_peak(["verify", "--max-size", "8", "--census"], capsys)
    assert census <= plain + 64_000


def test_verify_tallies_the_reference_census(capsys, monkeypatch):
    tallied = []

    def recording(*counts):
        tallied.append(Census(*counts))
        return tallied[-1]

    monkeypatch.setattr(pathbij.cli, "Census", recording)
    code, _, _ = run(["verify", "--max-size", "7", "--census"], capsys)
    assert code == 0
    assert tallied == [indec_census(n) for n in range(1, 8)]


def test_verify_census(capsys):
    code, out, _ = run(["verify", "--max-size", "3", "--census"], capsys)
    assert code == 0
    assert "n=3: |A|=21 |B|=21 bijection OK" in out


def test_perms(capsys):
    code, out, _ = run(["perms", "--n", "4"], capsys)
    assert code == 0
    assert out == "21\n"
    code, out, _ = run(["perms", "--n", "4", "--patterns", ""], capsys)
    assert out == "24\n"
    code, _, err = run(["perms", "--n", "4", "--patterns", "12,xy"], capsys)
    assert code == 2


def test_perms_in_one_process_keeps_each_pattern_sets_tables_apart(capsys):
    # Each run shares the process's avoider tables with the runs before it.
    for argv, count in [
        (["--n", "9"], 20626),
        (["--n", "9", "--patterns", "1342"], 91245),
        (["--n", "8", "--patterns", "4321"], 15767),
        (["--n", "9"], 20626),
    ]:
        assert run(["perms", *argv], capsys) == (0, f"{count}\n", ""), argv


def test_perms_rejects_non_ascii_digits(capsys):
    code, out, err = run(["perms", "--n", "4", "--patterns", "\u0663\u0662\u0664\u0661"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: '\u0663\u0662\u0664\u0661' is not a digit string\n"


def test_render(capsys):
    code, out, _ = run(["render", "--path", "UFD"], capsys)
    assert code == 0
    assert out == " __\n/  \\\n"


def test_oeis_match(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_text("# header\n0 1\n1 2\n2 6\n3 21\n")
    code, out, _ = run(["oeis", "--bfile", str(bfile), "--class", "A", "--max-size", "3"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "MATCH 4/4"


def test_oeis_offset(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_text("1 1\n2 2\n3 6\n")
    code, out, _ = run(
        ["oeis", "--bfile", str(bfile), "--class", "B", "--max-size", "2", "--offset", "1"],
        capsys,
    )
    assert code == 0
    assert "MATCH 3/3" in out


def test_oeis_mismatch_exits_one(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_text("0 1\n1 2\n2 7\n")
    code, out, _ = run(["oeis", "--bfile", str(bfile), "--class", "A", "--max-size", "2"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH at n=2"
    assert "computed=6 expected=7 MISMATCH" in out


def test_oeis_mismatch_names_the_size_under_an_offset(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_text("1 1\n2 2\n3 7\n")
    argv = ["oeis", "--bfile", str(bfile), "--class", "A", "--max-size", "2", "--offset", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert out.splitlines()[-2:] == ["n=2: computed=6 expected=7 MISMATCH", "MISMATCH at n=2"]


def test_oeis_names_only_the_missing_indices(tmp_path, capsys):
    bfile = tmp_path / "b3.txt"
    bfile.write_text("0 1\n1 2\n2 6\n")
    argv = ["oeis", "--bfile", str(bfile), "--class", "A", "--max-size", "5", "--offset", "-1"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: b3.txt lacks indices -1..-1 and 3..4\n"


def test_oeis_checks_the_range_before_counting(tmp_path, capsys, monkeypatch):
    # A file that cannot cover the sizes asked for fails before the DP runs.
    calls = []

    def counted(n):
        calls.append(n)
        return count_series(n)

    monkeypatch.setattr(pathbij.cli, "count_series", counted)
    bfile = tmp_path / "b2.txt"
    bfile.write_text("0 1\n1 2\n")
    argv = ["oeis", "--bfile", str(bfile), "--class", "A", "--max-size"]
    assert run(argv + ["20000"], capsys) == (2, "", "error: b2.txt lacks indices 2..20000\n")
    assert calls == []
    matched = "n=0: computed=1 expected=1 ok\nn=1: computed=2 expected=2 ok\nMATCH 2/2\n"
    assert run(argv + ["1"], capsys) == (0, matched, "")
    assert calls == [1]


def test_oeis_reads_and_prints_values_past_the_int_str_digit_limit(tmp_path, capsys):
    limit = _digit_limit()
    big = "1" + "0" * 4999
    bfile = tmp_path / "b_big.txt"
    bfile.write_text(f"0 1\n1 {big}\n")
    argv = ["oeis", "--bfile", str(bfile), "--class", "A", "--max-size"]
    assert run(argv + ["0"], capsys) == (0, "n=0: computed=1 expected=1 ok\nMATCH 1/1\n", "")
    code, out, err = run(argv + ["1"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [f"n=1: computed=2 expected={big} MISMATCH", "MISMATCH at n=1"]
    assert _digit_limit() == limit


def test_oeis_missing_file(tmp_path, capsys):
    code, _, err = run(["oeis", "--bfile", str(tmp_path / "nope.txt"), "--class", "A"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_oeis_malformed_file(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_text("0 one\n")
    code, _, err = run(["oeis", "--bfile", str(bfile), "--class", "A"], capsys)
    assert code == 2
    assert "malformed" in err



def test_oeis_undecodable_file(tmp_path, capsys):
    bfile = tmp_path / "b_test.txt"
    bfile.write_bytes(b"\xff\xfe0 1\n")
    code, out, err = run(["oeis", "--bfile", str(bfile), "--class", "A"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bfile}: ")
    assert "Traceback" not in err

def test_closed_output_pipe_exits_one_without_a_traceback():
    path = [str(pathlib.Path(pathbij.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "pathbij.cli", "enumerate", "--class", "A", "--size", "9"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"DDDDDDDDDUUUUUUUUU\n"
    proc.stdout.close()  # as `| head -1` does, long before the last of A_9 is written
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--class", "A", "--size", "-1"],
        ["enumerate", "--class", "A", "--size", "-2"],
        ["perms", "--n", "-1"],
        ["oeis", "--bfile", "b.txt", "--class", "A", "--max-size", "-1"],
        ["verify", "--max-size", "-1"],
    ],
)
def test_negative_size_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["count", "--class", "A", "--size", "x"], "argument --size: invalid int value: 'x'"),
        (["verify", "--max-size", "1.5"], "argument --max-size: invalid int value: '1.5'"),
        (["perms", "--n", ""], "argument --n: invalid int value: ''"),
    ],
)
def test_non_integer_size_is_usage_error(argv, tail, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(tail + "\n")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--class", "C", "--size", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


VERBS = ["enumerate", "count", "map", "unmap", "verify", "perms", "oeis", "render"]
# Sizes up to 6, then texts that int() refuses, or reads as a size (" 3", "٣").
size_texts = st.one_of(
    st.integers(-2, 6).map(str), st.sampled_from(["", "x", "1.5", "0x3", " 3", "٣"])
)
small_members = [w for n in range(5) for w in itertools.chain(class_a_words(n), class_b_words(n))]
path_texts = st.one_of(
    st.sampled_from(small_members), st.text("UDF", max_size=24), st.text(max_size=8)
)
bfiles = st.one_of(
    st.binary(max_size=64),
    st.lists(st.tuples(st.integers(-1, 14), st.integers(-2, 400)), max_size=14).map(
        lambda rows: "".join(f"{i} {v}\n" for i, v in rows).encode()
    ),
    st.just("".join(f"{i} {v}\n" for i, v in enumerate(count_series(13))).encode()),
    st.none(),  # no file at all
)


@st.composite
def cli_calls(draw):
    """An argv for one of the eight verbs, with small sizes, and the bytes of its b-file."""
    verb = draw(st.sampled_from(VERBS))
    cls = ["--class", draw(st.sampled_from(["A", "B", "C"]))]
    if verb == "enumerate":
        args = cls + ["--size", draw(size_texts)]
        args += draw(st.sampled_from([[], ["--flat-line", str(draw(st.integers(-4, 4)))]]))
    elif verb == "count":
        args = cls + ["--size", draw(size_texts)]
    elif verb == "render":
        args = ["--path", draw(path_texts)]
    elif verb in ("map", "unmap"):
        args = ["--path", draw(path_texts)] + draw(st.sampled_from([[], ["--trace"]]))
    elif verb == "verify":
        args = ["--max-size", draw(size_texts)] + draw(st.sampled_from([[], ["--census"]]))
    elif verb == "perms":
        args = ["--n", str(draw(st.integers(-1, 7)))]
        patterns = st.one_of(st.text("0123456789,", max_size=10), st.text(max_size=5))
        args += draw(st.sampled_from([[], ["--patterns", draw(patterns)]]))
    else:
        args = cls + ["--max-size", draw(size_texts), "--offset", str(draw(st.integers(-3, 3)))]
    return [verb, *args], draw(bfiles) if verb == "oeis" else None


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cli_calls())
def test_every_verb_exits_zero_one_or_two_without_a_traceback(tmp_path, call):
    argv, bfile = call
    if argv[0] == "oeis":
        path = tmp_path / "b.txt"
        path.unlink(missing_ok=True)
        if bfile is not None:
            path.write_bytes(bfile)
        argv += ["--bfile", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help, or a usage error
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code != 2 or err.getvalue()  # a usage or parse error says why
