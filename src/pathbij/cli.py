"""Command-line interface.

One verb per capability: enumerate, count, map, unmap, verify, perms, oeis,
render.  All output is line-oriented UTF-8; path strings use the U/F/D
grammar.  Exit codes: 0 success or verified, 1 verification mismatch or an
output pipe closed by its reader, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import sys
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, eq, lt
from typing import Callable, Iterable, Iterator, Sequence

from .bijection import NotInClass, map_component, phi, phi_inverse, trace_blocks
from .families import (
    Census,
    class_a_words,
    class_b_words,
    count_class_a_series,
    count_class_b_series,
    count_series,
)
from .oeis import check_covered, compare_sequence, parse_bfile
from .paths import (
    DOWN,
    FLAT,
    PEAK,
    UP,
    InvalidCharacter,
    PathbijError,
    class_a_word,
    class_b_word,
    parse_path,
    render_ascii,
    step_heights,
)
from .permutations import DEFAULT_PATTERNS, count_avoiders, parse_patterns

DEFAULT_VERIFY_SIZE = 8
_SCAN_CHUNK = 256  # words per joined height profile in verify's scan; bounds its memory
_PRINT_CHUNK = 4096  # lines per write in enumerate and oeis


def _size(text: str) -> int:
    """argparse type of the size arguments: a negative size is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser, built on the first call and returned by every later one.

    Callers must not mutate it.  Each verb's ``func`` default is its handler's name.
    """
    parser = argparse.ArgumentParser(
        prog="pathbij",
        description="Enumerate, count, map, and cross-check the two path families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all paths of one size, one per line")
    p_enum.add_argument("--class", dest="cls", choices=["A", "B"], required=True)
    p_enum.add_argument("--size", type=_size, required=True)
    p_enum.add_argument(
        "--flat-line",
        type=int,
        default=None,
        help="height of the line carrying all flatsteps (class A only, default 2)",
    )
    p_enum.set_defaults(func="cmd_enumerate")

    p_count = sub.add_parser("count", help="exact count of paths of one size")
    p_count.add_argument("--class", dest="cls", choices=["A", "B"], required=True)
    p_count.add_argument("--size", type=_size, required=True)
    p_count.set_defaults(func="cmd_count")

    for verb, direction in (("map", "forward"), ("unmap", "inverse")):
        p_map = sub.add_parser(verb, help=f"apply the {direction} bijection to a path")
        p_map.add_argument("--path", required=True)
        p_map.add_argument("--trace", action="store_true", help="print the pipeline stages")
        p_map.set_defaults(func="cmd_map", inverse=(verb == "unmap"))

    p_verify = sub.add_parser(
        "verify", help="exhaustively check the bijection and counters up to a size"
    )
    p_verify.add_argument("--max-size", type=_size, default=DEFAULT_VERIFY_SIZE)
    p_verify.add_argument(
        "--census", action="store_true", help="also cross-check the indecomposable census"
    )
    p_verify.set_defaults(func="cmd_verify")

    p_perms = sub.add_parser("perms", help="count pattern-avoiding permutations exhaustively")
    p_perms.add_argument("--n", type=_size, required=True, help="number of elements")
    p_perms.add_argument(
        "--patterns",
        default=",".join("".join(map(str, p)) for p in DEFAULT_PATTERNS),
        help="comma-separated digit patterns (default: %(default)s)",
    )
    p_perms.set_defaults(func="cmd_perms")

    p_oeis = sub.add_parser("oeis", help="compare computed counts against a b-file")
    p_oeis.add_argument("--bfile", required=True, help="path to a local OEIS b-file")
    p_oeis.add_argument("--class", dest="cls", choices=["A", "B"], required=True)
    p_oeis.add_argument("--max-size", type=_size, default=30)
    p_oeis.add_argument(
        "--offset",
        type=int,
        default=0,
        help="b-file index aligned with size 0 (default 0)",
    )
    p_oeis.set_defaults(func="cmd_oeis")

    p_render = sub.add_parser("render", help="print an ASCII picture of a path")
    p_render.add_argument("--path", required=True)
    p_render.set_defaults(func="cmd_render")

    return parser


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.cls == "A":
        words = class_a_words(args.size, 2 if args.flat_line is None else args.flat_line)
    else:
        if args.flat_line is not None:
            print("error: --flat-line applies to class A only", file=sys.stderr)
            return 2
        words = class_b_words(args.size)
    while chunk := list(islice(words, _PRINT_CHUNK)):
        print("\n".join(chunk))  # one write per chunk: the bytes of one print per word
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    # Both classes share one sequence; verify checks the recurrence against both DPs.
    print(count_series(args.size)[args.size])
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    p = parse_path(args.path)
    if not args.trace:
        print((phi_inverse if args.inverse else phi)(p).steps)
        return 0
    blocks = trace_blocks(p, inverse=args.inverse)  # checks the input before anything prints
    for i, (component, lines, _) in enumerate(blocks):
        head = f"component {i + 1}: {component}\n" if len(blocks) > 1 else ""
        print(head + lines)  # one print per component, never a copy of the whole trace
    print("".join(image for _, _, image in blocks))
    return 0


def _component_problems(c: str, n: int, q: str | None, back: str | None) -> list[str]:
    """Problems of a class-A component c of size n (``check_size`` passes no other word): its
    image q must be one class-B component of size n, peak-free below ground and one-peaked
    above, and map back to c.  q and back (q's preimage) are made here when None."""
    problems = []
    try:
        q = map_component(c) if q is None else q
        if q.count(UP) + q.count(FLAT) != n:
            return [f"size changed: {c} -> {q}"]
        try:
            q_hs = step_heights(q)
        except InvalidCharacter:
            return [f"image has a step outside U/F/D: {c} -> {q}"]
        if q_hs[-1] != 0 or q_hs.count(0) != 2:
            return [f"component sizes changed: {c} -> {q}"]
        if q.count(PEAK) != (0 if c[0] == DOWN else 1):
            problems.append(f"peak structure wrong: {c} -> {q}")
        if not class_b_word(q, q_hs):  # the inverse map's domain
            return problems + [f"error for {c}: {NotInClass.MESSAGES[True]}"]
        if (map_component(q, True) if back is None else back) != c:
            problems.append(f"inverse roundtrip failed for {c}")
    except Exception as exc:  # a faulty kernel may raise anything; name what is not ours
        kind = "" if isinstance(exc, PathbijError) else f"{type(exc).__name__}: "
        problems.append(f"error for {c}: {kind}{exc}")
    return problems


def _joined_test(words: list[str], n: int, member: Callable[..., bool]) -> list[str] | None:
    """The words that are one component if each is a U/F/D word of size n ending on ground
    and the join is a member (just when each word is, as each keeps its heights); else None."""
    joined, lens = "".join(words), list(map(len, words))
    try:
        hs = step_heights(joined)
    except InvalidCharacter:
        return None
    ends = list(accumulate(lens))
    # A word that ends on ground has as many U as D, so its size is n iff len + #F = 2n.
    sized = all(map(eq, map(add, lens, map(str.count, words, repeat(FLAT))), repeat(2 * n)))
    if any(map(hs.__getitem__, ends)) or not sized or not member(joined, hs):
        return None
    return [w for w, s, e in zip(words, [0, *ends], ends) if s < e and hs.index(0, s + 1) == e]


def _scan(
    name: str, words: Iterable[str], n: int, count: int, member: Callable[..., bool], premises: list
) -> Iterator[str]:
    """Yield the one-component members of a class's size-n words; once they run out, append
    that class's count, sorted and outside messages to premises, each "" if it holds.

    The words are read and tested (``_joined_test``) _SCAN_CHUNK at a time; a chunk that
    fails is re-tested one word at a time, and a word that fails alone is outside.
    """
    words = iter(words)
    length, in_order, outside, last = 0, True, None, None
    while chunk := list(islice(words, _SCAN_CHUNK)):
        length += len(chunk)
        in_order = in_order and (last is None or last < chunk[0])
        in_order = in_order and all(map(lt, chunk, chunk[1:]))
        last = chunk[-1]
        tests = [chunk]  # the loop below also tests the one-word chunks a failing chunk adds
        for part in tests:
            if (ones := _joined_test(part, n, member)) is not None:
                yield from ones
            elif part is chunk:
                tests += ([w] for w in chunk)
            elif outside is None:
                outside = part[0]
    premises.append((
        f"count {name} {count} != enumeration {length}" if count != length else "",
        "" if in_order else f"class {name} enumeration is not strictly sorted",
        "" if outside is None else f"class {name} enumeration holds {outside}, not in {name}_{n}",
    ))


def check_size(
    n: int, count_a: int, count_b: int, failed: list[str], census: bool = False
) -> list[str]:
    """All invariant violations at size n, given its two counts (empty = all good).

    ``verify`` calls it for n = 0, 1, ... with one list ``failed`` per run, to which it
    appends the components that fail here.  Soundness, by induction over the sizes of a
    run: when sizes 0..n all pass, each enumeration is strictly sorted, as long as its
    count and holds only size-n members of its class, and ``cmd_verify`` has checked
    each count against ``count_series`` (derived apart from the step rules the counts
    share with the enumerators), so it is all of A_n (B_n) and |A_n| = |B_n|; each
    indecomposable of size k <= n passed at size k (a failed one, c, fails each larger
    size, which holds c + UD*(n-k)).  As ``map_word`` joins the components' images
    (``map_component`` of each), it maps A_n into B_n with a left inverse, so onto B_n.
    One scan per class (``_scan``) checks those premises; the census is tallied per
    chunk.  The A scan's indecomposables are checked _SCAN_CHUNK at a time, each mapped
    once each way: their images pass ``_joined_test`` with ``class_b_word``, are one
    component each, have a peak just when their words start with U, and map back.  Each
    image must end on ground, so no heights or components leak between them: that is
    exactly the conjunction of ``_component_problems`` over the chunk, which a failing
    chunk goes to one component at a time with the maps made so far (one that raised is
    made again), so no map that returned is made twice.
    """
    problems = [f"smaller components failed: {len(failed)}, first {failed[0]}"] if failed else []
    tally = [0, 0, 0, 0]  # per class: indecomposables, and how many have a peak (A: in the image)
    premises: list[tuple[str, str, str]] = []  # per class: count, sorted and outside messages
    members = _scan("A", class_a_words(n), n, count_a, class_a_word, premises)
    while chunk := list(islice(members, _SCAN_CHUNK)):
        peaks = list(map(str.startswith, chunk, repeat(UP)))  # class-A words start with U or D
        tally[0] += len(chunk)
        tally[1] += sum(peaks)
        images, backs = [], []
        try:
            images += map(map_component, chunk)  # += keeps the images made before a raise
            ones = _joined_test(images, n, class_b_word)
            if ones == images and list(map(str.count, images, repeat(PEAK))) == peaks:
                backs += map(map_component, images, repeat(True))
        except Exception:
            pass  # a map that raised: checked again one by one below
        if backs != chunk:
            for c, q, back in zip_longest(chunk, images, backs):
                if found := _component_problems(c, n, q, back):
                    problems += found
                    failed.append(c)
    members = _scan("B", class_b_words(n), n, count_b, class_b_word, premises)
    while chunk := list(islice(members, _SCAN_CHUNK)):
        tally[2] += len(chunk)
        tally[3] += sum(map(str.__contains__, chunk, repeat(PEAK)))
    problems = [m for pair in zip(*premises) for m in pair if m] + problems  # A, B by premise
    if census and n >= 1:
        c = Census(tally[0] - tally[1], tally[1], tally[2] - tally[3], tally[3])
        if c.below_a != c.nopeak_b or c.above_a != c.onepeak_b:
            problems.append(f"census mismatch: {c}")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    failed: list[str] = []  # the components whose check failed, in this whole run
    ok = True
    r_series = count_series(args.max_size)
    a_series = count_class_a_series(args.max_size)
    b_series = count_class_b_series(args.max_size)
    for n, (r, a, b) in enumerate(zip(r_series, a_series, b_series)):
        problems = [] if r == a == b else [f"recurrence count {r} != DP counts {a} (A), {b} (B)"]
        problems += check_size(n, a, b, failed, args.census)
        status = "OK" if not problems else "FAILED"
        print(f"n={n}: |A|={a} |B|={b} bijection {status}")
        for message in problems:
            print(f"  {message}")
        ok = ok and not problems
    return 0 if ok else 1


def cmd_perms(args: argparse.Namespace) -> int:
    print(count_avoiders(args.n, parse_patterns(args.patterns)))
    return 0


def cmd_oeis(args: argparse.Namespace) -> int:
    bfile = pathlib.Path(args.bfile)
    try:
        text = bfile.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.bfile}: {exc}", file=sys.stderr)
        return 2
    entries = parse_bfile(text)
    # Fail on a range the file cannot cover before paying for the DP.
    check_covered(entries, args.offset, args.max_size + 1, bfile.name)
    series = count_series(args.max_size)  # the same sequence for both classes
    matches = compare_sequence(series, entries, args.offset, bfile.name)
    ok = matches == len(series)
    for lo in range(0, matches, _PRINT_CHUNK):  # one write per chunk, same bytes as per line
        same = map(str, series[lo : min(lo + _PRINT_CHUNK, matches)])  # equal to their entries
        print("\n".join([f"n={i}: computed={v} expected={v} ok" for i, v in enumerate(same, lo)]))
    if not ok:
        got, want = series[matches], entries[args.offset + matches]
        print(f"n={matches}: computed={got} expected={want} MISMATCH")
    print(f"MATCH {matches}/{matches}" if ok else f"MISMATCH at n={matches}")  # n is the size
    return 0 if ok else 1


def cmd_render(args: argparse.Namespace) -> int:
    print(render_ascii(parse_path(args.path)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one verb on argv and return its exit code.

    The parser is built once per process; the verb's handler is looked up by name in this
    module at each call, so a ``cmd_*`` rebound after the first call is the one that runs.
    """
    args = build_parser().parse_args(argv)
    # Exact counts and b-file values run past Python's default 4300-digit int/str limit
    # (count from n = 6860 on).  Lift it for the verb only, so in-process callers keep theirs.
    lift = hasattr(sys, "set_int_max_str_digits")  # absent before 3.10.7, and so is the limit
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return globals()[args.func](args)
    except PathbijError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does).  Point stdout at devnull so
        # the flush at exit raises nothing more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
