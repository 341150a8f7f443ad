"""Workloads: inputs built from a seed, CLI operations, and the checks on their output.

Every operation is one call of ``pathbij.cli.main`` with an argument list, as
a user would type it.  Each check compares the captured output with a value
the benchmark derives without the code under test: the counts come from an
order-3 recurrence and the path checks are plain string scans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pathlib
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import longpaths

LAYERS = ("cli", "bijection", "paths", "families", "permutations", "oeis")

# Sizes per workload.  FULL is what the benchmark runs; TINY keeps the tests fast.
FULL = {
    "exhaustive": {"max_size": 7, "warmup_size": 4},
    "long-paths": {"paths": 4, "steps": 100_000, "components": 1000},
    "oracles": {"count_size": 500, "oeis_size": 300, "perms_max": 8},
}
TINY = {
    "exhaustive": {"max_size": 3, "warmup_size": 2},
    "long-paths": {"paths": 2, "steps": 400, "components": 8},
    "oracles": {"count_size": 20, "oeis_size": 12, "perms_max": 5},
}


def reference_terms(n_max: int) -> list[int]:
    """|A_n| = |B_n| for n = 0..n_max from the guessed order-3 recurrence.

    (n^2+7n+6) a(n) = -(18-50n-8n^2) a(n-1) - (-174+81n+15n^2) a(n-2)
                      - (-42+22n+4n^2) a(n-3), with a(0..3) = 1, 2, 6, 21.
    It shares no code with the program's dynamic-programming counters.
    """
    a = [1, 2, 6, 21]
    for n in range(4, n_max + 1):
        num = -(
            (18 - 50 * n - 8 * n * n) * a[n - 1]
            + (-174 + 81 * n + 15 * n * n) * a[n - 2]
            + (-42 + 22 * n + 4 * n * n) * a[n - 3]
        )
        den = n * n + 7 * n + 6
        if num % den:
            raise ArithmeticError(f"recurrence does not divide exactly at n={n}")
        a.append(num // den)
    return a[: n_max + 1]


def component_sizes(steps: str) -> list[int] | None:
    """Sizes (upsteps + flatsteps) of the components; None if the path ends off ground."""
    sizes = []
    height = size = 0
    for c in steps:
        if c == "U":
            height += 1
            size += 1
        elif c == "D":
            height -= 1
        else:
            size += 1
        if height == 0:
            sizes.append(size)
            size = 0
    return sizes if height == 0 else None


def is_class_b(steps: str) -> bool:
    """Never below ground, ends on ground, at most one peak per component."""
    height = peaks = 0
    for i, c in enumerate(steps):
        if c == "U":
            height += 1
        elif c == "D":
            height -= 1
            if height < 0:
                return False
            if i and steps[i - 1] == "U":
                peaks += 1
                if peaks > 1:
                    return False
        if height == 0:
            peaks = 0
    return height == 0


@dataclass(frozen=True)
class Op:
    """One CLI call and the check its exit code and standard output must pass."""

    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


@dataclass
class Tally:
    """Operations attempted and failed; a failure is a wrong answer, a nonzero exit or a crash."""

    attempted: int = 0
    failed: int = 0
    first_failure: str = ""

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or what


@dataclass
class Workload:
    """The program's modules, the timed operations, and the checks made during set-up."""

    modules: dict
    ops: list[Op]
    setup_tally: Tally = field(default_factory=Tally)


def call(cli, argv: tuple[str, ...]) -> tuple[int | None, str, str]:
    """Run ``cli.main(argv)`` in-process; the exit code is None when it raised."""
    out, err = io.StringIO(), io.StringIO()
    rc: int | None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def run_op(cli, op: Op, tally: Tally) -> None:
    """Run one operation and record whether its check passed."""
    rc, out, err = call(cli, op.argv)
    ok = rc is not None and op.check(rc, out)
    shown = " ".join(a if len(a) <= 40 else a[:40] + "..." for a in op.argv)
    tally.record(ok, f"{shown} -> exit {rc} {err.strip()[:200]}")


def import_fresh() -> dict:
    """Import the program's six modules anew, so that set-up pays for the imports."""
    for name in [m for m in sys.modules if m == "pathbij" or m.startswith("pathbij.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"pathbij.{layer}") for layer in LAYERS}


def _exhaustive(mods, seed: int, out_dir: pathlib.Path, cfg: dict) -> Workload:
    def verify(n: int) -> Op:
        expected = "".join(
            f"n={k}: |A|={a} |B|={a} bijection OK\n" for k, a in enumerate(reference_terms(n))
        )
        return Op(("verify", "--max-size", str(n), "--census"), _equals(expected))

    run_op(mods["cli"], verify(cfg["warmup_size"]), Tally())
    return Workload(mods, [verify(cfg["max_size"])])


def _long_paths(mods, seed: int, out_dir: pathlib.Path, cfg: dict) -> Workload:
    cli, paths_mod = mods["cli"], mods["paths"]
    tally = Tally()
    ops = []
    for p in longpaths.generate(seed, cfg["paths"], cfg["steps"], cfg["components"]):
        tally.record(paths_mod.in_class_a(paths_mod.Path(p)), "generated path is not in class A")
        # Warm-up maps every input once; map(P) is then the expected value below.
        rc, out, _ = call(cli, ("map", "--path", p))
        q = out.rstrip("\n") if rc == 0 else ""
        sane = is_class_b(q) and component_sizes(q) == component_sizes(p)
        tally.record(sane, "map output is not a class-B path with the input's component sizes")
        ops.append(Op(("map", "--path", p), _equals(q + "\n", sane)))
        ops.append(Op(("unmap", "--path", q), _equals(p + "\n")))
        ops.append(Op(("map", "--path", p, "--trace"), _trace_check(q, sane)))
    return Workload(mods, ops, tally)


def _equals(text: str, sane: bool = True) -> Callable[[int, str], bool]:
    """Exit code 0 and exactly ``text`` on standard output."""
    return lambda rc, out: sane and rc == 0 and out == text


def _trace_check(q: str, sane: bool) -> Callable[[int, str], bool]:
    """The last line is map(P), and the ``output:`` stage lines concatenate to it."""

    def check(rc: int, out: str) -> bool:
        lines = out.splitlines()
        outputs = "".join(line[len("output: ") :] for line in lines if line.startswith("output: "))
        return sane and rc == 0 and bool(lines) and lines[-1] == q and outputs == q

    return check


def _oracles(mods, seed: int, out_dir: pathlib.Path, cfg: dict) -> Workload:
    rng = random.Random(seed)
    n, m, k = cfg["count_size"], cfg["oeis_size"], cfg["perms_max"]
    terms = reference_terms(max(n, m, k))
    # The b-file starts at a seed-chosen index, passed back through --offset.
    offset = rng.randint(0, 4)
    bfile = out_dir / "oracles.b.txt"
    bfile.write_text(
        "# |A_n| = |B_n| from the order-3 recurrence\n"
        + "".join(f"{offset + i} {a}\n" for i, a in enumerate(terms)),
        encoding="utf-8",
    )

    def oeis(cls: str, size: int) -> Op:
        report = "".join(
            f"n={i}: computed={a} expected={a} ok\n" for i, a in enumerate(terms[: size + 1])
        )
        report += f"MATCH {size + 1}/{size + 1}\n"
        argv = ("oeis", "--bfile", str(bfile), "--class", cls, "--max-size", str(size))
        return Op(argv + ("--offset", str(offset)), _equals(report))

    def ops(count_size: int, oeis_size: int, perms_max: int) -> list[Op]:
        count = f"{terms[count_size]}\n"
        out = [
            Op(("count", "--class", c, "--size", str(count_size)), _equals(count))
            for c in "AB"
        ]
        out += [oeis(c, oeis_size) for c in "AB"]
        # Permutations of [j] avoiding 3241, 3421, 4321 are counted by a(j-1).
        for j in range(1, perms_max + 1):
            out.append(Op(("perms", "--n", str(j)), _equals(f"{terms[j - 1]}\n")))
        return out

    for op in ops(min(n, 20), min(m, 10), min(k, 5)):
        run_op(mods["cli"], op, Tally())
    timed = ops(n, m, k)
    rng.shuffle(timed)
    return Workload(mods, timed)


BUILDERS = {"exhaustive": _exhaustive, "long-paths": _long_paths, "oracles": _oracles}


def setup(name: str, seed: int, out_dir: pathlib.Path, sizes: dict = FULL) -> Workload:
    """Import the program, build the workload's inputs from ``seed``, and warm up."""
    return BUILDERS[name](import_fresh(), seed, out_dir, sizes[name])
