#!/usr/bin/env python3
"""Wall time and peak RSS of ``pathbij verify`` in child processes.

Run from the repository root:

    python3 scripts/verify_walls.py --max-size 10 --census --repeats 5

Runs ``python -m pathbij.cli verify --max-size N [--census]`` ``--repeats``
times, one child after another, with the ``src`` directory of this checkout
first on ``PYTHONPATH``; the child's standard output goes to ``os.devnull``
and its standard error passes through.  A child's wall runs from its spawn to
its reaping, and its peak RSS is the ``ru_maxrss`` that ``os.wait4`` returns
for that child alone (kilobytes on Linux).  Prints one line: the run count,
the median wall, the range of walls and the largest peak RSS.  Stops with
exit code 1 at the first child that exits nonzero, so a failing ``verify``
gives no wall.

With ``--tree DIR``, each repeat runs one child of this checkout, then one of
the tree at DIR (e.g. an older commit exported with ``git archive``), so both
are measured in the same stretch of time; it prints one line per tree, each
starting with the tree's directory:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/verify_walls.py --max-size 10 --census --tree /tmp/parent
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one child running argv."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, required=True)
    parser.add_argument("--census", action="store_true")
    parser.add_argument("--repeats", type=int, default=5, help="child runs (default 5)")
    parser.add_argument(
        "--tree", type=pathlib.Path, help="another source tree to alternate runs with"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.tree is not None and not (args.tree / "src" / "pathbij").is_dir():
        parser.error(f"--tree: no src/pathbij in {args.tree}")
    trees = [ROOT] if args.tree is None else [ROOT, args.tree.resolve()]
    verb = ["verify", "--max-size", str(args.max_size)] + ["--census"] * args.census
    child = [sys.executable, "-m", "pathbij.cli", *verb]
    envs = []
    for tree in trees:
        path = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
        envs.append(dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    walls, rss = [[] for _ in trees], [[] for _ in trees]
    for _ in range(args.repeats):
        for k, env in enumerate(envs):
            code, wall, peak = run_child(child, env)
            if code != 0:
                print(f"error: {' '.join(verb)} exited {code}", file=sys.stderr)
                return 1
            walls[k].append(wall)
            rss[k].append(peak)
    for tree, w, r in zip(trees, walls, rss):
        label = f"{tree}: " if args.tree else ""
        print(
            f"{label}{' '.join(verb)}: {len(w)} runs, median {statistics.median(w):.3f} s, "
            f"range {min(w):.3f}-{max(w):.3f} s, peak RSS {max(r):.1f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
