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
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    verb = ["verify", "--max-size", str(args.max_size)] + ["--census"] * args.census
    child = [sys.executable, "-m", "pathbij.cli", *verb]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    walls, rss = [], []
    for _ in range(args.repeats):
        code, wall, peak = run_child(child, env)
        if code != 0:
            print(f"error: {' '.join(verb)} exited {code}", file=sys.stderr)
            return 1
        walls.append(wall)
        rss.append(peak)
    print(
        f"{' '.join(verb)}: {len(walls)} runs, median {statistics.median(walls):.3f} s, "
        f"range {min(walls):.3f}-{max(walls):.3f} s, peak RSS {max(rss):.1f} MB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
