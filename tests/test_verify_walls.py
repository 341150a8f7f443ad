"""``scripts/verify_walls.py``: child-process walls and peak RSS of ``verify``."""

import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "verify_walls.py"


def walls(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=60
    )


def test_verify_walls_reports_median_range_and_peak_rss():
    done = walls("--max-size", "2", "--repeats", "1")
    assert (done.returncode, done.stderr) == (0, "")
    line = re.fullmatch(
        r"verify --max-size 2: 1 runs, median (\S+) s, range (\S+)-(\S+) s, peak RSS (\S+) MB\n",
        done.stdout,
    )
    assert line, done.stdout
    median, low, high, rss = map(float, line.groups())
    assert 0 < low == median == high < 60
    assert rss > 1  # an interpreter's RSS, read from the child alone


def test_verify_walls_fails_when_verify_fails():
    # verify rejects a negative size with a usage error and exit code 2; the child's
    # standard error passes through, and the first failing run ends the script.
    done = walls("--max-size", "-1", "--census", "--repeats", "2")
    assert (done.returncode, done.stdout) == (1, "")
    lines = done.stderr.splitlines()
    assert lines[1:] == [
        "pathbij verify: error: argument --max-size: must be nonnegative, not -1",
        "error: verify --max-size -1 --census exited 2",
    ]


def test_verify_walls_alternates_two_trees():
    # This checkout given as the other tree too: one line per tree, each with its own runs.
    root = SCRIPT.parent.parent
    done = walls("--max-size", "3", "--repeats", "2", "--tree", str(root))
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert re.fullmatch(
            re.escape(f"{root}: verify --max-size 3: 2 runs, median ")
            + r"\S+ s, range \S+-\S+ s, peak RSS \S+ MB",
            line,
        ), line


def test_verify_walls_rejects_a_tree_without_the_package(tmp_path):
    done = walls("--max-size", "1", "--tree", str(tmp_path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(f"error: --tree: no src/pathbij in {tmp_path}\n")
