"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import longpaths  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def _run_tiny(capsys, workload: str, trace: bool) -> tuple[dict, str]:
    result = run.measure(workload, 7, 0, trace, workloads.TINY)
    run.report(workload, 7, result)
    text = capsys.readouterr().out
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    result, text = _run_tiny(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    lines = text.splitlines()
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        name, unit = m["name"], m["unit"]
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_attributes_the_traced_wall_and_restores_the_program(capsys, workload):
    metrics = {k: v["value"] for k, v in _run_tiny(capsys, workload, True)[0]["metrics"].items()}
    # Layer self times plus the benchmark's own time make up the traced wall.
    assert 0.95 < metrics["trace.attributed_ratio"] <= 1.0
    if workload == "oracles":
        assert metrics["bijection.calls"] == 0
    else:
        assert metrics["bijection.calls"] > 0
    cli = sys.modules["pathbij.cli"]
    assert not hasattr(cli.phi, "__wrapped__") and not hasattr(cli.main, "__wrapped__")
    assert sys.modules["pathbij.paths"].Path.__post_init__.__name__ == "__post_init__"


def test_clock_leaves_the_kernels_out_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Clock(0.05) as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall, cal = clock.lap()
    # The timer ran the kernels several times inside the loop; their time is left out.
    assert 0.1 < wall < 0.48
    assert cal > 0
    assert signal.getsignal(signal.SIGALRM) is previous


def test_long_paths_same_seed_same_inputs_all_in_class_a():
    from pathbij.paths import Path, components, in_class_a

    first = longpaths.generate(5, 3, 3000, 40)
    assert first == longpaths.generate(5, 3, 3000, 40)
    assert first != longpaths.generate(6, 3, 3000, 40)
    for steps in first:
        p = Path(steps)
        assert len(steps) == 3000 and in_class_a(p)
        parts = components(p).parts
        assert len(parts) == 40
        assert {c.path.steps[0] for c in parts} == {"U", "D"}


def test_injected_wrong_reference_term_counts_as_failed(capsys, monkeypatch):
    honest = workloads.reference_terms

    def wrong(n_max):
        terms = honest(n_max)
        terms[workloads.TINY["oracles"]["count_size"]] += 1
        return terms

    monkeypatch.setattr(workloads, "reference_terms", wrong)
    result, text = _run_tiny(capsys, "oracles", False)
    assert not result["correct"]
    # count --class A and --class B, in the untimed warm-up round and in the one timed round
    assert result["failed"] == 4
    assert "fail_ratio=" in text and "# first failure: count" in text


def test_reference_terms_match_both_counters():
    from pathbij.families import count_class_a_series, count_class_b_series

    terms = workloads.reference_terms(60)
    assert terms == count_class_a_series(60) == count_class_b_series(60)


def test_string_checks_agree_with_the_path_algebra():
    from pathbij.paths import Path, components, in_class_b

    for length in range(8):
        for word in map("".join, itertools.product("UFD", repeat=length)):
            p = Path(word)
            assert workloads.is_class_b(word) == in_class_b(p)
            sizes = workloads.component_sizes(word)
            if p.end_height != 0:
                assert sizes is None
            else:
                assert sizes == [c.path.size for c in components(p).parts]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracles", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
