"""pathbij benchmark: one workload, run in-process through ``pathbij.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

The load is a closed loop with one caller in one thread: each CLI call starts
when the previous one has returned.  A round is one pass over the workload's
fixed list of calls; rounds repeat until ``--seconds`` have passed, and every
call's output is checked.  Set-up (imports, inputs, b-file, warm-up) is
repeated at least SETUP_REPEATS times and for at least SETUP_SECONDS, and
timed on its own.

Timings are calibrated (see ``calibrate.py``): reference kernels measure
the machine's slowdown between operations and every SAMPLE_PERIOD_S seconds
within them, and each stretch of wall time is divided by the slowdown at its
ends, so ``round_s`` and ``setup_s`` read as seconds at the kernels' nominal
speed.  Set-ups and the traced run are measured between operations only.
The uncalibrated medians are printed on a comment line.  One untimed round
runs between set-up and the timed rounds.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it spends half the time untraced and half with spans recorded around every
call into the program's six modules, and reports per-layer metrics.  The
spans are written to ``bench/out/<workload>.spans.tsv.gz``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import statistics
import sys
import time

import calibrate
import workloads
from tracer import Tracer

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5  # set-up runs at least this often,
SETUP_SECONDS = 3.0  # and until this much time has passed
SAMPLE_PERIOD_S = 0.25  # how often the slowdown is measured within an operation
WORKLOADS = tuple(workloads.BUILDERS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def timed_rounds(
    wl, seconds: float, tally, around_op=None, period_s: float | None = None
) -> tuple[list[float], list[float]]:
    """Run whole rounds until ``seconds`` have passed (at least one).

    Returns each round's wall time and its calibrated time.  The machine's
    slowdown is measured between every two operations, and every ``period_s``
    seconds within them if it is set.
    """
    cli = wl.modules["cli"]
    walls, calibrated = [], []
    with calibrate.Clock(period_s) as clock:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall = cal = 0.0
            for op in wl.ops:
                with around_op() if around_op else contextlib.nullcontext():
                    workloads.run_op(cli, op, tally)
                op_wall, op_cal = clock.lap()
                wall += op_wall
                cal += op_cal
            walls.append(wall)
            calibrated.append(cal)
    return walls, calibrated


def layer_metrics(stats: dict, rounds: int, traced_wall: float, overhead: float) -> dict:
    """Per-layer numbers from the span statistics, per round of the workload."""

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def per_call_us(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    def ns_per_step(name: str) -> float:
        work = get(name, "work")
        return get(name, "total_s") / work * 1e9 if work else 0.0

    def total(prefix: str, key: str) -> float:
        return sum(s[key] for name, s in stats.items() if name.startswith(prefix))

    m = {}
    for layer in workloads.LAYERS:
        m[f"{layer}.self_s"] = total(layer + ".", "self_s") / rounds
        m[f"{layer}.calls"] = total(layer + ".", "calls") / rounds
    m["bench.self_s"] = get("bench.op", "self_s") / rounds

    m["bijection.phi_us"] = per_call_us("bijection.phi")
    m["bijection.phi_inverse_us"] = per_call_us("bijection.phi_inverse")
    m["bijection.map_above_us"] = per_call_us("bijection.map_indecomposable_above")
    m["bijection.map_below_us"] = per_call_us("bijection.map_indecomposable_below")
    m["bijection.unmap_us"] = per_call_us("bijection.unmap_indecomposable")
    m["bijection.phi_ns_per_step"] = ns_per_step("bijection.phi")
    m["bijection.phi_inverse_ns_per_step"] = ns_per_step("bijection.phi_inverse")
    m["bijection.trace_ns_per_step"] = ns_per_step("bijection.trace_stages")

    for fn in ("components", "in_class_a", "in_class_b", "peak_apexes"):
        m[f"paths.{fn}_s"] = get(f"paths.{fn}", "total_s") / rounds
    phi_calls = get("bijection.phi", "calls")
    phi_paths = get("bijection.phi", "path_objects")
    m["paths.path_objects_per_phi"] = phi_paths / phi_calls if phi_calls else 0.0

    enumerators = ("families.enumerate_class_a", "families.enumerate_class_b")
    series = ("families.count_class_a_series", "families.count_class_b_series")
    m["families.enumerate_s"] = sum(get(f, "total_s") for f in enumerators) / rounds
    m["families.paths_enumerated"] = sum(get(f, "result") for f in enumerators) / rounds
    m["families.indec_census_s"] = get("families.indec_census", "total_s") / rounds
    m["families.count_series_s"] = sum(get(f, "total_s") for f in series) / rounds
    m["families.count_calls"] = sum(get(f, "calls") for f in series) / rounds

    avoid = "permutations.count_avoiders"
    scanned, avoid_s = get(avoid, "work"), get(avoid, "total_s")
    m["permutations.count_avoiders_s"] = avoid_s / rounds
    m["permutations.perms_per_s"] = scanned / avoid_s if scanned else 0.0
    m["permutations.useful_ratio"] = get(avoid, "result") / scanned if scanned else 0.0

    m["oeis.parse_bfile_s"] = get("oeis.parse_bfile", "total_s") / rounds
    m["oeis.compare_sequence_s"] = get("oeis.compare_sequence", "total_s") / rounds

    attributed = sum(s["self_s"] for s in stats.values())
    m["trace.wall_s"] = traced_wall / rounds
    m["trace.overhead_ratio"] = overhead
    m["trace.attributed_ratio"] = attributed / traced_wall
    return m


def measure(
    workload: str, seed: int, seconds: float, trace: bool, sizes: dict = workloads.FULL
) -> dict:
    """Set up, run the timed section, and return the rounds, the tally and the metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    calibrate.slowdown()  # warm the kernels up
    setup_walls, setup_times = [], []
    with calibrate.Clock() as clock:
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(setup_times) < SETUP_REPEATS or time.perf_counter() < deadline:
            wl = workloads.setup(workload, seed, OUT_DIR, sizes)
            wall, cal = clock.lap()
            setup_walls.append(wall)
            setup_times.append(cal)

    tally = wl.setup_tally
    # One untimed round warms every operation up.  The peak resident set is read
    # after it, because the timer's kernels, run at random points inside the
    # operations, would make the high-water mark of the timed rounds vary.
    timed_rounds(wl, 0, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        walls, rounds = timed_rounds(wl, seconds, tally, period_s=SAMPLE_PERIOD_S)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_s": statistics.median(rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # No timer here: the kernels would run inside the spans.
        untraced = timed_rounds(wl, seconds / 2, tally)[1]
        tracer = Tracer()
        tracer.install(wl.modules)
        try:
            walls, rounds = timed_rounds(wl, seconds / 2, tally, around_op=tracer.operation)
        finally:
            tracer.uninstall()
        overhead = statistics.median(rounds) / statistics.median(untraced)
        metrics = layer_metrics(tracer.analyse(), len(rounds), sum(walls), overhead)
        tracer.write(OUT_DIR / f"{workload}.spans.tsv.gz")
    raw = {
        "round_wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(setup_walls),
    }
    return {"rounds": len(rounds), "tally": tally, "metrics": metrics, "raw": raw}


def report(workload: str, seed: int, result: dict) -> None:
    """Print one line per metric with its unit, then the JSON result as the last line."""
    tally = result["tally"]
    print(
        f"# workload={workload} seed={seed} rounds={result['rounds']} "
        f"attempted={tally.attempted} failed={tally.failed} "
        f"fail_ratio={tally.failed / tally.attempted:.4f}"
    )
    if tally.failed:
        print(f"# first failure: {tally.first_failure}")
    raw = result["raw"]
    print(
        f"# uncalibrated medians: round {raw['round_wall_s']:.6g} s, "
        f"set-up {raw['setup_wall_s']:.6g} s"
    )
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pathbij" / "cli.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'pathbij'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
