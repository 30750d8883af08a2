"""Benchmark regression guard for the simulation core.

Runs the simulator benchmarks (``bench_scaling_bitonic.py``, the
compile-cache comparison in ``bench_compile.py``, the Monte-Carlo sweep
in ``bench_mc_scaling.py``, the vectorized-drain comparison in
``bench_mc_batched.py``, the served warm-vs-cold throughput pair in
``bench_serve.py``, the incremental-lint pair in
``bench_lint_incremental.py``, the explorer sweep pair in
``bench_explore.py``, and the persistent-tier restart pairs in
``bench_disk_cache.py``) via pytest-benchmark, writes the medians
to ``BENCH_sim.json`` at the repository root, and fails (exit code 1) if
the bitonic-8 median regressed more than the tolerance against the
committed baseline, if a repeated ``simulate()`` on a warm compile
cache is no faster than a cold compile+simulate, if the batched
Monte-Carlo drain is less than 5x faster than its per-seed reference
on any recorded design, if the warm (all-hit) serve path is less
than 10x the cold (all-miss) path, if a warm re-lint with PL4xx
reachability enabled is less than 10x a cold one, if a warm
explorer sweep is less than 10x a cold all-miss sweep, or if a fresh
consumer on a warm *disk* store is less than 5x its fully-cold
counterpart for either explore or serve. The measured
Table 2 wall-clock ratio is recorded (``table2_time_ratio``) but never
gates — the machine-independent work-ratio assertion lives in
``tests/test_exp.py``.

Usage, from the repository root::

    PYTHONPATH=src python tools/bench_guard.py            # run + guard
    PYTHONPATH=src python tools/bench_guard.py --update   # accept new baseline
    PYTHONPATH=src python tools/bench_guard.py --tolerance 0.1
    PYTHONPATH=src python tools/bench_guard.py --smoke    # CI: run, don't time

``--smoke`` executes every benchmark body once with timing collection
disabled (``--benchmark-disable``) and touches neither the guard nor
``BENCH_sim.json`` — shared CI runners are far too noisy for median
comparisons, but the benchmarks still exercise the hot paths end to end.

The ``seed`` block in BENCH_sim.json records the pre-optimization medians
and is carried forward verbatim so speedup-vs-seed stays visible across
regenerations.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_sim.json"

#: The benchmark whose median is guarded against regression.
GUARDED = "test_bitonic_scaling[8]"

#: Medians measured on the seed revision (before the fast-path work),
#: kept for the speedup-vs-seed figure when no baseline file exists yet.
SEED_MEDIANS_US = {
    "test_bitonic_scaling[2]": 123.799,
    "test_bitonic_scaling[4]": 495.637,
    "test_bitonic_scaling[8]": 1714.631,
    "test_bitonic_scaling[16]": 6233.377,
}

#: Each group runs in its own pytest invocation: the guarded hot-loop
#: timings must not share a process-pool-thrashed machine state with the
#: Monte-Carlo sweeps that follow. The ``workers=4`` parametrizations
#: skip themselves on single-CPU hosts (see ``NEEDS_MULTI_CPU`` in
#: ``bench_mc_scaling.py``); :func:`mc_comparison` then records the skip
#: explicitly instead of a meaningless ratio.
BENCH_GROUPS = [
    ["benchmarks/bench_scaling_bitonic.py"],
    ["benchmarks/bench_compile.py"],
    ["benchmarks/bench_mc_scaling.py::test_mc_yield_workers"],
    ["benchmarks/bench_mc_scaling.py::test_mc_amortized"],
    ["benchmarks/bench_mc_batched.py"],
    ["benchmarks/bench_serve.py"],
    ["benchmarks/bench_lint_incremental.py"],
    ["benchmarks/bench_explore.py"],
    ["benchmarks/bench_disk_cache.py"],
]

#: Requests per timed round in ``benchmarks/bench_serve.py`` — mirrored
#: here to convert round medians into requests/second. Keep in sync.
SERVE_REQUESTS_PER_ROUND = 25

#: The warm (all-hit) serve path must beat the cold (all-miss) path by at
#: least this factor; anything less means the result cache is not paying
#: for itself.
SERVE_MIN_SPEEDUP = 10.0

#: A warm re-lint with PL4xx reachability enabled (structural-hash cache
#: hit, ``bench_lint_incremental.py``) must beat the cold exploration by
#: at least this factor; anything less means the incremental lint cache
#: is not paying for itself.
LINT_MIN_SPEEDUP = 10.0

#: A warm explorer sweep (every grid point a result-cache hit,
#: ``bench_explore.py``) must beat the cold all-miss sweep by at least
#: this factor; anything less means repeated design-space refinement
#: pays full Monte-Carlo cost every time.
EXPLORE_MIN_SPEEDUP = 10.0

#: A fresh consumer (empty in-memory tiers, the restart scenario) on a
#: pre-populated ``--cache-dir`` must beat the same consumer on an empty
#: store by at least this factor (``bench_disk_cache.py``); anything
#: less means persisting results to disk is not worth a restart's while.
DISK_MIN_SPEEDUP = 5.0

#: (consumer, warm benchmark, cold benchmark) triples recorded in the
#: ``disk_cache`` block; each pair is guarded by ``DISK_MIN_SPEEDUP``.
DISK_CACHE_PAIRS = [
    ("explore", "test_explore_fresh_process_warm_disk",
     "test_explore_fresh_process_cold"),
    ("serve", "test_serve_fresh_process_warm_disk",
     "test_serve_fresh_process_cold"),
]

#: (design, batched benchmark, per-seed benchmark) triples recorded in the
#: ``mc_batched_200_seeds_s`` block; each batched median must beat its
#: per-seed reference by at least ``MC_BATCHED_MIN_SPEEDUP``.
MC_BATCHED_PAIRS = [
    ("minmax", "test_mc_batched[minmax-batched]",
     "test_mc_batched[minmax-perseed]"),
    ("bitonic8", "test_mc_batched[bitonic8-batched]",
     "test_mc_batched[bitonic8-perseed]"),
]
MC_BATCHED_MIN_SPEEDUP = 5.0

#: Recorded in the same block, never ratio-gated: bitonic-8 at sigma 2,
#: past the yield cliff. Most lanes diverge and replay from t=0 on the
#: per-seed drain there, so the batched sweep costs about as much as the
#: reference until diverged lanes stop replaying from scratch.
MC_BATCHED_CLIFF_PAIRS = [
    ("bitonic8_sigma2", "test_mc_batched[bitonic8_sigma2-batched]",
     "test_mc_batched[bitonic8_sigma2-perseed]"),
]


def run_benchmarks(json_path: pathlib.Path | None, targets) -> None:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    extra = (
        [f"--benchmark-json={json_path}"]
        if json_path is not None
        else ["--benchmark-disable"]
    )
    cmd = [sys.executable, "-m", "pytest", "-q", *targets, *extra]
    result = subprocess.run(cmd, cwd=ROOT, env=env)
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {result.returncode})")


def extract_medians(json_path: pathlib.Path) -> dict:
    payload = json.loads(json_path.read_text())
    medians = {}
    for bench in payload["benchmarks"]:
        medians[bench["name"]] = bench["stats"]["median"]
    return medians


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def mc_comparison(medians_s: dict, cpus: int, seq_name: str,
                  par_name: str, committed: dict | None = None) -> dict:
    """Sequential-vs-parallel block for one Monte-Carlo benchmark pair.

    On single-CPU hosts the parallel variant never ran, and a pool can
    only lose there anyway. If the committed baseline recorded a real
    ``workers4`` number (from a multi-CPU run), carry it and its speedup
    forward with an explicit note rather than overwriting them with
    null — regenerating on a 1-CPU box must not erase the only parallel
    measurement the artifact has. Without a committed number, record an
    explicit ``"skipped: 1 CPU"`` marker instead of a ratio that would
    read as a real (and damning) parallel speedup on a machine that
    cannot show one.
    """
    seq = medians_s.get(seq_name)
    par = medians_s.get(par_name)
    block = {
        "workers1": round(seq, 4) if seq else None,
        "workers4": round(par, 4) if par else None,
    }
    if par:
        block["parallel_speedup"] = round(seq / par, 3) if seq else None
        return block
    prior = committed or {}
    if prior.get("workers4") is not None:
        block["workers4"] = prior["workers4"]
        block["parallel_speedup"] = prior.get("parallel_speedup")
        block["note"] = (
            "workers4 carried forward from committed baseline; the "
            "parallel variant did not run on this host"
        )
    elif cpus < 2:
        block["parallel_speedup"] = "skipped: 1 CPU"
    else:
        block["parallel_speedup"] = None
    return block


def mc_batched_block(medians_s: dict) -> dict:
    """Batched-vs-per-seed drain comparison (bench_mc_batched.py)."""
    block = {}
    for design, batched_name, perseed_name in (
        MC_BATCHED_PAIRS + MC_BATCHED_CLIFF_PAIRS
    ):
        batched = medians_s.get(batched_name)
        perseed = medians_s.get(perseed_name)
        block[design] = {
            "batched": round(batched, 4) if batched else None,
            "perseed": round(perseed, 4) if perseed else None,
            "batched_speedup": round(perseed / batched, 3)
            if batched and perseed else None,
        }
    return block


def serve_throughput_block(medians_s: dict) -> dict:
    """Warm-vs-cold served request throughput (bench_serve.py).

    The benchmark times rounds of ``SERVE_REQUESTS_PER_ROUND`` requests,
    so requests/second is the round size over the round median.
    """
    warm = medians_s.get("test_serve_warm")
    cold = medians_s.get("test_serve_cold")
    return {
        "requests_per_round": SERVE_REQUESTS_PER_ROUND,
        "cold_rps": round(SERVE_REQUESTS_PER_ROUND / cold, 2)
        if cold else None,
        "warm_rps": round(SERVE_REQUESTS_PER_ROUND / warm, 2)
        if warm else None,
        "warm_vs_cold": round(cold / warm, 2) if cold and warm else None,
    }


def lint_incremental_block(medians_s: dict) -> dict:
    """Cold-vs-warm incremental reach-lint (bench_lint_incremental.py)."""
    cold = medians_s.get("test_lint_reach_cold")
    warm = medians_s.get("test_lint_reach_warm")
    return {
        "cold_s": round(cold, 4) if cold else None,
        "warm_s": round(warm, 4) if warm else None,
        "warm_vs_cold": round(cold / warm, 2) if cold and warm else None,
    }


def explore_cache_block(medians_s: dict) -> dict:
    """Cold-vs-warm design-space sweep (bench_explore.py)."""
    cold = medians_s.get("test_explore_cold")
    warm = medians_s.get("test_explore_warm")
    return {
        "cold_s": round(cold, 4) if cold else None,
        "warm_s": round(warm, 6) if warm else None,
        "warm_vs_cold": round(cold / warm, 2) if cold and warm else None,
    }


def disk_cache_block(medians_s: dict, committed: dict | None = None) -> dict:
    """Fresh-process warm-disk vs fully-cold pairs (bench_disk_cache.py).

    Like :func:`mc_comparison`, a pair that did not run on this host is
    carried forward verbatim from the committed baseline (with a note)
    rather than overwritten with nulls — regenerating must not erase the
    only persistent-tier measurement the artifact has.
    """
    prior = committed or {}
    block = {}
    for consumer, warm_name, cold_name in DISK_CACHE_PAIRS:
        warm = medians_s.get(warm_name)
        cold = medians_s.get(cold_name)
        if cold and warm:
            block[consumer] = {
                "cold_s": round(cold, 4),
                "warm_disk_s": round(warm, 6),
                "warm_vs_cold": round(cold / warm, 2),
            }
        elif prior.get(consumer, {}).get("warm_vs_cold") is not None:
            block[consumer] = dict(
                prior[consumer],
                note="carried forward from committed baseline; the pair "
                     "did not run on this host",
            )
        else:
            block[consumer] = {
                "cold_s": round(cold, 4) if cold else None,
                "warm_disk_s": round(warm, 6) if warm else None,
                "warm_vs_cold": None,
            }
    return block


def table2_time_ratio_block() -> dict:
    """Measured Table 2 wall-clock ratio (schematic analog vs PyLSE).

    Informational only — the gating assertion on Table 2 lives in
    ``tests/test_exp.py`` on the machine-independent *work* ratio
    (RK4 junction-steps per discrete event). The wall-clock ratio the
    paper reports is still worth tracking, but it depends on host speed
    and scheduler noise, so it is recorded here without a floor and
    never fails the guard.
    """
    from repro.exp import table2

    rows = table2.run(analog_dt=0.2)
    return {
        "analog_dt_ps": 0.2,
        "per_design": {
            row.name: {
                "time_ratio": round(row.time_ratio, 1),
                "work_ratio": round(row.work_ratio, 1),
            }
            for row in rows
        },
        "avg_time_ratio": round(
            sum(row.time_ratio for row in rows) / len(rows), 1
        ),
        "avg_work_ratio": round(
            sum(row.work_ratio for row in rows) / len(rows), 1
        ),
        "gating": False,
    }


def compile_cache_block(medians_us: dict) -> dict:
    """Cold-compile vs warm-repeat-simulate comparison (bench_compile.py)."""
    cold = medians_us.get("test_simulate_cold")
    warm = medians_us.get("test_simulate_warm")
    return {
        "compile_cold_us": round(medians_us["test_compile_cold"], 3)
        if "test_compile_cold" in medians_us else None,
        "simulate_cold_us": round(cold, 3) if cold else None,
        "simulate_warm_us": round(warm, 3) if warm else None,
        "warm_vs_cold_speedup": round(cold / warm, 3)
        if cold and warm else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression of the guarded median "
             "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the new numbers even if the guard fails",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every benchmark once without timing (for CI); "
             "no guard, no BENCH_sim.json write",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        for targets in BENCH_GROUPS:
            run_benchmarks(None, targets)
        print("smoke run complete (timing disabled, baseline untouched)")
        return 0

    baseline = None
    seed_block = dict(SEED_MEDIANS_US)
    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
        baseline = committed.get("medians_us", {}).get(GUARDED)
        seed_block = committed.get("seed_medians_us", seed_block)

    medians_s = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, targets in enumerate(BENCH_GROUPS):
            raw = pathlib.Path(tmp) / f"bench{i}.json"
            run_benchmarks(raw, targets)
            medians_s.update(extract_medians(raw))

    medians_us = {name: value * 1e6 for name, value in medians_s.items()}
    guarded_us = medians_us.get(GUARDED)
    if guarded_us is None:
        raise SystemExit(f"guarded benchmark {GUARDED!r} missing from run")

    cpus = cpu_count()
    doc = {
        "generated_by": "tools/bench_guard.py",
        "guarded": GUARDED,
        "tolerance": args.tolerance,
        "cpus": cpus,
        "seed_medians_us": seed_block,
        "medians_us": {k: round(v, 3) for k, v in medians_us.items()},
        "speedup_vs_seed": {
            name: round(seed_block[name] / medians_us[name], 3)
            for name in seed_block
            if name in medians_us and medians_us[name] > 0
        },
        "compile_cache": compile_cache_block(medians_us),
        "mc_yield_200_seeds_s": mc_comparison(
            medians_s, cpus,
            "test_mc_yield_workers[1]", "test_mc_yield_workers[4]",
            committed=committed.get("mc_yield_200_seeds_s"),
        ),
        "mc_amortized_800_trials_s": mc_comparison(
            medians_s, cpus,
            "test_mc_amortized[1]", "test_mc_amortized[4]",
            committed=committed.get("mc_amortized_800_trials_s"),
        ),
        "mc_batched_200_seeds_s": mc_batched_block(medians_s),
        "serve_throughput": serve_throughput_block(medians_s),
        "lint_incremental": lint_incremental_block(medians_s),
        "explore_cache": explore_cache_block(medians_s),
        "disk_cache": disk_cache_block(
            medians_s, committed=committed.get("disk_cache")
        ),
        "table2_time_ratio": table2_time_ratio_block(),
    }

    failed = False
    if baseline is not None:
        limit = baseline * (1 + args.tolerance)
        print(
            f"{GUARDED}: {guarded_us:.1f} us "
            f"(baseline {baseline:.1f} us, limit {limit:.1f} us)"
        )
        if guarded_us > limit:
            print(
                f"REGRESSION: median exceeds baseline by "
                f"{guarded_us / baseline - 1:.1%} (> {args.tolerance:.0%})",
                file=sys.stderr,
            )
            failed = True
    else:
        print(f"{GUARDED}: {guarded_us:.1f} us (no committed baseline yet)")

    cache = doc["compile_cache"]
    cold, warm = cache["simulate_cold_us"], cache["simulate_warm_us"]
    if cold and warm:
        print(
            f"compile cache: cold {cold:.1f} us vs warm repeat {warm:.1f} us "
            f"({cache['warm_vs_cold_speedup']}x)"
        )
        if warm >= cold:
            print(
                "REGRESSION: warm repeated simulate() is no faster than a "
                "cold compile+simulate — the compile cache is not working",
                file=sys.stderr,
            )
            failed = True

    gated = {design for design, _, _ in MC_BATCHED_PAIRS}
    for design, pair in doc["mc_batched_200_seeds_s"].items():
        speedup = pair["batched_speedup"]
        if speedup is None:
            print(
                f"REGRESSION: mc_batched[{design}] pair incomplete "
                f"(batched={pair['batched']}, perseed={pair['perseed']})",
                file=sys.stderr,
            )
            failed = True
            continue
        print(
            f"mc batched [{design}]: batched {pair['batched']:.4f} s vs "
            f"per-seed {pair['perseed']:.4f} s ({speedup}x"
            f"{'' if design in gated else ', not gated'})"
        )
        if design in gated and speedup < MC_BATCHED_MIN_SPEEDUP:
            print(
                f"REGRESSION: batched Monte-Carlo drain on {design} is only "
                f"{speedup}x the per-seed reference "
                f"(floor {MC_BATCHED_MIN_SPEEDUP}x)",
                file=sys.stderr,
            )
            failed = True

    serve = doc["serve_throughput"]
    speedup = serve["warm_vs_cold"]
    if speedup is None:
        print(
            f"REGRESSION: serve throughput pair incomplete "
            f"(cold={serve['cold_rps']}, warm={serve['warm_rps']})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"serve throughput: warm {serve['warm_rps']:.0f} req/s vs "
            f"cold {serve['cold_rps']:.0f} req/s ({speedup}x)"
        )
        if speedup < SERVE_MIN_SPEEDUP:
            print(
                f"REGRESSION: warm serve path is only {speedup}x the "
                f"cold path (floor {SERVE_MIN_SPEEDUP}x) — the result "
                f"cache is not paying for itself",
                file=sys.stderr,
            )
            failed = True

    lint = doc["lint_incremental"]
    speedup = lint["warm_vs_cold"]
    if speedup is None:
        print(
            f"REGRESSION: lint incremental pair incomplete "
            f"(cold={lint['cold_s']}, warm={lint['warm_s']})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"lint incremental: cold {lint['cold_s']:.3f} s vs "
            f"warm re-lint {lint['warm_s']:.4f} s ({speedup}x)"
        )
        if speedup < LINT_MIN_SPEEDUP:
            print(
                f"REGRESSION: warm re-lint is only {speedup}x the cold "
                f"reach analysis (floor {LINT_MIN_SPEEDUP}x) — the "
                f"incremental lint cache is not paying for itself",
                file=sys.stderr,
            )
            failed = True

    explore = doc["explore_cache"]
    speedup = explore["warm_vs_cold"]
    if speedup is None:
        print(
            f"REGRESSION: explore cache pair incomplete "
            f"(cold={explore['cold_s']}, warm={explore['warm_s']})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"explore cache: cold sweep {explore['cold_s']:.3f} s vs "
            f"warm sweep {explore['warm_s']:.5f} s ({speedup}x)"
        )
        if speedup < EXPLORE_MIN_SPEEDUP:
            print(
                f"REGRESSION: warm explorer sweep is only {speedup}x the "
                f"cold sweep (floor {EXPLORE_MIN_SPEEDUP}x) — the result "
                f"cache is not paying for itself",
                file=sys.stderr,
            )
            failed = True

    for consumer, pair in doc["disk_cache"].items():
        speedup = pair["warm_vs_cold"]
        if speedup is None:
            print(
                f"REGRESSION: disk_cache[{consumer}] pair incomplete "
                f"(cold={pair['cold_s']}, warm={pair['warm_disk_s']})",
                file=sys.stderr,
            )
            failed = True
            continue
        carried = " (carried forward)" if "note" in pair else ""
        print(
            f"disk cache [{consumer}]: cold {pair['cold_s']:.3f} s vs "
            f"fresh-process warm disk {pair['warm_disk_s']:.5f} s "
            f"({speedup}x{carried})"
        )
        if speedup < DISK_MIN_SPEEDUP:
            print(
                f"REGRESSION: a fresh {consumer} consumer on a warm disk "
                f"store is only {speedup}x its fully-cold counterpart "
                f"(floor {DISK_MIN_SPEEDUP}x) — the persistent tier is "
                f"not paying for itself",
                file=sys.stderr,
            )
            failed = True

    # Informational, never gates (see table2_time_ratio_block).
    ratios = doc["table2_time_ratio"]
    print(
        f"table2 measured ratios (non-gating): wall-clock "
        f"{ratios['avg_time_ratio']}x, work {ratios['avg_work_ratio']}x"
    )

    if not failed or args.update:
        BENCH_FILE.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {BENCH_FILE}")

    return 1 if failed and not args.update else 0


if __name__ == "__main__":
    sys.exit(main())
