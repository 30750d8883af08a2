"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload yield-cliff --seed 1 --seconds 15 --trace 0

Workloads: ``yield-cliff``, ``verify-zone``, ``serve-zipf``,
``explore-grid`` (see ``workloads.py`` and ``workloads.json``). The run
sets the workload up, measures it for ``--seconds`` seconds of whole
rounds, checks every output outside the timed window, and prints a short
report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``
``end_to_end``). ``--trace 1`` splits the budget: half runs untraced, half
with every layer wrapped by the span recorder (``tracing.py``), and it
reports the per-layer metrics (``per_layer``) plus the tracing overhead.
A wrong output makes the command exit 1; a missing program source (no
``src/repro`` next to this directory) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Run, child_env  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3

Metric = Tuple[float, str]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of the values."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_seconds(name: str, seed: int) -> float:
    """Median time of fresh processes from their start until the workload
    is set up.

    Each probe prints ``ready`` when ``setup`` returns and only then tears
    the workload down (for serve-zipf: stops the server), so teardown is
    not timed.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        ) as probe:
            ready = probe.stdout.readline()
            samples.append(time.perf_counter() - t0)
            probe.stdout.read()
        if ready != "ready\n" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed "
                               f"(exit {probe.returncode})")
    return statistics.median(samples)


def work_per_s(run: Run) -> float:
    return statistics.median(work / seconds for seconds, work in run.rounds)


def end_to_end(run: Run, setup_s: float) -> Dict[str, Metric]:
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.program_rss_mb or own_rss, "MB"),
        "work_per_s": (work_per_s(run), "1/s"),
        "op_p50_ms": (percentile(run.latencies, 0.50) * 1e3, "ms"),
        "op_p95_ms": (percentile(run.latencies, 0.95) * 1e3, "ms"),
    }


def _durations(dumps: List[dict], name: str) -> List[float]:
    out = []
    for dump in dumps:
        if name in dump["names"]:
            name_id = dump["names"].index(name)
            out.extend(end - start for nid, start, end, *_ in dump["spans"]
                       if nid == name_id and not math.isnan(end))
    return out


def per_layer(dumps: List[dict], traced: Run, untraced: Run) -> Dict[str, Metric]:
    table = tracing.aggregate(dumps)
    counts = tracing.merged_counts(dumps)
    for key, value in traced.counts.items():
        counts[key] += value

    def calls(name: str) -> Metric:
        return (table.get(name, {}).get("calls", 0), "count")

    def busy(name: str) -> Metric:
        return (table.get(name, {}).get("busy_s", 0.0), "s")

    def self_s(name: str) -> Metric:
        return (table.get(name, {}).get("self_s", 0.0), "s")

    def count(key: str) -> Metric:
        return (counts.get(key, 0), "count")

    def ratio(num: float, den: float, unit: str = "ratio") -> Metric:
        return (num / den if den else 0.0, unit)

    m: Dict[str, Metric] = {}
    for layer in ("elaborate", "compile", "simulate"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
    m["simulate.events"] = count("simulate.events")
    m["simulate.events_per_s"] = ratio(counts["simulate.events"],
                                       busy("simulate")[0], "1/s")
    m["batch.calls"] = calls("batch")
    m["batch.self_s"] = self_s("batch")
    m["batch.lanes"] = count("batch.lanes")
    m["batch.replayed"] = count("batch.replayed")
    m["batch.conformant_share"] = ratio(counts["batch.batched"],
                                        counts["batch.lanes"])
    m["batch.lanes_per_s"] = ratio(counts["batch.batched"],
                                   self_s("batch")[0], "1/s")
    for cause in tracing.DIVERGENCE_CAUSES:
        m[f"batch.divergence.{cause}"] = count(f"batch.divergence.{cause}")
    m["montecarlo.calls"] = calls("montecarlo")
    m["montecarlo.self_s"] = self_s("montecarlo")
    m["translate.calls"] = calls("translate")
    m["translate.busy_s"] = busy("translate")
    m["zone.runs"] = calls("zone")
    m["zone.busy_s"] = busy("zone")
    m["zone.states"] = count("zone.states")
    m["zone.transitions"] = count("zone.transitions")
    m["zone.states_per_s"] = ratio(counts["zone.states"], busy("zone")[0],
                                   "1/s")
    m["zone.truncated"] = count("zone.truncated")
    m["verify.verdicts"] = count("zone.completed")
    m["dbm.canonicalize.calls"] = calls("dbm.canonicalize")
    m["dbm.canonicalize.busy_s"] = busy("dbm.canonicalize")
    m["dbm.includes.calls"] = count("dbm.includes.calls")
    m["dbm.extrapolate.calls"] = count("dbm.extrapolate.calls")
    m["cache.mem.hit_ratio"] = ratio(
        counts["cache.mem.hits"],
        counts["cache.mem.hits"] + counts["cache.mem.misses"])
    m["cache.disk.get.calls"] = calls("cache.disk.get")
    m["cache.disk.get.busy_s"] = busy("cache.disk.get")
    m["cache.disk.hit_ratio"] = ratio(
        counts["cache.disk.hits"],
        counts["cache.disk.hits"] + counts["cache.disk.misses"])
    m["cache.disk.put.calls"] = calls("cache.disk.put")
    m["cache.disk.put.busy_s"] = busy("cache.disk.put")
    m["serialize.circuit_in.calls"] = calls("serialize.circuit_in")
    m["serialize.circuit_in.busy_s"] = busy("serialize.circuit_in")
    m["serialize.result_out.busy_s"] = busy("serialize.result_out")
    m["service.requests"] = calls("service")
    m["service.busy_s"] = busy("service")
    m["service.coalesced"] = count("service.coalesced")
    service = _durations(dumps, "service")
    m["http.overhead_ms"] = (
        (statistics.median(l for l in traced.latencies if l < math.inf)
         - statistics.median(service)) * 1e3 if service else 0.0, "ms")
    m["explore.resolve.calls"] = calls("explore.resolve")
    m["explore.resolve.busy_s"] = busy("explore.resolve")
    m["energy.cost.busy_s"] = busy("energy.cost")
    m["trace.overhead_share"] = (work_per_s(untraced) / work_per_s(traced)
                                 - 1.0, "ratio")
    return m


def layer_table(dumps: List[dict], wall: float) -> List[str]:
    """Markdown rows: calls, busy and self time, self share of the wall."""
    rows = ["| span | calls | busy s | self s | self share |",
            "|---|---:|---:|---:|---:|"]
    table = tracing.aggregate(dumps)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append(f"| {name} | {row['calls']} | {row['busy_s']:.4f} | "
                    f"{row['self_s']:.4f} | {row['self_s'] / wall:.1%} |")
    return rows


def measure(workload, inputs: dict, seconds: float,
            recorder=None) -> Tuple[dict, Run]:
    """Set the workload up, run it, tear it down; the traced run when
    ``recorder`` is given."""
    state = workload.setup(inputs, traced=recorder is not None)
    try:
        return state, workload.run(state, seconds, recorder)
    finally:
        workload.close(state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_probe:
        state = workload.setup(inputs)
        print("ready", flush=True)
        workload.close(state)
        return 0

    if not args.trace:
        setup_s = setup_seconds(workload.name, args.seed)
        checked = [measure(workload, inputs, args.seconds)]
        run = checked[0][1]
        metrics = end_to_end(run, setup_s)
    else:
        checked = [measure(workload, inputs, args.seconds / 2)]
        recorder = tracing.Recorder()
        tracing.install(recorder)
        try:
            checked.append(measure(workload, inputs, args.seconds / 2,
                                   recorder))
        finally:
            recorder.uninstall()
        run = checked[1][1]
        dumps = [recorder.to_jsonable()] + run.dumps
        metrics = per_layer(dumps, run, checked[0][1])
    wall = sum(seconds for seconds, _ in run.rounds)
    attempted = failed = 0
    problems: List[str] = []
    for state, checked_run in checked:
        a, f, p = workload.check(state, checked_run)
        attempted += a
        failed += f
        problems.extend(p)

    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(run.rounds)} round(s) of {len(run.latencies)} x "
          f"{workload.op}, {sum(w for _, w in run.rounds)} {workload.unit} "
          f"in {wall:.2f} s")
    for name, (value, unit) in metrics.items():
        alias = workload.aliases.get(name) if not args.trace else None
        print(f"  {name:<28} {value:>14.6g} {unit}"
              + (f"  ({alias})" if alias else ""))
    if args.trace:
        print("\n".join(layer_table(dumps, wall)))
    for problem in problems[:20]:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
