"""Steadiness evidence: run the benchmark on many seeds and summarise.

Usage, from the repository root::

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/set-a.json
    python3 perfbench/steady.py --trace --seeds 7 --out perfbench/results/layers.md
    python3 perfbench/steady.py --compare A.json B.json --out compare.md

Untraced mode runs every workload once per seed, for ``run_seconds`` of
``BENCHMARK.json``, and writes, per workload and end-to-end
metric, the raw values, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (IQR / median)
next to the metric's bound, as JSON and as a Markdown table beside it.
An existing ``--out`` keeps its other workloads, so two sets can be run
alternately, workload by workload, under the same host conditions.
``--trace`` runs each workload traced on the first seed and writes its
per-layer metrics and layer table as Markdown. ``--compare`` checks that
the medians of a second set are not worse than the first by more than each
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: List[float], bound: float) -> Dict[str, object]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
    }


def compare(first: str, second: str, out: str) -> int:
    """Markdown table: how far each median of ``second`` is from ``first``
    in the metric's worse direction, against the bound; exit 1 if over."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    with open(first) as f:
        a = json.load(f)["workloads"]
    with open(second) as f:
        b = json.load(f)["workloads"]
    lines = [f"Medians of `{os.path.basename(second)}` against "
             f"`{os.path.basename(first)}`; worse = change in the metric's "
             "worse direction as a share of the first median.", "",
             "| workload | metric | first | second | worse | bound | ok |",
             "|---|---|---:|---:|---:|---:|---|"]
    ok_all = True
    for name, rows in a.items():
        for metric, row in rows.items():
            m1, m2 = row["median"], b[name][metric]["median"]
            worse = (m2 - m1) / m1 if better[metric] == "lower" else (m1 - m2) / m1
            ok = worse <= row["bound"]
            ok_all = ok_all and ok
            lines.append(f"| {name} | {metric} | {m1:.5g} | {m2:.5g} | "
                         f"{worse:+.3f} | {row['bound']} | "
                         f"{'yes' if ok else 'NO'} |")
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0 if ok_all else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="SET_JSON",
                        help="compare the medians of two earlier outputs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, out=args.out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    if args.trace:
        lines = [f"# Traced-run layer tables ({seconds} s runs, seed "
                 f"{seeds[0]}, {os.cpu_count()} CPUs)", ""]
        for name in names:
            stdout, result = run_once(name, seeds[0], seconds, trace=True)
            report = stdout.strip().splitlines()[:-1]
            lines += [f"## {name}", "", "```"]
            lines += [line for line in report if not line.startswith("|")]
            lines += ["```", ""]
            lines += [line for line in report if line.startswith("|")]
            lines.append("")
            print(f"{name}: traced, correct={result['correct']}", flush=True)
        with open(args.out, "w") as f:
            f.write("\n".join(lines))
        return 0

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: Dict[str, object] = {"seconds": seconds, "seeds": seeds,
                                  "cpus": os.cpu_count(), "workloads": {}}
    if os.path.exists(args.out):  # add workloads to an earlier set
        with open(args.out) as f:
            summary["workloads"] = json.load(f)["workloads"]
    for name in names:
        values: Dict[str, List[float]] = {m: [] for m in bounds}
        for seed in seeds:
            _stdout, result = run_once(name, seed, seconds, trace=False)
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        rows = {m: summarise(v, bounds[m]) for m, v in values.items()}
        summary["workloads"][name] = rows
        for metric, row in rows.items():
            print(f"{name:<13} {metric:<12} median {row['median']:>12.5g} "
                  f"spread {row['spread']:.3f} (bound {row['bound']})",
                  flush=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    lines = [f"{len(seeds)} runs per workload, seeds {args.seeds}, "
             f"{seconds} s each, {os.cpu_count()} CPUs", "",
             "| workload | metric | median | q1 | q3 | spread | bound |",
             "|---|---|---:|---:|---:|---:|---:|"]
    for name, rows in summary["workloads"].items():
        for metric, row in rows.items():
            lines.append(f"| {name} | {metric} | {row['median']:.5g} | "
                         f"{row['q1']:.5g} | {row['q3']:.5g} | "
                         f"{row['spread']:.3f} | {row['bound']} |")
    with open(os.path.splitext(args.out)[0] + ".md", "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
