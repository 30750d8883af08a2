"""The benchmark's four workloads.

Each workload turns a seed into fixed inputs (:meth:`inputs`), prepares
them (:meth:`setup`: imports, elaboration, baselines), runs them for a time
budget (:meth:`run`) and checks the outputs afterwards (:meth:`check`).
The program is driven only through its public entry points:
``yield_curve``, ``verify_design``, ``python -m repro serve`` over HTTP and
``ExploreEngine.sweep``. ``tiny=True`` shrinks every workload to a size
the benchmark's own tests can afford.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Temporary space of the serve workload: one directory per server (cache
#: directory, span dump), removed when that server stops.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


@dataclass
class Run:
    """What one measured run of a workload produced."""

    #: (seconds, work units) per round; serve-zipf has one "round".
    rounds: List[Tuple[float, int]] = field(default_factory=list)
    #: operation latencies in seconds: every request of serve-zipf (inf
    #: for a failed one); for round-based workloads, each operation's
    #: median over the rounds, so one slow round moves no percentile.
    latencies: List[float] = field(default_factory=list)
    #: the outputs :meth:`Workload.check` inspects.
    outputs: List[object] = field(default_factory=list)
    #: span dumps of other processes (the traced server).
    dumps: List[dict] = field(default_factory=list)
    #: counters read from the program's own stats.
    counts: Dict[str, float] = field(default_factory=dict)
    #: peak RSS (MB) of the process running the program, when it is
    #: not the benchmark process.
    program_rss_mb: Optional[float] = None


def _op_span(rec):
    return rec.span("op") if rec is not None else contextlib.nullcontext()


def measure_rounds(run_round: Callable[[], Tuple[List[float], int, object]],
                   seconds: float) -> Run:
    """Repeat whole rounds until ``seconds`` have elapsed (at least one).

    Every round runs the same operations in the same order, so the k-th
    latency of each round belongs to the same operation.
    """
    run = Run()
    per_round = []
    started = time.perf_counter()
    while not run.rounds or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        latencies, work, output = run_round()
        run.rounds.append((time.perf_counter() - t0, work))
        per_round.append(latencies)
        run.outputs.append(output)
    run.latencies = [statistics.median(op) for op in zip(*per_round)]
    return run


def _baseline_predicate(factory):
    from repro.core.simulation import Simulation
    from repro.exp.registry import PulseCountPredicate

    return PulseCountPredicate(Simulation(factory()).simulate())


# ----------------------------------------------------------------------
# yield-cliff
# ----------------------------------------------------------------------
class YieldCliff:
    name = "yield-cliff"
    unit = "seeds"
    op = "yield_curve call"
    aliases = {"work_per_s": "yield.seeds_per_s"}
    designs = ("Bitonic Sort 8", "Adder (Sync)")
    sigmas = (0.5, 1.0, 2.0, 4.0)

    def inputs(self, seed: int, tiny: bool = False) -> dict:
        rng = random.Random(seed)
        n_seeds = 8 if tiny else 100
        seed0 = rng.randrange(1_000_000)
        seeds = list(range(seed0, seed0 + n_seeds))
        # Seeds compared against the per-seed (batch=0) reference drain.
        sample = {
            f"{design}@{sigma}": sorted(rng.sample(seeds, 4))
            for design in self.designs for sigma in self.sigmas
        }
        return {"designs": list(self.designs), "sigmas": list(self.sigmas),
                "seeds": seeds, "sample": sample}

    def setup(self, inputs: dict, traced: bool = False) -> dict:
        from repro.exp.registry import RegistryFactory

        factories = {name: RegistryFactory(name) for name in inputs["designs"]}
        predicates = {name: _baseline_predicate(f)
                      for name, f in factories.items()}
        return {"inputs": inputs, "factories": factories,
                "predicates": predicates}

    def run(self, state: dict, seconds: float, rec=None) -> Run:
        from repro.core.montecarlo import yield_curve

        inputs = state["inputs"]

        def one_round():
            latencies, curves = [], {}
            for name in inputs["designs"]:
                with _op_span(rec):
                    t0 = time.perf_counter()
                    curves[name] = yield_curve(
                        state["factories"][name], state["predicates"][name],
                        inputs["sigmas"], seeds=inputs["seeds"],
                    )
                    latencies.append(time.perf_counter() - t0)
            work = len(inputs["designs"]) * len(inputs["sigmas"]) * len(
                inputs["seeds"])
            return latencies, work, curves

        return measure_rounds(one_round, seconds)

    def check(self, state: dict, run: Run) -> Tuple[int, int, List[str]]:
        from repro.core.montecarlo import measure_yield

        inputs = state["inputs"]
        problems: List[str] = []
        reference = run.outputs[0]
        expected_outcomes = {}
        for name in inputs["designs"]:
            for sigma, point in zip(inputs["sigmas"], reference[name]):
                sample = inputs["sample"][f"{name}@{sigma}"]
                ref = measure_yield(
                    state["factories"][name], state["predicates"][name],
                    sigma, seeds=sample, batch=0,
                )
                expected_outcomes[(name, sigma)] = {
                    s: ref.failures.get(s, "ok") for s in sample
                }
        attempted = failed = 0
        for curves in run.outputs:
            for name in inputs["designs"]:
                attempted += 1
                wrong = []
                for sigma, point, ref_point in zip(
                    inputs["sigmas"], curves[name], reference[name]
                ):
                    if (point.passed + point.mis_behaved + point.violations
                            != point.runs or point.runs != len(inputs["seeds"])):
                        wrong.append(f"sigma={sigma}: tally does not add up")
                    if point != ref_point:
                        wrong.append(f"sigma={sigma}: differs between rounds")
                    for s, outcome in expected_outcomes[(name, sigma)].items():
                        if point.failures.get(s, "ok") != outcome:
                            wrong.append(
                                f"sigma={sigma} seed={s}: batched outcome "
                                f"{point.failures.get(s, 'ok')!r} != "
                                f"reference {outcome!r}"
                            )
                if wrong:
                    failed += 1
                    problems.extend(f"{name}: {w}" for w in wrong)
        return attempted, failed, problems

    def close(self, state: dict) -> None:
        pass


# ----------------------------------------------------------------------
# verify-zone
# ----------------------------------------------------------------------
#: Table 3 designs and their ``max_states`` caps (None: run to a verdict).
VERIFY_CAPS: Dict[str, Optional[int]] = {
    "Min-Max": None,
    "Adder (xSFQ)": None,
    "Race Tree": 40,
    "Bitonic Sort 4": 10,
    "Adder (Sync)": 15,
    "Bitonic Sort 8": 1,
}
VERIFY_CAPS_TINY: Dict[str, Optional[int]] = {
    "Race Tree": 4,
    "Bitonic Sort 4": 2,
}
#: The committed outcomes at the full-size caps: a verdict with its
#: violation set for designs that complete, and for every design the
#: states explored and transitions fired, so a pruning change that skips
#: states (or explores extra ones) fails the check.
VERIFY_EXPECTED: Dict[str, dict] = {
    "Min-Max": {"satisfied": True, "violations": [], "states": 395,
                "transitions": 946},
    "Adder (xSFQ)": {"satisfied": True, "violations": [], "states": 114,
                     "transitions": 221},
    "Race Tree": {"states": 41, "transitions": 63},
    "Bitonic Sort 4": {"states": 10, "transitions": 9},
    "Adder (Sync)": {"states": 15, "transitions": 20},
    "Bitonic Sort 8": {"states": 1, "transitions": 0},
}


class VerifyZone:
    name = "verify-zone"
    unit = "designs"
    op = "verify_design call"
    aliases = {"work_per_s": "designs / verify.suite_s"}

    def inputs(self, seed: int, tiny: bool = False) -> dict:
        # The paper's fixed designs: the seed is unused.
        caps = VERIFY_CAPS_TINY if tiny else VERIFY_CAPS
        return {"caps": dict(caps)}

    def setup(self, inputs: dict, traced: bool = False) -> dict:
        from repro.exp.registry import build_in_fresh_circuit, registry

        entries = {e.name: e for e in registry() if e.name in inputs["caps"]}
        for entry in entries.values():
            build_in_fresh_circuit(entry)
        return {"inputs": inputs, "entries": entries}

    def run(self, state: dict, seconds: float, rec=None) -> Run:
        from repro.exp.registry import build_in_fresh_circuit
        from repro.mc.check import verify_design

        caps = state["inputs"]["caps"]

        def one_round():
            latencies, reports = [], {}
            for name, cap in caps.items():
                with _op_span(rec):
                    t0 = time.perf_counter()
                    circuit = build_in_fresh_circuit(state["entries"][name])
                    report = verify_design(circuit, max_states=cap)
                    latencies.append(time.perf_counter() - t0)
                result = report.result
                reports[name] = {
                    "completed": result.completed,
                    "satisfied": report.ok,
                    "violations": sorted(
                        [v.query, v.automaton, v.location]
                        for v in result.violations
                    ),
                    "truncation_reason": result.truncation_reason,
                    "states": result.states_explored,
                    "transitions": result.transitions_fired,
                }
            return latencies, len(caps), reports

        return measure_rounds(one_round, seconds)

    def check(self, state: dict, run: Run) -> Tuple[int, int, List[str]]:
        caps = state["inputs"]["caps"]
        attempted = failed = 0
        problems: List[str] = []
        for reports in run.outputs:
            for name, got in reports.items():
                attempted += 1
                cap = caps[name]
                want = VERIFY_EXPECTED[name]
                if cap is None:
                    ok = (got["completed"]
                          and got["satisfied"] == want["satisfied"]
                          and got["violations"] == want["violations"])
                else:
                    ok = (not got["completed"]
                          and got["truncation_reason"] == "max_states"
                          and got["states"] >= cap)
                if cap == VERIFY_CAPS[name]:  # full size: counts committed
                    ok = ok and (got["states"], got["transitions"]) == (
                        want["states"], want["transitions"])
                if not ok:
                    failed += 1
                    problems.append(f"{name}: unexpected outcome {got}")
        return attempted, failed, problems

    def close(self, state: dict) -> None:
        pass


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
#: Request designs in zipf rank order: registry names, and the same
#: registry designs submitted as ``repro-circuit-v1`` documents.
SERVE_DESIGNS: Tuple[Tuple[str, str], ...] = (
    ("design", "Min-Max"),
    ("design", "Race Tree"),
    ("design", "Bitonic Sort 8"),
    ("circuit", "Bitonic Sort 8"),
    ("design", "Adder (xSFQ)"),
    ("circuit", "Min-Max"),
    ("design", "Bitonic Sort 4"),
    ("circuit", "Bitonic Sort 4"),
    ("design", "Adder (Sync)"),
)
SERVE_SIGMAS = (0.5, 1.0, 2.0)
SERVE_N_SEEDS = (8, 32)
#: Result-cache entries in the server's memory tier: below the 36
#: distinct (design, sigma, n_seeds) results, so the disk tier is used.
SERVE_CACHE_SIZE = 12
# The client keeps one connection. With two, half the requests also
# waited for the other connection's request under the server's compute
# lock and GIL; on a 2-CPU host that queueing made p95 latency spread
# about three times as much between runs, at the same throughput.
SERVE_SEQUENCE = 40_000
SERVE_CHECKED = 6


def _zipf_weights(n: int) -> List[float]:
    return [1.0 / rank for rank in range(1, n + 1)]


def _get_json(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as response:
        return json.loads(response.read())


def _vm_hwm_mb(pid: int) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Server:
    """A ``python -m repro serve`` process with a fresh cache directory.

    The traced variant starts the same CLI through ``serve_traced.py``,
    which installs the span recorder first and dumps the spans on exit.
    """

    def __init__(self, cache_size: int, traced: bool):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT)
        self.spans_path = os.path.join(self.tmp, "spans.json")
        serve_args = ["serve", "--port", "0", "--workers", "1",
                      "--cache-size", str(cache_size),
                      "--cache-dir", os.path.join(self.tmp, "cache")]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    self.spans_path] + serve_args
        else:
            argv = [sys.executable, "-m", "repro"] + serve_args
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True,
        )
        self.port = None
        try:
            for line in self.proc.stdout:
                if line.startswith("serving yield analysis on http://"):
                    self.port = int(line.split()[4].rsplit(":", 1)[1])
                    break
            if self.port is None:
                raise RuntimeError("server exited before listening")
            deadline = time.monotonic() + 60
            while True:
                try:
                    if _get_json(self.port, "/healthz")["status"] == "ok":
                        break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
        except BaseException:
            self.stop()
            raise

    def stats(self) -> dict:
        return _get_json(self.port, "/stats")

    def peak_rss_mb(self) -> Optional[float]:
        return _vm_hwm_mb(self.proc.pid)

    def stop(self) -> Optional[dict]:
        """Interrupt the server, wait for it, return its span dump if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        dump = None
        if os.path.exists(self.spans_path):
            with open(self.spans_path) as f:
                dump = json.load(f)
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another server may still use it
            os.rmdir(TMP_ROOT)
        return dump


class ServeZipf:
    name = "serve-zipf"
    unit = "requests"
    op = "POST /yield request"
    aliases = {"work_per_s": "serve.rps", "op_p50_ms": "serve.latency_p50_ms",
               "op_p95_ms": "serve.latency_p95_ms",
               "peak_rss_mb": "of the server process"}

    def inputs(self, seed: int, tiny: bool = False) -> dict:
        rng = random.Random(seed)
        shapes = [
            (kind, design, sigma, n_seeds)
            for kind, design in SERVE_DESIGNS
            for sigma in SERVE_SIGMAS
            for n_seeds in SERVE_N_SEEDS
        ]
        weights = [
            wd * ws * wn
            for wd in _zipf_weights(len(SERVE_DESIGNS))
            for ws in _zipf_weights(len(SERVE_SIGMAS))
            for wn in _zipf_weights(len(SERVE_N_SEEDS))
        ]
        length = 2_000 if tiny else SERVE_SEQUENCE
        sequence = rng.choices(range(len(shapes)), weights, k=length)
        return {"shapes": shapes, "sequence": sequence,
                "check_rng": rng.randrange(1 << 30)}

    def setup(self, inputs: dict, traced: bool = False) -> dict:
        from repro.core.serialize import circuit_to_json
        from repro.exp.registry import build_in_fresh_circuit, registry

        entries = {e.name: e for e in registry()}
        circuits = {
            design: circuit_to_json(build_in_fresh_circuit(entries[design]),
                                    indent=None)
            for kind, design in SERVE_DESIGNS if kind == "circuit"
        }
        bodies = []
        for kind, design, sigma, n_seeds in inputs["shapes"]:
            payload = {"sigma": sigma, "n_seeds": n_seeds, "seed0": 0}
            if kind == "design":
                payload["design"] = design
            else:
                payload["circuit"] = json.loads(circuits[design])
            bodies.append(json.dumps(payload, sort_keys=True))
        server = Server(SERVE_CACHE_SIZE, traced)
        return {"inputs": inputs, "circuits": circuits, "bodies": bodies,
                "server": server}

    def run(self, state: dict, seconds: float, rec=None) -> Run:
        server: Server = state["server"]
        before = server.stats()
        spec = {
            "port": server.port,
            "bodies": state["bodies"],
            "sequence": state["inputs"]["sequence"],
            "seconds": seconds,
        }
        client = subprocess.run(
            [sys.executable, os.path.join(HERE, "client.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, timeout=seconds + 120, check=True,
        )
        result = json.loads(client.stdout)
        after = server.stats()
        run = Run()
        run.rounds.append((result["elapsed"], sum(
            1 for _shape, _latency, status in result["requests"]
            if status == 200)))
        run.latencies = [
            latency if status == 200 else float("inf")
            for _shape, latency, status in result["requests"]
        ]
        run.outputs.append(result)
        run.program_rss_mb = server.peak_rss_mb()
        run.counts = _serve_counts(before, after)
        dump = server.stop()
        state["server"] = None
        if dump is not None:
            run.dumps.append(dump)
        return run

    def check(self, state: dict, run: Run) -> Tuple[int, int, List[str]]:
        from repro.core.montecarlo import measure_yield
        from repro.core.serialize import (
            SerializedCircuitFactory,
            yield_result_to_jsonable,
        )
        from repro.exp.registry import RegistryFactory

        shapes = state["inputs"]["shapes"]
        result = run.outputs[0]
        attempted = len(result["requests"])
        failed = sum(1 for *_rest, status in result["requests"]
                     if status != 200)
        problems = [f"{failed} request(s) answered with an error status"
                    ] if failed else []
        if result["inconsistent"]:
            failed += result["inconsistent"]
            problems.append(f"{result['inconsistent']} response(s) differ "
                            "from the first response to the same request")
        first = {int(k): v for k, v in result["first"].items()}
        rng = random.Random(state["inputs"]["check_rng"])
        sampled = sorted(rng.sample(sorted(first),
                                    min(SERVE_CHECKED, len(first))))
        for index in sampled:
            kind, design, sigma, n_seeds = shapes[index]
            factory = (RegistryFactory(design) if kind == "design"
                       else SerializedCircuitFactory(state["circuits"][design]))
            direct = measure_yield(factory, _baseline_predicate(factory),
                                   sigma, seeds=range(0, n_seeds))
            served = json.loads(first[index])["result"]
            if served != yield_result_to_jsonable(direct):
                failed += 1
                problems.append(f"served {shapes[index]} != direct "
                                "measure_yield")
        return attempted, failed, problems

    def close(self, state: dict) -> None:
        if state.get("server") is not None:
            state["server"].stop()
            state["server"] = None


def _serve_counts(before: dict, after: dict) -> Dict[str, float]:
    def delta(block: str, key: str) -> float:
        b = (before["cache"].get(block) or {}).get(key, 0)
        a = (after["cache"].get(block) or {}).get(key, 0)
        return a - b

    return {
        "cache.mem.hits": delta("result", "hits"),
        "cache.mem.misses": delta("result", "misses"),
        "cache.disk.hits": delta("result_disk", "hits"),
        "cache.disk.misses": delta("result_disk", "misses"),
        "service.coalesced": after["coalesced"] - before["coalesced"],
    }


# ----------------------------------------------------------------------
# explore-grid
# ----------------------------------------------------------------------
EXPLORE_GRIDS: Dict[str, Dict[str, List[int]]] = {
    "bitonic": {"n": [2, 4, 8, 16]},
    "adder_xsfq": {"n": list(range(1, 17))},
    "racetree": {"depth": [1, 2, 3, 4, 5]},
    "memory": {"words": [2, 4, 8, 16, 32, 64], "bits": [1, 2, 4, 8]},
}
EXPLORE_GRIDS_TINY: Dict[str, Dict[str, List[int]]] = {
    "bitonic": {"n": [2, 4]},
    "adder_xsfq": {"n": [1, 2]},
    "racetree": {"depth": [1, 2]},
    "memory": {"words": [2], "bits": [1, 2]},
}
EXPLORE_SIGMA = 0.5
EXPLORE_SEEDS = 8
EXPLORE_CHECKED = 4


class ExploreGrid:
    name = "explore-grid"
    unit = "design points"
    op = "design point"
    aliases = {"work_per_s": "explore.points_per_s"}

    def inputs(self, seed: int, tiny: bool = False) -> dict:
        from itertools import product

        rng = random.Random(seed)
        grids = EXPLORE_GRIDS_TINY if tiny else EXPLORE_GRIDS
        points = [
            (family, dict(zip(grid, values)))
            for family, grid in grids.items()
            for values in product(*grid.values())
        ]
        return {"grids": {f: {k: list(v) for k, v in g.items()}
                          for f, g in grids.items()},
                "seed0": rng.randrange(1_000_000),
                "sample": sorted(rng.sample(range(len(points)),
                                            EXPLORE_CHECKED)),
                "points": points}

    def setup(self, inputs: dict, traced: bool = False) -> dict:
        import repro.explore  # noqa: F401

        return {"inputs": inputs}

    def run(self, state: dict, seconds: float, rec=None) -> Run:
        from repro.explore import ExploreEngine

        inputs = state["inputs"]
        counts = {"cache.mem.hits": 0.0, "cache.mem.misses": 0.0}

        def one_round():
            engine = ExploreEngine()
            latencies, points = [], []
            for family, grid in inputs["grids"].items():
                last = [time.perf_counter()]

                def progress(point, last=last):
                    now = time.perf_counter()
                    latencies.append(now - last[0])
                    last[0] = now

                with _op_span(rec):
                    sweep = engine.sweep(
                        family, grid, sigma=EXPLORE_SIGMA,
                        n_seeds=EXPLORE_SEEDS, seed0=inputs["seed0"],
                        progress=progress,
                    )
                points.extend(sweep.points)
            memory = engine.stats()["result_cache"]
            counts["cache.mem.hits"] += memory["hits"]
            counts["cache.mem.misses"] += memory["misses"]
            return latencies, len(points), points

        run = measure_rounds(one_round, seconds)
        run.counts = counts
        return run

    def check(self, state: dict, run: Run) -> Tuple[int, int, List[str]]:
        from repro.core.montecarlo import measure_yield
        from repro.explore.families import FamilyFactory

        inputs = state["inputs"]
        reference = run.outputs[0]
        problems: List[str] = []
        wrong = set()
        for index in inputs["sample"]:
            family, params = inputs["points"][index]
            factory = FamilyFactory(family, params)
            direct = measure_yield(
                factory, _baseline_predicate(factory), EXPLORE_SIGMA,
                seeds=range(inputs["seed0"], inputs["seed0"] + EXPLORE_SEEDS),
            )
            point = reference[index]
            if (point.family, dict(point.params)) != (family, params) or (
                    point.result != direct):
                wrong.add(index)
                problems.append(f"{family} {params}: swept point != direct "
                                "measure_yield")
        attempted = failed = 0
        for points in run.outputs:
            for index, point in enumerate(points):
                attempted += 1
                if index in wrong or point.result != reference[index].result:
                    failed += 1
        if failed > len(wrong):
            problems.append("swept points differ between rounds")
        return attempted, failed, problems

    def close(self, state: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (YieldCliff(), VerifyZone(), ServeZipf(),
                                 ExploreGrid())}
