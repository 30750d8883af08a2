"""Tests of the benchmark itself: inputs, traced layers, failure exits.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads
from workloads import WORKLOADS

#: Spans each workload must fire, and spans it must leave idle (0 calls).
PREDICTED = {
    "yield-cliff": (
        {"elaborate", "compile", "simulate", "batch", "montecarlo"},
        {"translate", "zone", "dbm.canonicalize", "service",
         "serialize.circuit_in", "serialize.result_out", "cache.disk.get",
         "cache.disk.put", "explore.resolve", "energy.cost"},
    ),
    "verify-zone": (
        {"elaborate", "compile", "simulate", "translate", "zone",
         "dbm.canonicalize"},
        {"batch", "montecarlo", "service", "serialize.circuit_in",
         "serialize.result_out", "cache.disk.get", "cache.disk.put",
         "explore.resolve", "energy.cost"},
    ),
    "serve-zipf": (
        {"service", "serialize.circuit_in", "serialize.result_out",
         "cache.disk.get", "cache.disk.put", "compile", "montecarlo",
         "batch", "elaborate"},
        {"translate", "zone", "dbm.canonicalize", "explore.resolve",
         "energy.cost"},
    ),
    "explore-grid": (
        {"explore.resolve", "energy.cost", "elaborate", "compile",
         "simulate", "batch", "montecarlo"},
        {"translate", "zone", "dbm.canonicalize", "service",
         "serialize.circuit_in", "serialize.result_out", "cache.disk.get",
         "cache.disk.put"},
    ),
}
COUNTERS_IDLE_OFF_VERIFY = ("dbm.extrapolate.calls", "zone.states")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.inputs(3) == workload.inputs(3)
    if name == "verify-zone":  # the paper's fixed designs
        assert workload.inputs(3) == workload.inputs(4)
    else:
        assert workload.inputs(3) != workload.inputs(4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_run_fires_the_predicted_layers(name):
    workload = WORKLOADS[name]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        state = workload.setup(workload.inputs(5, tiny=True), traced=True)
        try:
            run = workload.run(state, 1.0, recorder)
        finally:
            workload.close(state)
    finally:
        recorder.uninstall()
    attempted, failed, problems = workload.check(state, run)
    assert attempted > 0 and failed == 0, problems

    dumps = [recorder.to_jsonable()] + run.dumps
    table = tracing.aggregate(dumps)
    counts = tracing.merged_counts(dumps)
    fires, idle = PREDICTED[name]
    assert {s for s in fires if table.get(s, {}).get("calls", 0) == 0} == set()
    assert {s for s in idle if table.get(s, {}).get("calls", 0)} == set()
    for counter in COUNTERS_IDLE_OFF_VERIFY:
        assert (counts.get(counter, 0) > 0) == (name == "verify-zone")
    for row in table.values():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9


def test_uninstall_restores_every_patched_name():
    import repro.core.ir
    import repro.core.simulation
    import repro.serve.service
    from repro.mc.dbm import DBM

    before = (repro.core.ir.compile_circuit,
              repro.core.simulation.compile_circuit,
              repro.serve.service.compile_circuit,
              DBM.__dict__["canonicalize"])
    recorder = tracing.Recorder()
    tracing.install(recorder)
    assert repro.core.simulation.compile_circuit is not before[1]
    recorder.uninstall()
    after = (repro.core.ir.compile_circuit,
             repro.core.simulation.compile_circuit,
             repro.serve.service.compile_circuit,
             DBM.__dict__["canonicalize"])
    assert after == before


def test_self_time_excludes_children():
    recorder = tracing.Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    table = tracing.aggregate([recorder.to_jsonable()])
    inner = table["inner"]["busy_s"]
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["busy_s"] - inner)
    spans = recorder.to_jsonable()["spans"]
    assert len({request for *_rest, request in spans}) == 1


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yield-cliff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_verify_check_catches_a_wrong_state_count():
    workload = WORKLOADS["verify-zone"]
    state = {"inputs": workload.inputs(1)}
    reports = {
        name: {"completed": "satisfied" in want,
               "satisfied": want.get("satisfied", False),
               "violations": want.get("violations", []),
               "truncation_reason": None if "satisfied" in want
               else "max_states",
               "states": want["states"], "transitions": want["transitions"]}
        for name, want in workloads.VERIFY_EXPECTED.items()
    }
    run = workloads.Run(outputs=[reports])
    assert workload.check(state, run)[:2] == (6, 0)
    reports["Min-Max"] = dict(reports["Min-Max"], states=394)
    attempted, failed, problems = workload.check(state, run)
    assert (attempted, failed) == (6, 1) and "Min-Max" in problems[0]
