"""Vectorized multi-seed Monte-Carlo benchmarks (repro.core.batchsim).

One 200-seed drain per (design, mode) pair, on a pre-built Simulation
with a warm compiled-circuit memo so the comparison isolates the drain
itself (elaboration/compile cost is measured by ``bench_compile.py``,
and the end-to-end ``measure_yield`` path by ``bench_mc_scaling.py``):

* ``batched`` — the default vectorized drain (``batch=None``): all seeds
  advance through one event-loop pass as lanes of a structure-of-arrays
  batch, with diverging seeds replayed on the per-seed reference drain;
* ``perseed`` — ``batch=0``: the same counter-stream noise, one full
  event-loop drain per seed. This is the reference the batched drain is
  element-wise identical to (tests/test_differential.py).

``tools/bench_guard.py`` records both medians per case in the
``mc_batched_200_seeds_s`` block of ``BENCH_sim.json`` and fails if the
batched drain is less than 5x faster than the per-seed reference at
``MC_SIGMA``.

Two designs bracket the divergence spectrum at ``MC_SIGMA``: the Min-Max
pair (shallow, fully conformant at this sigma — the pure vectorization
win) and the bitonic-8 sorter (deep, a few lanes diverge and pay the
replay cost). ``bitonic8_sigma2`` runs the sorter past the yield cliff,
where most lanes diverge and replay per seed, so both sides cost about
the same; it is recorded, not ratio-gated.
"""

import pytest

from bench_mc_scaling import MC_SIGMA, bitonic8_factory, bitonic8_ok
from repro.core.batchsim import run_batch
from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.designs import min_max

MC_BATCHED_SEEDS = 200


def minmax_factory():
    """Fresh Min-Max comparator circuit (module-level: picklable)."""
    with fresh_circuit() as circuit:
        a = inp_at(60.0, name="A")
        b = inp_at(25.0, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit


def minmax_ok(events):
    return (
        len(events["low"]) == 1
        and len(events["high"]) == 1
        and events["low"][0] < events["high"][0]
    )


#: case -> (factory, predicate, sigma in ps)
DESIGNS = {
    "minmax": (minmax_factory, minmax_ok, MC_SIGMA),
    "bitonic8": (bitonic8_factory, bitonic8_ok, MC_SIGMA),
    "bitonic8_sigma2": (bitonic8_factory, bitonic8_ok, 2.0),
}

#: ``None`` is the production default (auto lane width); ``0`` disables
#: batching and drains one seed at a time — the comparison baseline.
MODES = {"batched": None, "perseed": 0}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("design", list(DESIGNS))
def test_mc_batched(benchmark, design, mode):
    factory, predicate, sigma = DESIGNS[design]
    batch = MODES[mode]
    sim = Simulation(factory())  # compile once, outside the timed region

    def sweep():
        return run_batch(
            sim, predicate, sigma, range(MC_BATCHED_SEEDS), batch=batch
        )

    # One warmup round absorbs first-touch numpy/ufunc setup; the timed
    # round then measures the steady-state drain the sweeps actually run.
    outcomes, _, report = benchmark.pedantic(
        sweep, rounds=1, iterations=1, warmup_rounds=1
    )
    assert len(outcomes) == MC_BATCHED_SEEDS
    if mode == "batched":
        # Every seed is accounted for: classified in a batch lane or
        # replayed on the reference drain.
        assert report.batched_lanes + len(report.fallback_seeds) \
            == MC_BATCHED_SEEDS
    else:
        assert report.batched_lanes == 0 and not report.fallback_seeds
