"""Tests for the persistent YieldEngine (repro.core.parallel).

Covers the engine-specific contracts on top of ``test_parallel.py``'s
bit-identity suite: pool reuse (one pool across a whole bisection
search, and across a change of task), crash degradation back to the
in-process path, per-chunk retry-once, and stats determinism under the
chunked engine.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import (
    YieldEngine,
    _pool_chunk,
    classify_seed,
    default_engine,
    shutdown_default_engines,
)
from repro.designs import min_max

#: Captured at import time in the parent; a forked pool worker inherits
#: this value but has a different pid — which is how ``crashing_predicate``
#: kills workers while staying harmless in the parent.
_PARENT_PID = os.getpid()

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="worker-crash injection relies on fork inheritance",
)


def minmax_factory() -> Circuit:
    with fresh_circuit() as circuit:
        a = inp_at(60.0, name="A")
        b = inp_at(25.0, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit


def minmax_ok(events) -> bool:
    return (
        len(events["low"]) == 1
        and len(events["high"]) == 1
        and events["low"][0] < events["high"][0]
    )


def crashing_predicate(events) -> bool:
    """Judges fine in the parent, kills any pool worker that runs it."""
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return minmax_ok(events)


@pytest.fixture(autouse=True)
def _clean_default_engines():
    yield
    shutdown_default_engines()


class TestPoolReuse:
    def test_critical_sigma_creates_exactly_one_pool(self):
        """The acceptance contract: every bisection iteration shares one
        warm pool."""
        with YieldEngine(workers=2) as engine:
            value = critical_sigma(
                minmax_factory, minmax_ok, target_yield=0.9,
                sigma_hi=16.0, seeds=range(6), iterations=3,
                workers=2, engine=engine,
            )
            assert engine.pools_created == 1
            assert engine.last_backend == "pool"
        sequential = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
        )
        assert value == sequential

    def test_yield_curve_reuses_one_pool(self):
        with YieldEngine(workers=2) as engine:
            curve = yield_curve(
                minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
                seeds=range(8), workers=2, engine=engine,
            )
            assert engine.pools_created == 1
        assert curve == yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
            seeds=range(8),
        )

    def test_task_change_reuses_pool(self):
        """The task travels with each chunk, so a different
        factory/predicate re-elaborates in the workers but keeps the pool."""
        from test_parallel import minmax_factory as other_factory

        with YieldEngine(workers=2) as engine:
            first = measure_yield(minmax_factory, minmax_ok, 12.0,
                                  seeds=range(8), engine=engine)
            second = measure_yield(other_factory, minmax_ok, 12.0,
                                   seeds=range(8), engine=engine)
            assert engine.pools_created == 1
        assert first == measure_yield(minmax_factory, minmax_ok, 12.0,
                                      seeds=range(8), workers=1)
        assert second == measure_yield(other_factory, minmax_ok, 12.0,
                                       seeds=range(8), workers=1)

    def test_default_engine_cached_by_worker_count(self):
        assert default_engine(2) is default_engine(2)
        assert default_engine(2) is not default_engine(3)

    def test_default_engine_revived_after_shutdown(self):
        engine = default_engine(2)
        shutdown_default_engines()
        revived = default_engine(2)
        assert revived is not engine
        assert not revived.closed


class TestBatchReport:
    def test_every_replayed_seed_has_a_cause(self):
        """No seed is classified outside a batch without a divergence
        cause: the pooled report accounts for every replay."""
        result = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(40), workers=2
        )
        assert sum(result.divergence.values()) == len(result.fallback_seeds)
        assert result.batched_lanes + len(result.fallback_seeds) == 40


class TestEngineArgument:
    def test_bad_engine_string_rejected(self):
        with pytest.raises(PylseError, match="unknown engine"):
            measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(2),
                          engine="hyperdrive")


class TestStatsDeterminism:
    def test_stats_bit_identical_under_chunked_engine(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
            workers=1, collect_stats=True,
        )
        with YieldEngine(workers=2) as engine:
            parallel = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
                workers=2, collect_stats=True, engine=engine,
            )
        assert parallel.stats.to_jsonable() == sequential.stats.to_jsonable()
        assert parallel.stats.runs == 12
        assert list(parallel.failures.items()) == list(
            sequential.failures.items()
        )


class TestDegradation:
    @FORK_ONLY
    def test_worker_crash_falls_back_to_identical_result(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(20), workers=1
        )
        with YieldEngine(workers=2) as engine:
            with pytest.warns(RuntimeWarning, match="retrying once"):
                degraded = measure_yield(
                    minmax_factory, crashing_predicate, sigma=12.0,
                    seeds=range(20), workers=2, engine=engine,
                )
            assert engine.fallbacks == 1
            assert engine.parallel_disabled
            assert engine.last_backend == "degraded"
            # retry-once spawned a second pool before giving up
            assert engine.pools_created == 2
            assert degraded == sequential

            # Subsequent calls skip the pool entirely: no thrash.
            again = measure_yield(
                minmax_factory, crashing_predicate, sigma=12.0, seeds=range(20),
                workers=2, engine=engine,
            )
            assert engine.last_backend == "serial"
            assert engine.pools_created == 2
            assert again == sequential

    @FORK_ONLY
    def test_crash_degradation_with_stats(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
            workers=1, collect_stats=True,
        )
        with YieldEngine(workers=2) as engine:
            with pytest.warns(RuntimeWarning):
                degraded = measure_yield(
                    minmax_factory, crashing_predicate, sigma=12.0,
                    seeds=range(10), workers=2, engine=engine,
                    collect_stats=True,
                )
        assert degraded.stats.to_jsonable() == sequential.stats.to_jsonable()

    def test_retry_once_recovers_without_degrading(self):
        """A transient failure costs one warning, not the pool."""
        from concurrent.futures.process import BrokenProcessPool

        engine = YieldEngine(workers=2)

        class FakeFuture:
            def __init__(self, fail, fn, args):
                self._fail = fail
                self._fn = fn
                self._args = args

            def result(self):
                if self._fail:
                    raise BrokenProcessPool("injected transient crash")
                return self._fn(*self._args)

        class FakePool:
            def __init__(self):
                self.rounds = 0

            def submit(self, fn, *args):
                # Every future of the first submission round fails; the
                # resubmitted round succeeds.
                return FakeFuture(self.rounds == 0, fn, args)

            def shutdown(self, **kwargs):
                self.rounds += 1

        fake = FakePool()

        def install_fake():
            # Mirror _ensure_pool: register the pool on the engine so the
            # failure path's _shutdown_pool() reaches fake.shutdown().
            engine._pool = fake
            return fake

        engine._ensure_pool = install_fake
        with pytest.warns(RuntimeWarning, match="retrying once"):
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(12)
            )
        assert not engine.parallel_disabled
        assert engine.fallbacks == 0
        assert outcomes == [
            classify_seed(minmax_factory, minmax_ok, 12.0, seed)
            for seed in range(12)
        ]

    def test_closed_engine_rejected(self):
        engine = YieldEngine(workers=2)
        engine.close()
        with pytest.raises(PylseError, match="closed"):
            engine.run(minmax_factory, minmax_ok, 0.0, range(4))


class TestWorkerReuseSemantics:
    def test_engine_chunk_matches_reference_chunk(self):
        """The reused-circuit worker task is bit-identical to fresh
        elaboration per seed (run in-process, two chunks on one cached
        design)."""
        task = pickle.dumps((minmax_factory, minmax_ok))
        seeds = list(range(25))
        outcomes = []
        for chunk in (seeds[:12], seeds[12:]):
            chunk_outcomes, stats, report = _pool_chunk(
                task, 12.0, chunk, False, None
            )
            assert stats == []
            assert (report.batched_lanes + len(report.fallback_seeds)
                    == len(chunk))
            outcomes.extend(chunk_outcomes)
        assert outcomes == [
            classify_seed(minmax_factory, minmax_ok, 12.0, seed)
            for seed in seeds
        ]

    def test_simulation_reset_allows_reuse(self):
        from repro.core.simulation import Simulation

        circuit = minmax_factory()
        sim = Simulation(circuit)
        first = sim.simulate(variability={"stddev": 3.0}, seed=7)
        snapshot = {k: list(v) for k, v in first.items()}
        sim.reset()
        assert sim.events == {}
        assert sim.pulses_processed == 0
        assert sim.activity == {}
        again = sim.simulate(variability={"stddev": 3.0}, seed=7)
        assert again == snapshot
