"""Tests for the parallel Monte-Carlo backend (repro.core.parallel).

The headline contract: ``measure_yield(..., workers=N)`` is bit-identical
to the sequential reference path for the same seed list — same counts, same
``failures`` dict, same insertion order.
"""

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import YieldEngine, chunk_seeds, resolve_workers
from repro.designs import min_max


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


class TestChunking:
    def test_contiguous_cover(self):
        seeds = list(range(11))
        chunks = chunk_seeds(seeds, 4)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) == 4
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_seeds(self):
        chunks = chunk_seeds([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_bad_chunk_count(self):
        with pytest.raises(PylseError):
            chunk_seeds([1], 0)

    def test_empty_seed_list(self):
        with YieldEngine(workers=2) as engine:
            assert engine.run(minmax_factory, minmax_ok, 0.0, []) == ([], None)
            assert engine.pools_created == 0


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_auto(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(PylseError):
            resolve_workers(-2)

    def test_bools_rejected(self):
        """Regression: ``True`` passed isinstance(int) and leaked through;
        ``False == 0`` silently meant one-per-CPU."""
        with pytest.raises(PylseError, match="bool"):
            resolve_workers(True)
        with pytest.raises(PylseError, match="bool"):
            resolve_workers(False)

    def test_bool_rejected_from_measure_yield(self):
        with pytest.raises(PylseError, match="bool"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(2),
                workers=True,
            )


class TestBitIdentical:
    def test_minmax_workers4_equals_sequential(self):
        """The acceptance contract: Min-Max, 4 workers vs reference."""
        seeds = range(40)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=4
        )
        assert parallel == sequential
        # dict equality ignores insertion order; the merge must not
        assert list(parallel.failures.items()) == list(sequential.failures.items())

    def test_clean_run_identical(self):
        seeds = range(10)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=seeds, workers=2
        )
        assert parallel == sequential
        assert parallel.yield_fraction == 1.0

    def test_noncontiguous_seed_list(self):
        seeds = [5, 3, 17, 2, 29, 11, 8]
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=3
        )
        assert parallel == sequential

    def test_yield_curve_workers(self):
        curve_seq = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 12.0), seeds=range(10)
        )
        curve_par = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 12.0), seeds=range(10),
            workers=2,
        )
        assert curve_par == curve_seq

    def test_critical_sigma_workers(self):
        seq = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
        )
        par = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3, workers=2,
        )
        assert par == seq


class TestErrors:
    def test_unpicklable_predicate_rejected(self):
        with pytest.raises(PylseError, match="picklable"):
            measure_yield(
                minmax_factory, lambda events: True,
                sigma=1.0, seeds=range(4), workers=2,
            )

    def test_lambda_fine_sequentially(self):
        result = measure_yield(
            minmax_factory, lambda events: True,
            sigma=1.0, seeds=range(3), workers=1,
        )
        assert result.yield_fraction == 1.0

    def test_negative_workers_rejected(self):
        with pytest.raises(PylseError):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(2),
                workers=-1,
            )

    def test_single_seed_stays_sequential(self):
        """One seed with many workers: no pool, still correct."""
        result = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=[0], workers=8
        )
        assert result.runs == 1 and result.passed == 1

    def test_duplicate_seeds_rejected(self):
        """Regression: duplicate seeds used to collide silently in the
        ``failures`` dict (the later outcome overwrote the earlier)."""
        with pytest.raises(PylseError, match="duplicate seed"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=[1, 2, 3, 2]
            )

    def test_duplicate_seeds_named_in_error(self):
        with pytest.raises(PylseError, match=r"4.*7"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0,
                seeds=[4, 7, 4, 7, 9],
            )


class TestChunkLengthGuard:
    """Regression: ``zip(seeds, outcomes)`` silently truncated short
    worker results, shifting outcomes onto the wrong seeds."""

    def test_short_chunk_names_the_chunk(self):
        from repro.core.parallel import _check_chunk

        with pytest.raises(PylseError, match=r"chunk 3.*30\.\.39.*7"):
            _check_chunk(3, list(range(30, 40)), 7)

    def test_matching_chunk_passes(self):
        from repro.core.parallel import _check_chunk

        _check_chunk(0, [1, 2, 3], 3)  # no raise

    def test_measure_yield_backstop(self):
        """A backend returning the wrong outcome count is refused."""
        from repro.core.parallel import YieldEngine

        class ShortEngine(YieldEngine):
            def run(self, *args, **kwargs):
                return ["ok"], None  # one outcome for many seeds

        with ShortEngine(workers=2) as engine:
            with pytest.raises(PylseError, match="1 outcomes for 5 seeds"):
                measure_yield(
                    minmax_factory, minmax_ok, sigma=0.0, seeds=range(5),
                    engine=engine,
                )
