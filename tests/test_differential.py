"""Differential harness: the fast and general drain loops must agree.

``_drain_fast`` is the reference semantics minus bookkeeping;
``_drain_general`` re-implements it with variability/trace/observer
support. This property locks the two together on random circuits (from
the generator in ``tests/test_random_circuits.py``, variability off):
an unobserved ``simulate()`` (the fast loop) and a ``record=True`` one
(the general loop) give identical event dictionaries. Observer hooks
live in the general loop only, so observed runs with and without
``record=True`` must build identical provenance graphs and metrics —
node for node, pulse for pulse, parent for parent.

Any drift between the loops (a hook called in a different order, a
different grouping of simultaneous pulses, a missed duplicate collapse)
shows up as a JSON-payload mismatch here.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.montecarlo import measure_yield
from repro.core.simulation import Simulation
from repro.obs import Observer

from test_parallel import minmax_factory, minmax_ok
from test_random_circuits import build_random_circuit


def run_fast(circuit):
    """Observed run with no variability and no trace."""
    observer = Observer()
    events = Simulation(circuit).simulate(observer=observer)
    return events, observer


def run_general(circuit):
    """General drain: record=True forces the bookkeeping loop."""
    observer = Observer()
    events = Simulation(circuit).simulate(record=True, observer=observer)
    return events, observer


class TestDrainLoopsAgree:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_unobserved_events_identical(self, seed, n_inputs, n_cells):
        """No observer, no noise, no trace: the ``_drain_fast`` loop."""
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        fast = Simulation(circuit).simulate()
        general = Simulation(circuit).simulate(record=True)
        assert fast == general

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_events_and_provenance_identical(self, seed, n_inputs, n_cells):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        fast_events, fast_obs = run_fast(circuit)
        gen_events, gen_obs = run_general(circuit)
        assert fast_events == gen_events
        assert fast_obs.graph.to_jsonable() == gen_obs.graph.to_jsonable()

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_metrics_identical(self, seed, n_inputs, n_cells):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        _, fast_obs = run_fast(circuit)
        _, gen_obs = run_general(circuit)
        assert (
            fast_obs.metrics.to_jsonable() == gen_obs.metrics.to_jsonable()
        )

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_chains_of_every_output_identical(self, seed, n_inputs, n_cells):
        """Rendered causal chains agree wire-by-wire, pulse-by-pulse."""
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        _, fast_obs = run_fast(circuit)
        _, gen_obs = run_general(circuit)
        labels = sorted(fast_obs.graph.by_label)
        assert labels == sorted(gen_obs.graph.by_label)
        for label in labels:
            fast_pids = fast_obs.graph.pulses_on(label)
            gen_pids = gen_obs.graph.pulses_on(label)
            assert len(fast_pids) == len(gen_pids)
            for occurrence in range(len(fast_pids)):
                assert fast_obs.chain(label, occurrence) == gen_obs.chain(
                    label, occurrence
                )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_provenance_graph_covers_all_events(self, seed):
        """Every pulse instant on every wire has a provenance record.

        Counts can differ: two pulses fired onto the same wire at the
        same instant (e.g. a merger dispatched on both inputs at once)
        both land in the event series, but collapse into one delivered
        pulse in the heap — and the provenance graph mirrors what the
        simulator delivers, merging the duplicates' parents.
        """
        circuit = build_random_circuit(seed, n_inputs=3, n_cells=8)
        events, observer = run_fast(circuit)
        graph = observer.graph
        for label, times in events.items():
            pids = graph.pulses_on(label)
            recorded = [graph.record(p).time for p in pids]
            assert sorted(set(recorded)) == sorted(set(times))
            assert len(recorded) <= len(times)


class TestEngineMatchesSequential:
    """The pooled YieldEngine against the sequential reference path.

    ``workers=2`` routes through the cached default engine, so every
    example reuses the same warm pool and worker-resident circuits —
    precisely the state-carryover surface a per-seed bug would hide in.
    """

    @given(
        sigma=st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        start=st.integers(0, 500),
        n_seeds=st.integers(2, 16),
    )
    @settings(max_examples=8, deadline=None)
    def test_outcomes_identical(self, sigma, start, n_seeds):
        seeds = range(start, start + n_seeds)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds, workers=1
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            workers=2,
        )
        assert pooled == sequential
        assert list(pooled.failures.items()) == list(
            sequential.failures.items()
        )

    @given(
        sigma=st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        n_seeds=st.integers(2, 12),
    )
    @settings(max_examples=8, deadline=None)
    def test_stats_identical(self, sigma, n_seeds):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=range(n_seeds),
            workers=1, collect_stats=True,
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=range(n_seeds),
            workers=2, collect_stats=True,
        )
        assert (
            pooled.stats.to_jsonable() == sequential.stats.to_jsonable()
        )


def _capturing(store):
    """Predicate that records the exact event dict it judged.

    ``json.dumps`` with sorted keys is a bit-exact float serialization,
    so any per-seed timestamp drift between the two drains flips the
    comparison below.
    """

    def predicate(events):
        store.append(json.dumps(events, sort_keys=True))
        return True

    return predicate


class TestBatchedMatchesSequential:
    """The vectorized batched drain against the per-seed reference.

    ``batch=0`` runs the same counter-based noise scheme one seed at a
    time; the batched drain (any lane width) must match element-wise:
    same outcomes in the same order, same failures dict, the same event
    dictionaries, and bit-identical aggregated stats — including when
    lanes diverge and are replayed. Event dicts are compared as a
    multiset because predicate call order may interleave batched and
    replayed lanes.
    """

    @given(
        circuit_seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
        sigma=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        n_seeds=st.integers(1, 24),
        width=st.sampled_from([None, 1, 3, 17]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_events_and_outcomes_identical(
        self, circuit_seed, n_inputs, n_cells, sigma, n_seeds, width
    ):
        def factory():
            return build_random_circuit(circuit_seed, n_inputs, n_cells)

        reference_events, batched_events = [], []
        reference = measure_yield(
            factory, _capturing(reference_events), sigma,
            seeds=range(n_seeds), batch=0,
        )
        batched = measure_yield(
            factory, _capturing(batched_events), sigma,
            seeds=range(n_seeds), batch=width,
        )
        assert batched == reference  # outcome tallies + failures by seed
        assert list(batched.failures.items()) == list(
            reference.failures.items()
        )
        assert sorted(batched_events) == sorted(reference_events)

    @given(
        sigma=st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
        start=st.integers(0, 500),
        n_seeds=st.integers(1, 20),
        width=st.sampled_from([None, 1, 3, 17]),
    )
    @settings(max_examples=12, deadline=None)
    def test_stats_identical(self, sigma, start, n_seeds, width):
        seeds = range(start, start + n_seeds)
        reference = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            collect_stats=True, batch=0,
        )
        batched = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            collect_stats=True, batch=width,
        )
        assert batched == reference
        assert batched.stats.to_jsonable() == reference.stats.to_jsonable()

    def test_forced_divergence_still_identical(self):
        """At sigma far past the reorder threshold most lanes diverge;
        the replays must still reproduce the reference exactly."""
        seeds = range(120)
        reference = measure_yield(
            minmax_factory, minmax_ok, sigma=40.0, seeds=seeds, batch=0,
        )
        batched = measure_yield(
            minmax_factory, minmax_ok, sigma=40.0, seeds=seeds,
        )
        assert batched == reference
        assert list(batched.failures.items()) == list(
            reference.failures.items()
        )
        assert batched.fallback_seeds       # divergence actually happened
        assert sum(batched.divergence.values()) == len(
            batched.fallback_seeds
        )
        assert batched.batched_lanes + len(batched.fallback_seeds) == 120
