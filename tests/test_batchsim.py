"""Tests for the vectorized multi-seed drain (``repro.core.batchsim``).

The element-wise batched == sequential property lives in
``tests/test_differential.py``; this file covers the module's contract
surface: eligibility, width resolution, the divergence report and its
exposure on ``YieldResult`` and the CLI, reuse of a warm ``Simulation``
/ compiled-circuit memo across batched drains, and the per-seed
``ScalarNoise`` stream drawing exactly one lane of ``CounterNoise``.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchsim import (
    DEFAULT_MAX_BATCH,
    BatchReport,
    CounterNoise,
    ScalarNoise,
    batch_eligible,
    resolve_batch,
    run_batch,
)
from repro.core.circuit import fresh_circuit
from repro.core.errors import PylseError
from repro.core.functional import hole
from repro.core.helpers import inp_at
from repro.core.ir import compile_circuit
from repro.core.montecarlo import measure_yield
from repro.core.simulation import Simulation
from repro.core.timing import Normal, Uniform, VariabilitySpec
from repro.designs import min_max

from test_montecarlo import minmax_factory, minmax_ok


def hole_factory():
    """A Functional (hole) element: not Transitional, so not batchable."""

    @hole(delay=3.0, inputs=["a", "b"], outputs=["q"])
    def or_model(a, b, time):
        return a or b

    with fresh_circuit() as circuit:
        a = inp_at(10.0, name="A")
        b = inp_at(20.0, name="B")
        or_model(a, b).observe("Q")
    return circuit


def hole_ok(events):
    return len(events["Q"]) == 2


class TestEligibility:
    def test_transitional_design_is_eligible(self):
        compiled = compile_circuit(minmax_factory())
        assert batch_eligible(compiled)

    def test_result_is_memoized_on_the_compiled_circuit(self):
        compiled = compile_circuit(minmax_factory())
        assert batch_eligible(compiled) is batch_eligible(compiled)
        assert "batch_eligible" in compiled._cache

    def test_hole_design_is_not_eligible(self):
        compiled = compile_circuit(hole_factory())
        assert not batch_eligible(compiled)

    def test_ineligible_design_falls_back_wholesale(self):
        """A hole circuit sweeps correctly — on the sequential path,
        reported as `ineligible` — and matches the batch=0 run."""
        batched = measure_yield(hole_factory, hole_ok, 2.0, seeds=range(6))
        reference = measure_yield(
            hole_factory, hole_ok, 2.0, seeds=range(6), batch=0
        )
        assert batched == reference
        assert batched.batched_lanes == 0
        assert batched.fallback_seeds == list(range(6))
        assert batched.divergence == {"ineligible": 6}


class TestResolveBatch:
    def test_auto_and_none_cap_at_default(self):
        assert resolve_batch(None, 10) == 10
        assert resolve_batch("auto", 10) == 10
        assert resolve_batch(None, 10_000) == DEFAULT_MAX_BATCH

    def test_explicit_widths_pass_through(self):
        assert resolve_batch(0, 10) == 0
        assert resolve_batch(7, 10) == 7
        assert resolve_batch(500, 10) == 500

    @pytest.mark.parametrize("bad", [True, False, -1, 2.5, "wide"])
    def test_invalid_widths_rejected(self, bad):
        with pytest.raises(PylseError, match="batch"):
            resolve_batch(bad, 10)


class TestBatchReport:
    def test_merge_accumulates(self):
        a = BatchReport(batched_lanes=3, fallback_seeds=[7],
                        divergence={"order": 1})
        b = BatchReport(batched_lanes=2, fallback_seeds=[9, 11],
                        divergence={"order": 2, "violation": 1})
        a.merge(b)
        assert a.batched_lanes == 5
        assert a.fallback_seeds == [7, 9, 11]
        assert a.divergence == {"order": 3, "violation": 1}

    def test_count_skips_zero(self):
        report = BatchReport()
        report.count("order", 0)
        assert report.divergence == {}
        report.count("order", 2)
        report.count("order")
        assert report.divergence == {"order": 3}


class TestDivergenceObservability:
    def test_yield_result_accounts_for_every_seed(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(50)
        )
        assert result.batched_lanes + len(result.fallback_seeds) == 50
        assert sum(result.divergence.values()) == len(result.fallback_seeds)
        # sigma 12 on Min-Max deterministically reorders some lanes
        assert result.divergence.get("order")

    def test_reference_run_reports_nothing(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(50), batch=0
        )
        assert result.batched_lanes == 0
        assert result.fallback_seeds == []
        assert result.divergence == {}

    def test_fallback_seeds_in_seed_order(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(100, 150)
        )
        assert result.fallback_seeds == sorted(result.fallback_seeds)
        assert all(100 <= s < 150 for s in result.fallback_seeds)


class TestCli:
    def test_batch_flag_and_stats_report(self, capsys):
        from repro.__main__ import main

        assert main(["yield", "Min-Max", "--sigma", "12", "--seeds", "40",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "batched lanes:" in out
        assert "divergence causes:" in out and "order:" in out

    def test_default_output_is_batch_free(self, capsys):
        """The CI smoke job diffs batched vs --batch 0 output verbatim."""
        from repro.__main__ import main

        assert main(["yield", "Min-Max", "--sigma", "12",
                     "--seeds", "40"]) == 0
        batched = capsys.readouterr().out
        assert main(["yield", "Min-Max", "--sigma", "12", "--seeds", "40",
                     "--batch", "0"]) == 0
        reference = capsys.readouterr().out
        assert "batched" not in batched
        assert batched == reference


class TestEdgeCases:
    def test_empty_seed_list(self):
        sim = Simulation(minmax_factory())
        outcomes, stats, report = run_batch(sim, minmax_ok, 1.0, [])
        assert outcomes == [] and stats == []
        assert report == BatchReport()

    def test_seed_none_draws_fresh_entropy(self):
        """seed=None lanes are non-reproducible by design (fresh
        SeedSequence entropy), unlike every integer seed."""
        from repro.core.batchsim import CounterNoise

        a = CounterNoise.for_seeds([None]).normal(0)
        b = CounterNoise.for_seeds([None]).normal(0)
        c = CounterNoise.for_seeds([3]).normal(0)
        d = CounterNoise.for_seeds([3]).normal(0)
        assert a[0] != b[0]
        assert c[0] == d[0]

    def test_overflow_diverges_and_matches_reference(self):
        """A max_pulses cutoff mid-batch masks every lane out; the
        replays then hit the same cutoff, so outcomes still match the
        per-seed reference run with the same limit."""
        sim = Simulation(minmax_factory())
        outcomes, _, report = run_batch(
            sim, minmax_ok, 1.0, range(8), max_pulses=3
        )
        assert report.divergence.get("overflow") == 8
        ref_sim = Simulation(minmax_factory())
        ref_outcomes, _, _ = run_batch(
            ref_sim, minmax_ok, 1.0, range(8), batch=0, max_pulses=3
        )
        assert outcomes == ref_outcomes

    def test_simultaneous_arrivals_tie_break_matches_reference(self):
        """Simultaneous pulses on AND's equal-priority a/b transitions
        force the dispatch tie-break draw; the batch steps with the
        majority's pick and replays minority lanes, which must agree
        with each lane's own sequential draw."""
        from repro.sfq import and_s

        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                b = inp_at(10.0, name="B")
                clk = inp_at(30.0, name="CLK")
                and_s(a, b, clk, name="Q")
            return circuit

        def ok(events):
            return len(events["Q"]) == 1

        for sigma in (0.0, 4.0):
            batched = measure_yield(factory, ok, sigma, seeds=range(24))
            reference = measure_yield(
                factory, ok, sigma, seeds=range(24), batch=0
            )
            assert batched == reference
            assert list(batched.failures.items()) == list(
                reference.failures.items()
            )


class TestWarmReuse:
    """One Simulation + one compiled circuit across many batched drains."""

    def test_no_recompile_and_no_lane_state_leak(self):
        circuit = minmax_factory()
        sim = Simulation(circuit)
        compiled = compile_circuit(circuit)

        first = run_batch(sim, minmax_ok, 9.0, range(30))
        # warm memo: same compiled object, no structural recompilation
        assert compile_circuit(circuit) is compiled
        # an interleaved plain simulate() must not perturb batch state
        sim.reset()
        sim.simulate()
        second = run_batch(sim, minmax_ok, 9.0, range(30))
        assert compile_circuit(circuit) is compiled
        assert second[0] == first[0]
        assert second[2].batched_lanes == first[2].batched_lanes
        assert second[2].fallback_seeds == first[2].fallback_seeds
        assert second[2].divergence == first[2].divergence

    def test_batched_then_reset_then_sequential_is_clean(self):
        """A batched drain leaves the Simulation reusable: reset() +
        noise-free simulate() reproduces the nominal events."""
        circuit = minmax_factory()
        sim = Simulation(circuit)
        baseline = sim.simulate()
        run_batch(sim, minmax_ok, 20.0, range(40))
        sim.reset()
        assert sim.simulate() == baseline

    def test_stats_collection_reuses_the_same_sim(self):
        circuit = minmax_factory()
        sim = Simulation(circuit)
        outcomes1, stats1, _ = run_batch(
            sim, minmax_ok, 9.0, range(12), collect_stats=True
        )
        outcomes2, stats2, _ = run_batch(
            sim, minmax_ok, 9.0, range(12), collect_stats=True
        )
        assert outcomes1 == outcomes2
        assert [s.to_jsonable() for s in stats1] == [
            s.to_jsonable() for s in stats2
        ]


# -- the per-seed stream is one lane of the batched stream ---------------
seed_values = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)
raw_draws = st.tuples(
    st.sampled_from(["normal", "uniform", "tie"]),
    st.integers(min_value=0, max_value=40),  # node index
    st.integers(min_value=1, max_value=4),  # draws in a row
    st.integers(min_value=2, max_value=7),  # tie choices
)
delays = st.one_of(
    st.builds(
        Normal,
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=30.0),
    ),
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    ).map(lambda bounds: Uniform(min(bounds), max(bounds))),
    st.floats(min_value=0.0, max_value=50.0),
)
variabilities = st.one_of(
    st.builds(
        lambda sigma: {"stddev": sigma},
        st.floats(min_value=0.0, max_value=20.0),
    ),
    st.builds(
        lambda fraction: {"fraction": fraction},
        st.floats(min_value=0.0, max_value=2.0),
    ),
)


def _bits_of(value) -> str:
    return float(value).hex()


class TestScalarNoise:
    """``ScalarNoise(seed)`` draws exactly lane ``l`` of
    ``CounterNoise.for_seeds(seeds)`` when ``seeds[l] == seed``."""

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=st.lists(seed_values, min_size=1, max_size=6),
        lane=st.integers(min_value=0, max_value=5),
        draws=st.lists(raw_draws, min_size=1, max_size=12),
    )
    def test_raw_draws_match_the_lane(self, seeds, lane, draws):
        lane %= len(seeds)
        wide = CounterNoise.for_seeds(seeds)
        scalar = ScalarNoise(seeds[lane], VariabilitySpec())
        for kind, index, count, choices in draws:
            for _ in range(count):
                if kind == "normal":
                    assert _bits_of(scalar.normal(index)) == _bits_of(
                        wide.normal(index)[lane]
                    )
                elif kind == "uniform":
                    assert _bits_of(scalar.uniform(index)) == _bits_of(
                        wide.uniform(index)[lane]
                    )
                else:
                    assert scalar.tie(index, choices) == int(
                        wide.tie(index, choices)[lane]
                    )

    @settings(max_examples=150, deadline=None)
    @given(
        seeds=st.lists(seed_values, min_size=1, max_size=6),
        lane=st.integers(min_value=0, max_value=5),
        variability=variabilities,
        perturbed=st.booleans(),
        firings=st.lists(
            st.tuples(st.integers(min_value=0, max_value=40), delays),
            min_size=1, max_size=12,
        ),
    )
    def test_delay_resolution_matches_the_lane(
        self, seeds, lane, variability, perturbed, firings
    ):
        lane %= len(seeds)
        cell = "JTL" if perturbed else "DFF"
        spec = VariabilitySpec.normalize(
            dict(variability, cell_types=["JTL"])
        )
        wide = CounterNoise.for_seeds(seeds)
        scalar = ScalarNoise(seeds[lane], spec)
        for index, delay in firings:
            node = SimpleNamespace(
                name=f"n{index}", element=SimpleNamespace(name=cell)
            )
            applies = spec.applies_to(cell, node.name)
            expected = wide.resolve(delay, index, spec, applies)
            if not isinstance(expected, float):
                expected = expected[lane]
            assert _bits_of(scalar.resolve(delay, index, node)) == _bits_of(
                expected
            )

    def test_long_normal_streams_match_every_lane(self):
        """Box-Muller through ``math.log`` instead of ``np.log`` differs
        in a few draws per thousand; thousands of draws per lane make
        such a slip certain to show."""
        seeds = [-7, 0, 1, 2 ** 40, 12345, -(2 ** 33)]
        wide = CounterNoise.for_seeds(seeds)
        scalars = [ScalarNoise(seed, VariabilitySpec()) for seed in seeds]
        for _ in range(2000):
            row = wide.normal(5)
            for lane, scalar in enumerate(scalars):
                assert _bits_of(scalar.normal(5)) == _bits_of(row[lane])

    def test_root_cache_is_a_bounded_lru(self):
        """A long-running service sees unboundedly many distinct seeds;
        the seed -> root cache keeps at most its fixed capacity and
        re-derives an evicted root identically."""
        from repro.core.batchsim import _ROOT_CACHE_SIZE, _root, _seed_root

        base = 10 ** 12
        first = _root(base)
        for seed in range(base, base + _ROOT_CACHE_SIZE + 50):
            _root(seed)
        assert _seed_root.cache_info().currsize == _ROOT_CACHE_SIZE
        assert _root(base) == first

    def test_root_cache_holds_one_full_service_request(self):
        """A served yield curve re-runs its seeds at every sigma; an LRU
        cycled by more seeds than it holds would never hit."""
        from repro.core.batchsim import _ROOT_CACHE_SIZE
        from repro.serve.service import MAX_SEEDS

        assert _ROOT_CACHE_SIZE >= MAX_SEEDS
