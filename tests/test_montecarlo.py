"""Tests for Monte-Carlo timing-yield analysis."""

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError, SimulationError
from repro.core.functional import hole
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import MIS_BEHAVED, OK, VIOLATION, classify_seed
from repro.core.simulation import Simulation
from repro.core.timing import Uniform
from repro.designs import min_max
from repro.exp.dynamic_checks import bitonic_circuit, bitonic_rank_order
from repro.sfq import dro, jtl


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


class TestMeasureYield:
    def test_perfect_yield_without_noise(self):
        result = measure_yield(minmax_factory, minmax_ok, sigma=0.0,
                               seeds=range(5))
        assert result.yield_fraction == 1.0
        assert result.failures == {}

    def test_large_noise_degrades_yield(self):
        # 200 seeds: wide enough that sigma=12 deterministically produces
        # mis-ordered runs under the counter noise scheme (the batched
        # drain's per-(seed, node) streams; see repro.core.batchsim).
        clean = measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(200))
        noisy = measure_yield(minmax_factory, minmax_ok, 12.0,
                              seeds=range(200))
        assert noisy.yield_fraction < clean.yield_fraction
        assert noisy.failures     # and the failing seeds are recorded

    def test_violations_counted_separately(self):
        """A DRO with data right at the clock edge violates under noise."""
        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(46.0, name="A")       # 4 ps before the clock
                clk = inp_at(50.0, name="CLK")
                dro(a, clk, name="Q")
            return circuit

        result = measure_yield(factory, lambda e: len(e["Q"]) == 1,
                               sigma=0.0, seeds=range(3))
        assert result.yield_fraction == 1.0

    def test_needs_seeds(self):
        with pytest.raises(PylseError):
            measure_yield(minmax_factory, minmax_ok, 0.0, seeds=())


class TestYieldCurve:
    def test_monotone_trend(self):
        curve = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 15.0), seeds=range(10)
        )
        assert curve[0].yield_fraction >= curve[1].yield_fraction
        assert [r.sigma for r in curve] == [0.0, 15.0]


@hole(delay=4.0, inputs=["a", "b"], outputs=["q"])
def either(a, b, time):
    return a or b


def hole_factory() -> Circuit:
    """A ``Functional`` hole feeding a clocked DRO: ineligible for the
    batched drain, and noisy enough to sort, mis-order and violate."""
    with fresh_circuit() as circuit:
        q = either(inp_at(10.0, name="A"), inp_at(30.0, name="B"))
        data = jtl(q, firing_delay=Uniform(4.0, 6.0))
        dro(data, inp_at(21.5, 44.0, name="CLK"), name="Q")
        jtl(inp_at(20.0, name="C"), name="R")
    return circuit


def hole_ok(events) -> bool:
    return len(events["Q"]) == 2 and events["Q"][0] - events["R"][0] < 2.0


def _outcomes(result, seeds):
    return [result.failures.get(seed, OK) for seed in seeds]


class TestOneNoiseScheme:
    """A plain seeded ``simulate`` and every Monte-Carlo path draw the
    same per-(seed, node) counter streams, so they classify alike."""

    def test_plain_simulate_classifies_bitonic8_like_measure_yield(self):
        times = (20, 70, 10, 45, 5, 90, 33, 60)
        seeds = range(20)
        plain = []
        for seed in seeds:
            try:
                events = Simulation(bitonic_circuit(times)).simulate(
                    variability={"stddev": 1.0}, seed=seed
                )
            except SimulationError:
                plain.append(VIOLATION)
                continue
            plain.append(OK if bitonic_rank_order(events, 8) else MIS_BEHAVED)
        result = measure_yield(
            lambda: bitonic_circuit(times),
            lambda events: bitonic_rank_order(events, 8),
            1.0,
            seeds,
        )
        assert plain == _outcomes(result, seeds)
        assert plain.count(OK) == 18

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_hole_circuit_paths_agree_seed_for_seed(self, sigma):
        seeds = range(40)
        batched = measure_yield(hole_factory, hole_ok, sigma, seeds)
        per_seed = measure_yield(hole_factory, hole_ok, sigma, seeds, batch=0)
        reference = [
            classify_seed(hole_factory, hole_ok, sigma, seed) for seed in seeds
        ]
        assert _outcomes(batched, seeds) == reference
        assert _outcomes(per_seed, seeds) == reference
        assert batched.divergence == {"ineligible": len(seeds)}
        assert {OK, MIS_BEHAVED, VIOLATION} <= set(reference)


class TestCriticalSigma:
    def test_finds_a_threshold(self):
        sigma = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(8), iterations=4,
        )
        assert sigma is not None
        assert 0.0 < sigma <= 16.0

    def test_functionally_broken_design_returns_none(self):
        sigma = critical_sigma(
            minmax_factory, lambda events: False, seeds=range(3)
        )
        assert sigma is None

    def test_very_robust_design_returns_upper_bound(self):
        """A lone JTL never mis-orders anything: yield stays 1."""
        from repro.sfq import jtl

        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                jtl(a, name="Q")
            return circuit

        sigma = critical_sigma(
            factory, lambda e: len(e["Q"]) == 1,
            sigma_hi=4.0, seeds=range(5),
        )
        assert sigma == 4.0

    def test_bad_target_rejected(self):
        with pytest.raises(PylseError):
            critical_sigma(minmax_factory, minmax_ok, target_yield=0.0)


class TestHtmlWaveforms:
    def test_html_structure(self):
        from repro.core.htmlwave import events_to_html

        html = events_to_html({"A": [10.0, 30.0], "Q": [15.0]}, title="demo")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "</svg>" in html
        assert html.count('class="pulse"') == 3
        assert "A @ 10 ps" in html

    def test_empty_rejected(self):
        from repro.core.htmlwave import events_to_html

        with pytest.raises(PylseError):
            events_to_html({})

    def test_save_roundtrip(self, tmp_path):
        from repro.core.htmlwave import save_html

        path = tmp_path / "wave.html"
        save_html({"A": [5.0]}, str(path))
        assert "<svg" in path.read_text()

    def test_escapes_names(self):
        from repro.core.htmlwave import events_to_html

        html = events_to_html({"<evil>": [1.0]})
        assert "<evil>" not in html
        assert "&lt;evil&gt;" in html
