"""Tests for delay distributions and the variability machinery."""

from types import SimpleNamespace

import pytest

from repro.core.batchsim import ScalarNoise
from repro.core.errors import PylseError
from repro.core.functional import hole
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.core.timing import (
    Distribution,
    Normal,
    Uniform,
    VariabilitySpec,
    nominal_delay,
)
from repro.sfq import jtl

#: A stand-in node for ScalarNoise.resolve (it reads only the names).
NODE = SimpleNamespace(name="jtl0", element=SimpleNamespace(name="JTL"))


def _resolve(delay, variability=False, seed=0, draws=1):
    """``draws`` successive resolutions of ``delay`` at one node."""
    noise = ScalarNoise(seed, VariabilitySpec.normalize(variability))
    return [noise.resolve(delay, 0, NODE) for _ in range(draws)]


class _Triangular(Distribution):
    mean = 5.0


class TestDistributions:
    def test_normal_nominal_is_mean(self):
        assert Normal(9.2, 0.5).nominal() == 9.2

    def test_normal_sampling_varies(self):
        samples = set(_resolve(Normal(10.0, 1.0), draws=10))
        assert len(samples) > 1
        assert all(s >= 0 for s in samples)

    def test_normal_truncates_at_zero(self):
        samples = _resolve(Normal(0.1, 100.0), draws=50)
        assert min(samples) == 0.0
        assert all(s >= 0 for s in samples)

    def test_normal_delay_truncates_in_simulation(self):
        a = inp_at(*[10.0 * k for k in range(1, 21)], name="A")
        jtl(a, firing_delay=Normal(0.1, 100.0), name="Q")
        events = Simulation().simulate(seed=3)
        gaps = [q - 10.0 * k for k, q in enumerate(events["Q"], 1)]
        assert all(g >= 0 for g in gaps)

    def test_normal_rejects_negative_params(self):
        with pytest.raises(PylseError):
            Normal(-1.0, 1.0)
        with pytest.raises(PylseError):
            Normal(1.0, -1.0)

    def test_uniform_mean_and_bounds(self):
        dist = Uniform(2.0, 4.0)
        assert dist.mean == 3.0
        samples = _resolve(dist, seed=1, draws=50)
        assert all(2.0 <= s <= 4.0 for s in samples)
        assert len(set(samples)) > 1

    def test_uniform_delay_stays_in_bounds_in_simulation(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Uniform(2.0, 4.0), name="Q")
        sim = Simulation()
        for seed in range(20):
            assert 12.0 <= sim.simulate(seed=seed)["Q"][0] <= 14.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(PylseError):
            Uniform(4.0, 2.0)

    def test_nominal_delay_validates(self):
        assert nominal_delay(5) == 5.0
        with pytest.raises(PylseError):
            nominal_delay(-1.0)
        with pytest.raises(PylseError):
            nominal_delay(float("nan"))
        with pytest.raises(PylseError):
            nominal_delay(float("inf"))

    def test_constant_delay_passes_through_without_variability(self):
        assert _resolve(3.0) == [3.0]

    def test_other_distributions_are_refused(self):
        with pytest.raises(PylseError, match="Unsupported delay distribution"):
            nominal_delay(_Triangular())

    def test_other_distributions_are_refused_by_machines(self):
        a = inp_at(10.0, name="A")
        with pytest.raises(PylseError, match="_Triangular"):
            jtl(a, firing_delay=_Triangular())

    def test_other_distributions_are_refused_by_holes(self):
        @hole(delay=_Triangular(), inputs=["a"], outputs=["q"])
        def passthrough(a, time):
            return a

        with pytest.raises(PylseError, match="_Triangular"):
            passthrough(inp_at(10.0, name="A"))


class TestVariabilitySpec:
    def test_false_is_disabled(self):
        spec = VariabilitySpec.normalize(False)
        assert not spec.enabled
        assert not spec.applies_to("JTL", "jtl0")

    def test_true_applies_everywhere(self):
        spec = VariabilitySpec.normalize(True)
        assert spec.applies_to("JTL", "jtl0")
        assert spec.applies_to("AND", "and3")

    def test_dict_cell_types_filter(self):
        spec = VariabilitySpec.normalize({"cell_types": ["JTL"]})
        assert spec.applies_to("JTL", "jtl0")
        assert not spec.applies_to("AND", "and0")

    def test_dict_instances_filter(self):
        spec = VariabilitySpec.normalize({"instances": ["jtl1"]})
        assert spec.applies_to("JTL", "jtl1")
        assert not spec.applies_to("JTL", "jtl0")

    def test_unknown_key_rejected(self):
        with pytest.raises(PylseError, match="Unknown variability"):
            VariabilitySpec.normalize({"bogus": 1})

    @pytest.mark.parametrize("scheme", ["counter", "python"])
    def test_scheme_is_an_unknown_key(self, scheme):
        with pytest.raises(PylseError, match="Unknown variability keys"):
            VariabilitySpec.normalize({"stddev": 1.0, "scheme": scheme})

    def test_bad_type_rejected(self):
        with pytest.raises(PylseError):
            VariabilitySpec.normalize(42)  # type: ignore[arg-type]

    def test_callable_used_directly(self):
        assert _resolve(4.0, lambda d, node: d + 1.0) == [5.0]

    def test_callable_sees_the_node(self):
        seen = []
        _resolve(4.0, lambda d, node: seen.append(node.name) or d)
        assert seen == ["jtl0"]

    def test_perturb_never_negative(self):
        assert _resolve(4.0, lambda d, node: -10.0) == [0.0]

    def test_callable_skips_distribution_delays(self):
        calls = []
        resolved = _resolve(
            Normal(5.0, 0.0), lambda d, node: calls.append(d) or d * 2
        )
        assert resolved == [5.0]
        assert calls == []

    def test_stddev_controls_spread(self):
        assert _resolve(4.0, {"stddev": 0.0}, seed=1) == [4.0]


class TestSimulationVariability:
    def test_deterministic_without_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        assert Simulation().simulate() == Simulation().simulate()

    def test_variability_perturbs_delays(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(variability=True, seed=3)
        assert events["Q"] != [15.0]
        assert 10.0 < events["Q"][0] < 20.0

    def test_seed_makes_variability_reproducible(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        sim = Simulation()
        first = sim.simulate(variability=True, seed=42)
        second = sim.simulate(variability=True, seed=42)
        assert first == second

    def test_cell_type_scoped_variability(self):
        a = inp_at(10.0, name="A")
        q = jtl(a)
        jtl(q, name="Q")
        events = Simulation().simulate(
            variability={"cell_types": ["AND"]}, seed=1
        )
        assert events["Q"] == [20.0]     # JTLs untouched

    def test_custom_function_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(
            variability=lambda delay, node: delay * 2, seed=1
        )
        assert events["Q"] == [20.0]     # 10 + 5*2

    def test_custom_function_clamped_in_simulation(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(
            variability=lambda delay, node: -3.0, seed=1
        )
        assert events["Q"] == [10.0]

    def test_custom_function_skips_normal_delays(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Normal(5.0, 0.0), name="Q")
        events = Simulation().simulate(
            variability=lambda delay, node: delay * 2, seed=1
        )
        assert events["Q"] == [15.0]     # the Normal delay, not doubled

    def test_distribution_delay_samples_even_without_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Normal(5.0, 1.0), name="Q")
        events = Simulation().simulate(seed=5)
        assert events["Q"] != [15.0]

    def test_distribution_delay_nominal_in_machine(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Normal(5.0, 0.0), name="Q")
        events = Simulation().simulate(seed=5)
        assert events["Q"] == [15.0]
