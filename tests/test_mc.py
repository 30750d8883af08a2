"""End-to-end model-checking tests (Section 5.3's Queries 1 and 2)."""

import time
from types import SimpleNamespace

import pytest

from repro.core.circuit import working_circuit
from repro.core.helpers import inp, inp_at
from repro.designs import min_max
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.mc import ModelChecker, explorer, verify_design
from repro.sfq import and_s, c, dro, jtl
from repro.ta import (
    OutputTimesProperty,
    Query,
    deadlock_query,
    no_error_query,
    translate_circuit,
)


class TestVerifyDesign:
    def test_jtl_satisfies_both_queries(self):
        a = inp_at(100.0, 200.0, name="A")
        jtl(a, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok
        assert report.result.states_explored > 0
        assert report.events["Q"] == [105.0, 205.0]

    def test_and_figure12_satisfies(self):
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        report = verify_design(time_limit=120)
        assert report.ok, report.result.violations

    def test_c_element_satisfies(self):
        a = inp_at(30.0, 110.0, name="A")
        b = inp_at(60.0, 140.0, name="B")
        c(a, b, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok

    def test_min_max_satisfies_with_paper_times(self):
        a = inp_at(115, 215, 315, name="A")
        b = inp_at(64, 184, 304, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
        report = verify_design(time_limit=300)
        assert report.ok
        assert report.events["low"] == [89.0, 209.0, 329.0]

    def test_budget_exhaustion_reports_incomplete(self):
        a = inp_at(115, 215, 315, name="A")
        b = inp_at(64, 184, 304, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
        report = verify_design(max_states=20)
        assert not report.result.completed
        assert not report.ok
        assert "INCOMPLETE" in report.summary()


class TestQueryViolations:
    def test_wrong_output_times_detected(self):
        a = inp_at(100.0, name="A")
        jtl(a, name="Q")
        translation = translate_circuit(working_circuit())
        bad = Query(
            kind="output_times",
            properties=[
                OutputTimesProperty(name, "fta_end", (9999,))
                for name in translation.firing_tas_by_channel["Q"]
            ],
        )
        result = ModelChecker(translation.network, time_limit=30).run([bad])
        assert result.completed
        assert result.violations_for("query1")

    def test_setup_violation_reaches_error_state(self):
        """Figure 13's stimulus makes an AND error location reachable."""
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(99, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=60).run(
            [no_error_query(translation)]
        )
        violations = result.violations_for("query2")
        assert violations
        assert any("AND_err_b" in v.location for v in violations)

    def test_hold_violation_reaches_error_state(self):
        a = inp_at(30.0, 51.0, name="A")      # 51 inside DRO's hold window
        clk = inp_at(50.0, name="CLK")
        dro(a, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=30).run(
            [no_error_query(translation)]
        )
        violations = result.violations_for("query2")
        assert violations
        assert any("_h" in v.location or "err" in v.location for v in violations)

    def test_clean_stimulus_has_unreachable_errors(self):
        a = inp_at(30.0, name="A")
        clk = inp_at(50.0, name="CLK")
        dro(a, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=30).run(
            [no_error_query(translation)]
        )
        assert result.satisfied


class TestCheckerMechanics:
    def test_inclusion_pruning_explores_fewer_states(self):
        a = inp_at(100.0, 200.0, 300.0, name="A")
        jtl(a, name="Q")
        translation = translate_circuit(working_circuit())
        with_pruning = ModelChecker(translation.network).run([])
        without = ModelChecker(translation.network, use_inclusion=False).run([])
        assert with_pruning.states_explored <= without.states_explored

    def test_mc_agrees_with_simulation_timing(self):
        """Query 1 built from simulation events is satisfied: the TA
        semantics and the discrete-event semantics agree on output times."""
        a = inp_at(40.0, 90.0, name="A")
        b = inp_at(60.0, 120.0, name="B")
        c(a, b, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok
        # and the query actually constrains something:
        assert any(p.allowed_times for p in report.query1.properties)

    def test_tctl_rendering(self):
        a = inp_at(100.0, name="A")
        jtl(a, name="Q")
        report = verify_design(time_limit=30)
        tctl1 = report.query1.to_tctl()
        assert tctl1.startswith("A[] (")
        assert "fta_end imply" in tctl1
        assert "global == 1050" in tctl1
        tctl2 = report.query2.to_tctl()
        assert tctl2.startswith("A[] not (")


def _registry_circuit(name):
    entry = next(e for e in registry() if e.name == name)
    return build_in_fresh_circuit(entry)


#: (states explored, transitions fired) of every registry design the checker
#: completes under ``verify_design``'s defaults, recorded with the original
#: checker that re-closed every DBM with a full Floyd–Warshall pass. Each
#: one satisfies both queries with no violation.
EXACT_COUNTS = {
    "C": (15, 14), "C_INV": (15, 14), "M": (21, 20), "S": (25, 32),
    "JTL": (11, 10), "AND": (30, 29), "OR": (190, 195), "NAND": (192, 191),
    "NOR": (15, 14), "XOR": (115, 114), "XNOR": (26, 25), "INV": (38, 37),
    "DRO": (67, 66), "DRO_SR": (73, 72), "DRO_C": (190, 189),
    "JOIN": (15, 14), "Min-Max": (395, 946), "Adder (xSFQ)": (114, 221),
}


#: (states explored, transitions fired) of the larger designs stopped at a
#: state cap, recorded the same way.
CAPPED_COUNTS = {
    ("Race Tree", 40): (41, 63), ("Bitonic Sort 4", 10): (10, 9),
    ("Adder (Sync)", 15): (15, 20), ("Bitonic Sort 8", 1): (1, 0),
}


class TestExactnessPin:
    @pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
    def test_counts_and_verdict_unchanged(self, name):
        report = verify_design(_registry_circuit(name))
        result = report.result
        assert (result.states_explored, result.transitions_fired) == (
            EXACT_COUNTS[name]
        )
        assert result.completed and report.ok
        assert result.violations == []

    @pytest.mark.parametrize("name, cap", sorted(CAPPED_COUNTS))
    def test_capped_counts_unchanged(self, name, cap):
        result = verify_design(_registry_circuit(name), max_states=cap).result
        assert result.truncation_reason == "max_states"
        assert (result.states_explored, result.transitions_fired) == (
            CAPPED_COUNTS[name, cap]
        )


class TestTimeBudget:
    @staticmethod
    def _ticking_checker(monkeypatch, time_limit, feasible=True):
        """An AND-cell checker whose clock only moves, by 1 s, per _fire.

        The initial state of the AND network has six enabled edge sets.
        """
        clock = [0.0]
        monkeypatch.setattr(
            explorer, "_time", SimpleNamespace(monotonic=lambda: clock[0])
        )
        real_fire = ModelChecker._fire
        fired = []

        def fire(self, *args):
            fired.append(args)
            clock[0] += 1.0
            return real_fire(self, *args) if feasible else None

        monkeypatch.setattr(ModelChecker, "_fire", fire)
        translation = translate_circuit(_registry_circuit("AND"))
        return ModelChecker(translation.network, time_limit=time_limit), fired

    def test_overshoot_is_bounded_by_one_fire(self, monkeypatch):
        checker, fired = self._ticking_checker(monkeypatch, time_limit=2.5)
        result = checker.run([])
        assert result.truncation_reason == "time_limit"
        assert len(fired) == 3

    def test_cut_expansion_is_not_a_deadlock(self, monkeypatch):
        checker, fired = self._ticking_checker(
            monkeypatch, time_limit=0.5, feasible=False
        )
        result = checker.run([deadlock_query()])
        assert result.truncation_reason == "time_limit"
        assert len(fired) == 1
        assert result.violations_for("no_deadlock") == []

    def test_bitonic8_stops_near_its_time_limit(self):
        circuit = _registry_circuit("Bitonic Sort 8")
        started = time.perf_counter()
        report = verify_design(circuit, time_limit=0.5)
        assert report.result.truncation_reason == "time_limit"
        assert time.perf_counter() - started < 2.0
