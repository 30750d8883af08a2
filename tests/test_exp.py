"""Tests for the experiment harnesses (repro.exp)."""

import pytest

from repro.core.transitional import Transitional
from repro.exp import (
    dynamic_checks, figures, registry as registry_mod, table2, table3,
    variability,
)
from repro.exp.registry import build_in_fresh_circuit, pylse_stats, registry


class TestRegistry:
    def test_22_designs_in_table3_order(self):
        entries = registry()
        assert len(entries) == 22
        assert [e.name for e in entries[:5]] == ["C", "C_INV", "M", "S", "JTL"]
        assert entries[-1].name == "Bitonic Sort 8"

    def test_all_entries_build_and_simulate(self):
        from repro.core.simulation import Simulation

        for entry in registry():
            circuit = build_in_fresh_circuit(entry)
            events = Simulation(circuit).simulate()
            assert events, entry.name

    def test_pylse_stats_counts_cells(self):
        entry = next(e for e in registry() if e.name == "Min-Max")
        circuit = build_in_fresh_circuit(entry)
        stats = pylse_stats(circuit)
        assert stats == {"cells": 5, "states": 9, "transitions": 15}

    def test_basic_cells_have_dsl_size(self):
        for entry in registry():
            assert entry.dsl_size > 0

    def test_bitonic8_has_120_cells(self):
        entry = next(e for e in registry() if e.name == "Bitonic Sort 8")
        circuit = build_in_fresh_circuit(entry)
        assert pylse_stats(circuit)["cells"] == 120


class TestFigures:
    def test_figure12_exact(self):
        events = figures.figure12()
        assert events["Q"] == [209.2, 259.2, 309.2]

    def test_figure13_message(self):
        message = figures.figure13()
        assert "transition '7'" in message
        assert "past_constraints" in message

    def test_figure10_memory(self):
        events = figures.figure10()
        assert events["q1"] == [80.0]
        assert events["q0"] == [80.0]

    @pytest.mark.slow
    def test_figure16_panels_agree(self):
        panels = figures.figure16(analog_dt=0.1)
        assert [p.name for p in panels] == [
            "C Element", "Min-Max Pair", "Bitonic Sort 8",
        ]
        for panel in panels:
            assert panel.functionally_agree(), panel.name
            assert panel.analog_seconds > panel.pylse_seconds


class TestTable2:
    @pytest.mark.slow
    def test_shape_claims(self):
        rows = table2.run(analog_dt=0.2)
        assert len(rows) == 4
        for row in rows:
            assert row.size_ratio > 1, row.name
            # Machine-independent work metric: per-junction RK4 steps vs
            # discrete pulses processed. The wall-clock time_ratio is
            # host-dependent and is tracked by tools/bench_guard.py as the
            # non-gating table2_time_ratio metric instead of asserted here.
            assert row.work_ratio > 10, row.name
            assert row.schematic_steps > 0, row.name
            assert row.pylse_events > 0, row.name
        text = table2.render(rows)
        assert "Bitonic Sort 8" in text
        assert "average" in text

    def test_work_metrics_are_deterministic(self):
        # Same design, same dt => identical work counts on any host.
        first = table2.run(analog_dt=1.0)
        second = table2.run(analog_dt=1.0)
        for a, b in zip(first, second):
            assert a.schematic_steps == b.schematic_steps, a.name
            assert a.pylse_events == b.pylse_events, a.name
            assert a.work_ratio == b.work_ratio, a.name


class TestTable3:
    def test_sizes_without_verification(self):
        rows = table3.run(skip_verification=True)
        assert len(rows) == 22
        by_name = {r.name: r for r in rows}
        and_row = by_name["AND"]
        assert and_row.ta == 5                    # matches the paper
        assert and_row.channels == 4
        assert by_name["Bitonic Sort 8"].cells == 120
        # TA networks are uniformly larger than the machines they encode.
        for row in rows:
            assert row.locations > row.states
            assert row.ta_transitions > row.transitions

    def test_verification_column_on_small_cells(self):
        entries = [e for e in registry() if e.name in ("JTL", "S")]
        rows = table3.run(entries=entries, max_states=50_000, time_limit=30)
        for row in rows:
            assert row.satisfied is True
            assert row.states_explored > 0

    def test_budget_shows_infinity(self):
        entries = [e for e in registry() if e.name == "Bitonic Sort 4"]
        rows = table3.run(entries=entries, max_states=50, time_limit=5)
        assert rows[0].verify_seconds is None
        text = table3.render(rows)
        assert "inf" in text


class TestDynamicChecks:
    def test_join_check(self):
        outcome = dynamic_checks.check_join()
        assert outcome.passed, outcome.detail

    def test_race_tree_checks(self):
        for outcome in dynamic_checks.check_race_tree():
            assert outcome.passed, outcome.detail

    def test_bitonic_check(self):
        assert dynamic_checks.check_bitonic().passed

    def test_variability_check_small(self):
        outcome = dynamic_checks.check_variability(seeds=(0, 1), sigma=0.3)
        assert outcome.passed, outcome.detail

    def test_variability_check_reports_failing_seeds(self):
        outcome = dynamic_checks.check_variability(seeds=range(20), sigma=1.0)
        assert not outcome.passed
        assert outcome.detail == (
            "failures=[(7, 'mis-behaved'), (16, 'mis-behaved')]"
        )

    def test_variability_sweep_pass_counts(self):
        """The EXPERIMENTS.md table: seeds 0-19 per sigma, each run on
        the same counter streams ``yield_curve`` and ``simulate`` draw."""
        rows = variability.run()
        assert [row.sigma for row in rows] == list(variability.DEFAULT_SIGMAS)
        assert [row.ok for row in rows] == [20, 20, 20, 18, 10, 3]
        assert all(row.violations == 0 for row in rows)
        assert all(row.total == 20 for row in rows)

    def test_join_interleaving_detects_violation(self):
        events = {
            "A_T": [10.0, 20.0],   # two A pulses with no B between
            "A_F": [],
            "B_T": [30.0, 40.0],
            "B_F": [],
        }
        assert not dynamic_checks.join_interleaving(events)

    def test_bitonic_rank_order_detects_disorder(self):
        events = {"o0": [100.0], "o1": [90.0]}
        assert not dynamic_checks.bitonic_rank_order(events, 2)
        events = {"o0": [90.0], "o1": [100.0]}
        assert dynamic_checks.bitonic_rank_order(events, 2)
        events = {"o0": [90.0, 95.0], "o1": [100.0]}   # double pulse
        assert not dynamic_checks.bitonic_rank_order(events, 2)


class TestCli:
    def test_main_dispatches_single_experiment(self, capsys):
        from repro.exp.__main__ import main

        assert main(["dynamic"]) == 0
        out = capsys.readouterr().out
        assert "dynamic correctness checks" in out
