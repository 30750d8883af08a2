"""Table 3: model-checking cost (Queries 1 + 2) per design.

Basic cells verify in well under a second; the min-max pair takes ~0.3 s;
the larger designs blow up (Race Tree needs 6,418 states, the sync adder
and Bitonic 8 exhaust any budget), so they are bounded here by max_states
to keep the benchmark short.
"""

import pytest

from repro.exp.registry import build_in_fresh_circuit, registry
from repro.mc import verify_design

ENTRIES = {entry.name: entry for entry in registry()}


@pytest.mark.parametrize("name", ["JTL", "C", "DRO", "AND", "JOIN"])
def test_verify_basic_cell(benchmark, name):
    circuit = build_in_fresh_circuit(ENTRIES[name])
    report = benchmark.pedantic(
        lambda: verify_design(circuit), rounds=1, iterations=1
    )
    assert report.ok


def test_verify_min_max(benchmark):
    circuit = build_in_fresh_circuit(ENTRIES["Min-Max"])
    report = benchmark.pedantic(
        lambda: verify_design(circuit), rounds=1, iterations=1
    )
    assert report.ok


def test_verify_race_tree_hits_budget(benchmark):
    """State explosion: the race tree exhausts a small budget quickly."""
    circuit = build_in_fresh_circuit(ENTRIES["Race Tree"])
    report = benchmark.pedantic(
        lambda: verify_design(circuit, max_states=400),
        rounds=1, iterations=1,
    )
    assert not report.result.completed
