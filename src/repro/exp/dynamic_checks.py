"""Section 5.2: simulation and dynamic correctness checks.

The paper uses the ``events`` dict returned by a simulation to assert
correctness properties of designs in plain Python. This module packages the
three published checks (2x2 Join interleaving, race-tree single winner,
bitonic rank order) plus the variability robustness evaluation, each as a
function returning a pass/fail result with detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

from ..core.circuit import Circuit, fresh_circuit
from ..core.helpers import inp_at
from ..core.montecarlo import measure_yield
from ..core.simulation import Events, Simulation
from ..designs import bitonic, racetree
from ..sfq import join


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def join_interleaving(events: Events) -> bool:
    """The paper's 2x2 Join check: A pulses and B pulses must alternate.

    This is the verbatim logic from Section 5.2: sort all input pulses by
    time, pair them up, and require each consecutive pair to involve both
    an A-rail and a B-rail pulse.
    """
    inputs = sorted(
        (
            (w, p)
            for w, evs in events.items()
            for p in evs
            if w in ("A_T", "A_F", "B_T", "B_F")
        ),
        key=lambda x: x[1],
    )
    zipped = list(zip(inputs[0::2], inputs[1::2]))
    return all(x[0][0] != y[0][0] for x, y in zipped)


def check_join() -> CheckOutcome:
    """Simulate a 2x2 Join and verify the interleaving property holds."""
    with fresh_circuit() as circuit:
        a_t = inp_at(20.0, 100.0, name="A_T")
        a_f = inp_at(60.0, name="A_F")
        b_t = inp_at(40.0, 120.0, name="B_T")
        b_f = inp_at(80.0, name="B_F")
        outs = join(a_t, a_f, b_t, b_f, names="tt tf ft ff")
    events = Simulation(circuit).simulate()
    interleaved = join_interleaving(events)
    fired = sum(len(events[name]) for name in ("tt", "tf", "ft", "ff"))
    passed = interleaved and fired == 3  # three complete (A, B) pairs
    del outs
    return CheckOutcome(
        "2x2 Join interleaving",
        passed,
        f"interleaved={interleaved}, outputs fired={fired}",
    )


def race_tree_single_winner(events: Events) -> bool:
    """The paper's race-tree check: exactly one label fires."""
    return (
        sum(len(evs) for out, evs in events.items() if out in ("a", "b", "c", "d"))
        == 1
    )


def check_race_tree(
    feature_pairs: Sequence[tuple] = ((3.0, 4.0), (3.0, 15.0), (14.0, 2.0), (16.0, 17.0)),
) -> List[CheckOutcome]:
    """Evaluate the race tree on several feature vectors; one winner each."""
    outcomes = []
    for x1, x2 in feature_pairs:
        with fresh_circuit() as circuit:
            times = racetree.race_tree_inputs(x1, x2)
            wires = {k: inp_at(v, name=k) for k, v in times.items()}
            leaves = racetree.race_tree(
                wires["x1"], wires["t1"], wires["x2a"], wires["t2"],
                wires["x2b"], wires["t3"],
            )
            for leaf, label in zip(leaves, "abcd"):
                leaf.observe(label)
        events = Simulation(circuit).simulate()
        single = race_tree_single_winner(events)
        winner = [label for label in "abcd" if events[label]]
        expected = racetree.expected_label(x1, x2)
        outcomes.append(
            CheckOutcome(
                f"race tree ({x1}, {x2})",
                single and winner == [expected],
                f"winner={winner}, expected={expected!r}",
            )
        )
    return outcomes


def bitonic_rank_order(events: Events, n: int) -> bool:
    """The paper's bitonic check: one pulse per output, in rank order."""
    out_events = {e[0]: e[1] for e in events.items() if e[0].startswith("o")}
    ordered_names = sorted(out_events.keys())
    ranked = [
        es
        for _, es in sorted(
            out_events.items(), key=lambda x: ordered_names.index(x[0])
        )
    ]
    if not all(len(es) == 1 for es in ranked):
        return False
    return all(x[0] <= y[0] for x, y in zip(ranked, ranked[1:]))


def bitonic_circuit(times: Sequence[float]) -> Circuit:
    """A fresh bitonic sorter fed ``times`` (inputs ``i<k>``, outputs
    ``o<k>``): the design of the bitonic and variability checks."""
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(times)]
        bitonic.bitonic_sorter(ins, output_names=[f"o{k}" for k in range(len(times))])
    return circuit


def check_bitonic(times: Sequence[float] = (20, 70, 10, 45, 5, 90, 33, 60)) -> CheckOutcome:
    """Simulate the 8-input sorter and verify rank order."""
    events = Simulation(bitonic_circuit(times)).simulate()
    passed = bitonic_rank_order(events, len(times))
    return CheckOutcome("bitonic rank order", passed, f"inputs={list(times)}")


def check_variability(
    seeds: Sequence[int] = tuple(range(8)), sigma: float = 0.5
) -> CheckOutcome:
    """Robustness under Gaussian delay variability (Section 5.2).

    Re-runs the bitonic-8 sorter with per-delay noise; a run fails if a
    timing violation is raised or the rank order breaks. With widely spaced
    inputs the design should tolerate sigma ~0.5 ps.
    """
    times = (20, 70, 10, 45, 5, 90, 33, 60)
    result = measure_yield(
        partial(bitonic_circuit, times),
        partial(bitonic_rank_order, n=len(times)),
        sigma,
        seeds,
    )
    failures = sorted(result.failures.items())
    return CheckOutcome(
        f"bitonic under variability (sigma={sigma})",
        not failures,
        f"failures={failures}" if failures else f"{len(seeds)} seeds clean",
    )


def run_all() -> List[CheckOutcome]:
    outcomes = [check_join()]
    outcomes += check_race_tree()
    outcomes.append(check_bitonic())
    outcomes.append(check_variability())
    return outcomes


def main() -> str:
    lines = ["Section 5.2 dynamic correctness checks:"]
    for outcome in run_all():
        mark = "PASS" if outcome.passed else "FAIL"
        lines.append(f"  [{mark}] {outcome.name}: {outcome.detail}")
    report = "\n".join(lines)
    print(report)
    return report
