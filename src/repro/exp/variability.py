"""Section 5.2's robustness evaluation: sweeping Gaussian delay variability.

Re-runs the 8-input bitonic sorter under increasing per-delay noise and
classifies each run as OK, mis-sorted, or timing violation — the failure
modes the paper says variability analysis should expose ("such variance can
lead to pulses arriving at their destination cells too early or late,
causing the design to fail unexpectedly").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

from ..core.montecarlo import yield_curve
from .dynamic_checks import bitonic_circuit, bitonic_rank_order

DEFAULT_SIGMAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_VALUES = (20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0)


@dataclass
class SweepRow:
    sigma: float
    ok: int
    mis_sorted: int
    violations: int

    @property
    def total(self) -> int:
        return self.ok + self.mis_sorted + self.violations


def run(
    sigmas: Sequence[float] = DEFAULT_SIGMAS,
    seeds: Sequence[int] = tuple(range(20)),
    values: Sequence[float] = DEFAULT_VALUES,
) -> List[SweepRow]:
    """One row per sigma: how many ``seeds`` sort, mis-sort or violate.

    A seed's run is ``simulate(variability={"stddev": sigma}, seed=seed)``,
    which is what :func:`repro.core.montecarlo.yield_curve` classifies.
    """
    results = yield_curve(
        partial(bitonic_circuit, tuple(values)),
        partial(bitonic_rank_order, n=len(values)),
        sigmas,
        seeds,
    )
    return [
        SweepRow(r.sigma, r.passed, r.mis_behaved, r.violations)
        for r in results
    ]


def render(rows: List[SweepRow]) -> str:
    lines = [
        "Section 5.2 variability robustness sweep (bitonic-8):",
        f"{'sigma (ps)':>10} {'ok':>5} {'mis-sorted':>11} {'violations':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.sigma:>10.2f} {row.ok:>5} {row.mis_sorted:>11} "
            f"{row.violations:>11}"
        )
    return "\n".join(lines)


def main() -> str:
    report = render(run())
    print(report)
    return report
