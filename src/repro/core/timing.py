"""Time values and timing distributions.

Section 5.1 notes that "PyLSE allows you to express the timing behavior of an
SCE cell as a distribution", and Section 5.2 describes simulation-time
variability where "every individual propagation delay ... will have a small
amount of delay, by default taken from a Gaussian distribution, added to or
subtracted from it".

This module provides:

* :class:`Normal` and :class:`Uniform` delay distributions that can be used
  anywhere a firing delay is expected;
* :class:`VariabilitySpec`, the normalized form of the ``variability``
  argument to ``Simulation.simulate`` (a bool, a dict, or a callable).

Every random draw — variability noise, distribution-valued delays and
seeded priority tie-breaks — comes from the counter-based per-(seed, node)
streams of :mod:`repro.core.batchsim`, so this module holds no random
source of its own.

All times are picoseconds, matching the paper's examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .errors import PylseError

#: Fraction of the nominal delay used as the default Gaussian sigma when
#: ``variability=True`` is passed without further configuration.
DEFAULT_VARIABILITY_FRACTION = 0.05


class Distribution:
    """A delay distribution: :class:`Normal` or :class:`Uniform`.

    The set is closed: the noise streams draw only these two shapes, and
    :func:`nominal_delay` rejects any other subclass, which stops it when
    a machine or hole is built.
    """

    mean: float

    def nominal(self) -> float:
        """The deterministic value used when variability is disabled."""
        return self.mean


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian-distributed delay, truncated at zero.

    >>> Normal(9.2, 0.5).nominal()
    9.2
    """

    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise PylseError(f"Normal delay mean must be >= 0, got {self.mean}")
        if self.stddev < 0:
            raise PylseError(f"Normal delay stddev must be >= 0, got {self.stddev}")


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniformly-distributed delay over ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise PylseError(
                f"Uniform delay bounds must satisfy 0 <= low <= high, "
                f"got [{self.low}, {self.high}]"
            )

    @property
    def mean(self) -> float:  # type: ignore[override]
        return (self.low + self.high) / 2.0


DelayLike = Union[float, int, Distribution]


def nominal_delay(delay: DelayLike) -> float:
    """Collapse a delay (number or distribution) to its deterministic value."""
    if isinstance(delay, (Normal, Uniform)):
        return delay.nominal()
    if isinstance(delay, Distribution):
        raise PylseError(
            f"Unsupported delay distribution {type(delay).__name__}: "
            "a delay is a number, Normal or Uniform"
        )
    value = float(delay)
    if value < 0 or math.isnan(value) or math.isinf(value):
        raise PylseError(f"Delay must be a finite non-negative number, got {delay!r}")
    return value


#: Signature of a user-supplied variability function: it receives the nominal
#: delay and the node the pulse fires from, and returns the perturbed delay.
VariabilityFn = Callable[[float, "object"], float]


@dataclass
class VariabilitySpec:
    """Normalized view of ``Simulation.simulate(variability=...)``.

    ``variability`` may be:

    * ``False`` — deterministic simulation (the default);
    * ``True`` — Gaussian noise on every firing delay;
    * a ``dict`` with optional keys ``cell_types`` (iterable of cell-name
      strings), ``instances`` (iterable of node names or node objects),
      ``stddev`` (absolute sigma) and ``fraction`` (sigma as a fraction of
      the nominal delay);
    * a callable ``f(delay, node) -> delay`` for full control; it sees the
      constant delays only and its result is clamped at 0.

    The spec says *which* delays are perturbed and by how much; the draws
    come from the per-(seed, node) counter streams
    (:class:`repro.core.batchsim.ScalarNoise` for one seed,
    :class:`repro.core.batchsim.CounterNoise` across a batch), so a
    plain seeded ``simulate`` and every Monte-Carlo path draw the same
    noise for the same seed.
    """

    enabled: bool = False
    cell_types: Optional[frozenset[str]] = None
    instances: Optional[frozenset[str]] = None
    stddev: Optional[float] = None
    fraction: float = DEFAULT_VARIABILITY_FRACTION
    custom: Optional[VariabilityFn] = None

    @classmethod
    def normalize(
        cls, variability: Union[bool, dict, VariabilityFn]
    ) -> "VariabilitySpec":
        if variability is False or variability is None:
            return cls(enabled=False)
        if variability is True:
            return cls(enabled=True)
        if callable(variability):
            return cls(enabled=True, custom=variability)
        if isinstance(variability, dict):
            unknown = set(variability) - {
                "cell_types", "instances", "stddev", "fraction"
            }
            if unknown:
                raise PylseError(
                    f"Unknown variability keys: {sorted(unknown)}; "
                    "expected 'cell_types', 'instances', 'stddev', "
                    "'fraction'"
                )
            cell_types = variability.get("cell_types")
            instances = variability.get("instances")
            return cls(
                enabled=True,
                cell_types=frozenset(cls._names(cell_types)) if cell_types else None,
                instances=frozenset(cls._names(instances)) if instances else None,
                stddev=variability.get("stddev"),
                fraction=variability.get("fraction", DEFAULT_VARIABILITY_FRACTION),
            )
        raise PylseError(
            f"variability must be a bool, dict, or callable, got {type(variability).__name__}"
        )

    @staticmethod
    def _names(items: Iterable) -> Iterable[str]:
        for item in items:
            yield item if isinstance(item, str) else getattr(item, "name", str(item))

    def applies_to(self, cell_name: str, instance_name: str) -> bool:
        """Whether this spec perturbs delays of the given node."""
        if not self.enabled:
            return False
        if self.cell_types is None and self.instances is None:
            return True
        if self.cell_types is not None and cell_name in self.cell_types:
            return True
        if self.instances is not None and instance_name in self.instances:
            return True
        return False
