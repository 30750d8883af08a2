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
  argument to ``Simulation.simulate`` (a bool, a dict, or a callable);
* a seedable random source so simulations are reproducible.

All times are picoseconds, matching the paper's examples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .errors import PylseError

#: Fraction of the nominal delay used as the default Gaussian sigma when
#: ``variability=True`` is passed without further configuration.
DEFAULT_VARIABILITY_FRACTION = 0.05


class Distribution:
    """A delay distribution; subclasses implement :meth:`sample`."""

    mean: float

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

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

    def sample(self, rng: random.Random) -> float:
        return max(0.0, rng.gauss(self.mean, self.stddev))


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

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


DelayLike = Union[float, int, Distribution]


def nominal_delay(delay: DelayLike) -> float:
    """Collapse a delay (number or distribution) to its deterministic value."""
    if isinstance(delay, Distribution):
        return delay.nominal()
    value = float(delay)
    if value < 0 or math.isnan(value) or math.isinf(value):
        raise PylseError(f"Delay must be a finite non-negative number, got {delay!r}")
    return value


def sample_delay(delay: DelayLike, rng: random.Random) -> float:
    """Sample a delay, honoring distributions."""
    if isinstance(delay, Distribution):
        return delay.sample(rng)
    return nominal_delay(delay)


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
      ``stddev`` (absolute sigma), ``fraction`` (sigma as a fraction of
      the nominal delay) and ``scheme`` (noise stream layout, below);
    * a callable ``f(delay, node) -> delay`` for full control.

    ``scheme`` selects how per-run noise streams are laid out:

    * ``"python"`` (default) — one ``random.Random(seed)`` stream consumed
      in global event order, the original reference behaviour;
    * ``"counter"`` — counter-based per-(seed, node) streams
      (:class:`repro.core.batchsim.CounterNoise` across a batch,
      :class:`repro.core.batchsim.ScalarNoise` for one seed), whose draws
      are addressable by position and independent of cross-node event
      order.
      This is the scheme the vectorized Monte-Carlo drain uses, and the
      Monte-Carlo backends select it automatically for batch-eligible
      designs so batched and per-seed sweeps stay element-wise identical.
    """

    enabled: bool = False
    cell_types: Optional[frozenset[str]] = None
    instances: Optional[frozenset[str]] = None
    stddev: Optional[float] = None
    fraction: float = DEFAULT_VARIABILITY_FRACTION
    custom: Optional[VariabilityFn] = None
    rng: random.Random = field(default_factory=random.Random)
    scheme: str = "python"

    @classmethod
    def normalize(
        cls,
        variability: Union[bool, dict, VariabilityFn],
        seed: Optional[int] = None,
    ) -> "VariabilitySpec":
        rng = random.Random(seed)
        if variability is False or variability is None:
            return cls(enabled=False, rng=rng)
        if variability is True:
            return cls(enabled=True, rng=rng)
        if callable(variability):
            return cls(enabled=True, custom=variability, rng=rng)
        if isinstance(variability, dict):
            unknown = set(variability) - {
                "cell_types", "instances", "stddev", "fraction", "scheme"
            }
            if unknown:
                raise PylseError(
                    f"Unknown variability keys: {sorted(unknown)}; "
                    "expected 'cell_types', 'instances', 'stddev', "
                    "'fraction', 'scheme'"
                )
            scheme = variability.get("scheme", "python")
            if scheme not in ("python", "counter"):
                raise PylseError(
                    f"Unknown variability scheme {scheme!r}; "
                    "expected 'python' or 'counter'"
                )
            cell_types = variability.get("cell_types")
            instances = variability.get("instances")
            return cls(
                enabled=True,
                cell_types=frozenset(cls._names(cell_types)) if cell_types else None,
                instances=frozenset(cls._names(instances)) if instances else None,
                stddev=variability.get("stddev"),
                fraction=variability.get("fraction", DEFAULT_VARIABILITY_FRACTION),
                rng=rng,
                scheme=scheme,
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

    def perturb(self, delay: float, node: object) -> float:
        """Apply variability to a nominal firing delay."""
        if self.custom is not None:
            return max(0.0, float(self.custom(delay, node)))
        sigma = self.stddev if self.stddev is not None else delay * self.fraction
        return max(0.0, self.rng.gauss(delay, sigma))
