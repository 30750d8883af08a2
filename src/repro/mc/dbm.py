"""Difference Bound Matrices: the zone representation for TA model checking.

A zone over clocks ``x_1..x_n`` (plus the reference clock ``x_0 = 0``) is a
conjunction of difference constraints ``x_i - x_j <= c`` / ``< c``. The DBM
stores one encoded bound per ordered pair; in canonical (all-pairs shortest
path) form, emptiness, inclusion and projection are trivial.

Encoding (the classic UPPAAL trick): a bound ``(c, <=)`` is the integer
``2c + 1``; a bound ``(c, <)`` is ``2c``; "no bound" is :data:`INF`. Bound
addition and comparison then reduce to integer arithmetic and ``min``:
``a + b - ((a | b) & 1)`` adds two encoded bounds, and a sum that reaches
``INF >> 1`` still means "no bound".

A :class:`DBM` is always canonical, or empty with a negative diagonal
entry (Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools",
2004): :meth:`DBM.constrain` closes incrementally in O(n^2), ``up`` and
``reset`` preserve canonical form, and only :meth:`DBM.extrapolate` —
when it relaxes a bound — leaves work for the O(n^3) closure.

All matrices are numpy ``int64``; rows index ``i`` of ``x_i - x_j <= b``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core._np import np
from ..core.errors import PylseError

#: "No bound" sentinel. Any value at or above ``INF >> 1`` also means "no
#: bound", so an encoded sum that involves INF never needs a special case.
INF = np.int64(1) << 40

#: Encoded bound (0, <=): the diagonal value of every consistent DBM.
LE_ZERO = np.int64(1)

#: Stand-in for INF in the incremental update: far enough above INF that
#: adding any finite bound cannot bring the sum below INF.
_LIFTED_INF = 2 * INF


def bound(value: int, strict: bool) -> int:
    """Encode a bound: ``(value, <)`` if strict else ``(value, <=)``."""
    return 2 * value + (0 if strict else 1)


def bound_value(encoded: int) -> int:
    """The numeric constant of an encoded bound."""
    return int(encoded) >> 1


def bound_is_strict(encoded: int) -> bool:
    return (int(encoded) & 1) == 0


class DBM:
    """A zone over ``n`` real clocks, always in canonical form.

    Index 0 is the reference clock; user clocks are 1..n. The matrix entry
    ``m[i, j]`` encodes the bound on ``x_i - x_j``. Every operation keeps a
    canonical matrix canonical except :meth:`extrapolate`, whose return
    value says when :meth:`canonicalize` must run. An empty zone has a
    negative diagonal entry (see :meth:`is_empty`); its other entries are
    meaningless.
    """

    __slots__ = ("m", "n")

    def __init__(self, n: int, matrix: Optional[np.ndarray] = None):
        self.n = n
        if matrix is not None:
            self.m = matrix
        else:
            # All clocks equal to zero.
            self.m = np.full((n + 1, n + 1), LE_ZERO, dtype=np.int64)

    def copy(self) -> "DBM":
        return DBM(self.n, self.m.copy())

    # ------------------------------------------------------------------
    # canonical form and emptiness
    # ------------------------------------------------------------------
    def canonicalize(self) -> "DBM":
        """Floyd–Warshall closure (in place); returns self.

        Stops at the first negative diagonal entry: the zone is empty, and
        further pivots would only deepen the negative cycle.
        """
        m = self.m
        via_k = np.empty_like(m)
        strict = np.empty_like(m)
        for k in range(self.n + 1):
            col = m[:, k : k + 1]
            row = m[k : k + 1, :]
            np.add(col, row, out=via_k)
            np.bitwise_or(col, row, out=strict)
            strict &= 1
            via_k -= strict
            np.minimum(m, via_k, out=m)
            if m[k, k] < LE_ZERO:
                return self
        m[m >= INF >> 1] = INF
        return self

    def is_empty(self) -> bool:
        """A canonical DBM is empty iff some diagonal entry is negative."""
        return bool((np.diagonal(self.m) < LE_ZERO).any())

    # ------------------------------------------------------------------
    # operations (each returns self; callers copy() first when needed)
    # ------------------------------------------------------------------
    def up(self) -> "DBM":
        """Delay: remove upper bounds on all clocks (keeps canonical form)."""
        self.m[1:, 0] = INF
        return self

    def reset(self, clock: int) -> "DBM":
        """Set clock ``clock`` to zero (keeps canonical form)."""
        if not 1 <= clock <= self.n:
            raise PylseError(f"Clock index {clock} out of range 1..{self.n}")
        self.m[clock, :] = self.m[0, :]
        self.m[:, clock] = self.m[:, 0]
        self.m[clock, clock] = LE_ZERO
        return self

    def constrain(self, i: int, j: int, encoded: int) -> "DBM":
        """Intersect with ``x_i - x_j <= / < c``, keeping canonical form.

        The new edge is the only way a path can get shorter, so one O(n^2)
        pass closes the matrix: ``m[k, l] = min(m[k, l], m[k, i] + c +
        m[j, l])``. If the edge closes a negative cycle with ``x_j - x_i``
        the zone is empty, and that cycle is stored on the diagonal.
        """
        m = self.m
        if encoded >= m[i, j]:
            return self
        col = m[:, i]
        # x_k - x_j through the new edge, with "no bound" lifted out of reach.
        into_j = np.where(
            col >= INF, _LIFTED_INF, col + encoded - ((col | encoded) & 1)
        )
        if into_j[j] < LE_ZERO:  # the cycle x_j -> x_i -> x_j is negative
            m[j, j] = into_j[j]
            return self
        row = m[j, :]
        from_j = np.where(row >= INF, _LIFTED_INF, row)
        via = into_j[:, None] + from_j
        via -= (into_j[:, None] | from_j) & 1
        np.minimum(m, via, out=m)
        return self

    def constrain_upper(self, clock: int, value: int, strict: bool) -> "DBM":
        """``x_clock <= value`` (or ``<``)."""
        return self.constrain(clock, 0, bound(value, strict))

    def constrain_lower(self, clock: int, value: int, strict: bool) -> "DBM":
        """``x_clock >= value`` (or ``>``), i.e. ``x_0 - x_clock <= -value``."""
        return self.constrain(0, clock, bound(-value, strict))

    # ------------------------------------------------------------------
    # queries (on canonical DBMs)
    # ------------------------------------------------------------------
    def includes(self, other: "DBM") -> bool:
        """True iff ``other``'s zone is a subset of this zone."""
        return bool((other.m <= self.m).all())

    def clock_bounds(self, clock: int) -> Tuple[int, Optional[int]]:
        """The (lower, upper) numeric range of a clock; upper None if unbounded."""
        lower = -bound_value(self.m[0, clock])
        upper_encoded = self.m[clock, 0]
        upper = None if upper_encoded >= INF else bound_value(upper_encoded)
        return lower, upper

    def clock_is_pinned(self, clock: int) -> bool:
        """True iff the zone fixes the clock to a single value."""
        lower, upper = self.clock_bounds(clock)
        return upper is not None and lower == upper

    # ------------------------------------------------------------------
    # extrapolation (termination)
    # ------------------------------------------------------------------
    def extrapolate(self, max_constants: Sequence[int]) -> bool:
        """Classic ExtraM abstraction with per-clock maximum constants.

        ``max_constants[i]`` is the largest constant clock ``i`` is ever
        compared against (index 0 must be 0). Bounds above ``M(i)`` are
        dropped to INF; lower bounds below ``-M(j)`` are relaxed. Returns
        True iff some bound was relaxed: only then is the matrix no longer
        canonical, and the caller must :meth:`canonicalize` it.
        """
        m = self.m
        maxima = np.asarray(max_constants, dtype=np.int64)
        upper_limit = 2 * maxima[:, None] + 1          # (M(i), <=) per row
        lower_limit = -2 * maxima[None, :]             # (-M(j), <) per column
        too_high = (m > upper_limit) & (m < INF)
        too_low = m < lower_limit
        if not (too_high.any() or too_low.any()):
            return False
        m[too_high] = INF
        m[too_low] = np.broadcast_to(lower_limit, m.shape)[too_low]
        np.fill_diagonal(m, LE_ZERO)
        m[0, 1:] = np.minimum(m[0, 1:], LE_ZERO)       # clocks are nonnegative
        return True

    # ------------------------------------------------------------------
    def key(self) -> bytes:
        """Hashable canonical-form fingerprint."""
        return self.m.tobytes()

    def __repr__(self) -> str:
        ranges = ", ".join(
            f"x{i}:[{self.clock_bounds(i)[0]}, "
            f"{self.clock_bounds(i)[1] if self.clock_bounds(i)[1] is not None else 'inf'}]"
            for i in range(1, self.n + 1)
        )
        return f"DBM({ranges})"


def zero_zone(n: int) -> DBM:
    """The zone where every clock equals zero (already canonical)."""
    return DBM(n)
