"""Unit and property tests for Difference Bound Matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mc.dbm import (
    DBM,
    INF,
    LE_ZERO,
    bound,
    bound_is_strict,
    bound_value,
    zero_zone,
)


# --------------------------------------------------------------------------
# reference implementation: lazy constrain plus a textbook closure
# --------------------------------------------------------------------------
def add_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Encoded-bound addition spelled out: values, strictness, INF."""
    result = (np.right_shift(a, 1) + np.right_shift(b, 1)) * 2 + (a & 1) * (b & 1)
    return np.where((a >= INF) | (b >= INF), INF, result)


def reference_close(m: np.ndarray) -> np.ndarray:
    """Floyd–Warshall over :func:`add_bounds`, every pivot, on a copy."""
    m = m.copy()
    for k in range(len(m)):
        np.minimum(m, add_bounds(m[:, k : k + 1], m[k : k + 1, :]), out=m)
    return m


def reference_constrain(m: np.ndarray, i: int, j: int, encoded: int) -> np.ndarray:
    """Tighten one entry, then close the whole matrix."""
    m = m.copy()
    m[i, j] = min(m[i, j], encoded)
    return reference_close(m)


def reference_is_empty(m: np.ndarray) -> bool:
    return bool((np.diagonal(m) < LE_ZERO).any())


class TestBoundEncoding:
    def test_roundtrip(self):
        assert bound_value(bound(5, False)) == 5
        assert bound_value(bound(5, True)) == 5
        assert bound_is_strict(bound(5, True))
        assert not bound_is_strict(bound(5, False))

    def test_negative_values(self):
        assert bound_value(bound(-3, False)) == -3
        assert bound_is_strict(bound(-3, True))

    def test_ordering_strict_below_nonstrict(self):
        assert bound(5, True) < bound(5, False)
        assert bound(4, False) < bound(5, True)

    def test_add_bounds_combines_strictness(self):
        a = np.array([bound(2, False)])
        b = np.array([bound(3, False)])
        assert add_bounds(a, b)[0] == bound(5, False)
        b_strict = np.array([bound(3, True)])
        assert add_bounds(a, b_strict)[0] == bound(5, True)

    def test_add_bounds_inf_absorbs(self):
        a = np.array([INF])
        b = np.array([bound(3, False)])
        assert add_bounds(a, b)[0] == INF


class TestZoneOperations:
    def test_zero_zone_pins_all_clocks(self):
        z = zero_zone(2)
        assert z.clock_bounds(1) == (0, 0)
        assert z.clock_is_pinned(2)
        assert not z.is_empty()

    def test_up_unbounds_upper(self):
        z = zero_zone(1).up()
        low, high = z.clock_bounds(1)
        assert low == 0 and high is None

    def test_constrain_upper_then_bounds(self):
        z = zero_zone(1).up()
        z.constrain_upper(1, 10, strict=False)
        assert z.clock_bounds(1) == (0, 10)

    def test_contradiction_is_empty(self):
        z = zero_zone(1).up()
        z.constrain_lower(1, 10, strict=False)
        z.constrain_upper(1, 5, strict=False)
        assert z.is_empty()

    def test_reset_after_delay(self):
        z = zero_zone(2).up()
        z.constrain_lower(1, 10, strict=False)
        z.reset(1)
        assert z.clock_bounds(1) == (0, 0)
        low2, high2 = z.clock_bounds(2)
        assert low2 == 10 and high2 is None

    def test_reset_preserves_other_differences(self):
        """After delay and reset of x1, x2 - x1 equals elapsed time."""
        z = zero_zone(2).up()
        z.constrain_lower(1, 7, strict=False)
        z.constrain_upper(1, 7, strict=False)
        z.reset(1)
        # x2 == 7, x1 == 0 -> difference pinned at 7.
        assert z.clock_bounds(2) == (7, 7)

    def test_reset_range_checked(self):
        from repro.core.errors import PylseError

        with pytest.raises(PylseError):
            zero_zone(1).reset(2)

    def test_inclusion_reflexive_and_monotone(self):
        z = zero_zone(2)
        assert z.includes(z)
        widened = z.copy().up()
        assert widened.includes(z)
        assert not z.includes(widened)

    def test_key_is_canonical_fingerprint(self):
        a = zero_zone(2)
        b = zero_zone(2)
        assert a.key() == b.key()
        b.up()
        assert a.key() != b.key()


class TestExtrapolation:
    def test_extrapolation_drops_large_bounds(self):
        z = zero_zone(1).up()
        z.constrain_lower(1, 500, strict=False)
        z.constrain_upper(1, 600, strict=False)
        assert z.extrapolate([0, 10])
        z.canonicalize()
        low, high = z.clock_bounds(1)
        assert high is None           # upper bound above M dropped
        assert low <= 10              # lower bound relaxed to around M

    def test_extrapolation_keeps_small_bounds(self):
        z = zero_zone(1).up()
        z.constrain_upper(1, 5, strict=False)
        assert not z.extrapolate([0, 10])
        assert z.clock_bounds(1) == (0, 5)

    def test_extrapolated_zone_includes_original(self):
        z = zero_zone(2).up()
        z.constrain_lower(1, 300, strict=False)
        z.constrain_upper(1, 300, strict=False)
        original = z.copy()
        z.extrapolate([0, 50, 50])
        z.canonicalize()
        assert z.includes(original)


# --------------------------------------------------------------------------
# property-based invariants
# --------------------------------------------------------------------------
constraint_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),     # clock
        st.sampled_from(["upper", "lower"]),
        st.integers(min_value=0, max_value=30),    # value
        st.booleans(),                             # strict
    ),
    max_size=6,
)


def build_zone(ops):
    z = zero_zone(3).up()
    for clock, kind, value, strict in ops:
        if kind == "upper":
            z.constrain_upper(clock, value, strict)
        else:
            z.constrain_lower(clock, value, strict)
    return z


class TestZoneProperties:
    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_canonicalize_idempotent_on_nonempty(self, ops):
        # (Empty zones have no unique canonical form — negative cycles keep
        # shrinking under Floyd-Warshall — and are discarded on sight by the
        # explorer, so idempotence is only claimed for satisfiable zones.)
        z = build_zone(ops)
        if z.is_empty():
            return
        before = z.key()
        z.canonicalize()
        assert z.key() == before

    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_nonempty_zone_includes_itself(self, ops):
        z = build_zone(ops)
        if not z.is_empty():
            assert z.includes(z)

    @given(ops=constraint_lists)
    @settings(max_examples=80)
    def test_up_is_superset(self, ops):
        z = build_zone(ops)
        if z.is_empty():
            return
        up = z.copy().up()
        assert up.includes(z)

    @given(ops=constraint_lists, clock=st.integers(1, 3))
    @settings(max_examples=80)
    def test_reset_pins_clock_to_zero(self, ops, clock):
        z = build_zone(ops)
        if z.is_empty():
            return
        z.reset(clock)
        assert z.clock_bounds(clock) == (0, 0)

    @given(ops=constraint_lists)
    @settings(max_examples=60)
    def test_extrapolation_only_widens(self, ops):
        z = build_zone(ops)
        if z.is_empty():
            return
        original = z.copy()
        if z.extrapolate([0, 10, 10, 10]):
            z.canonicalize()
        assert z.includes(original)


# --------------------------------------------------------------------------
# the always-canonical DBM against the reference (lazy constrain + closure)
# --------------------------------------------------------------------------
N_CLOCKS = 3

zone_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("constrain"),
            st.integers(0, N_CLOCKS),                   # i
            st.integers(0, N_CLOCKS),                   # j
            st.integers(-30, 30),                       # value
            st.booleans(),                              # strict
        ).filter(lambda op: op[1] != op[2]),
        st.tuples(st.just("up")),
        st.tuples(st.just("reset"), st.integers(1, N_CLOCKS)),
    ),
    max_size=12,
)

encoded_entries = st.one_of(
    st.just(int(INF)),
    st.builds(bound, st.integers(-40, 60), st.booleans()),
)


@st.composite
def raw_matrices(draw, max_clocks=4):
    """Arbitrary (usually non-canonical, often empty) DBM matrices."""
    n = draw(st.integers(1, max_clocks))
    m = np.array(
        draw(st.lists(encoded_entries, min_size=(n + 1) ** 2,
                      max_size=(n + 1) ** 2)),
        dtype=np.int64,
    ).reshape(n + 1, n + 1)
    np.fill_diagonal(m, LE_ZERO)
    return m


def apply_op(z: DBM, ref: np.ndarray, op):
    """Apply one op to the DBM under test (no closure) and to the
    reference matrix (closed after every op)."""
    if op[0] == "constrain":
        _, i, j, value, strict = op
        z.constrain(i, j, bound(value, strict))
        return reference_constrain(ref, i, j, bound(value, strict))
    ref_zone = DBM(z.n, ref.copy())
    if op[0] == "up":
        z.up()
        ref_zone.up()
    else:
        z.reset(op[1])
        ref_zone.reset(op[1])
    return reference_close(ref_zone.m)


class TestAgainstReference:
    @given(ops=zone_ops)
    @example(ops=[  # x1 - x2 and x1 unbounded when x2 >= 3 tightens
        ("up",), ("constrain", 0, 1, -5, False), ("reset", 2), ("up",),
        ("constrain", 0, 2, -3, False),
    ])
    @settings(max_examples=200, deadline=None)
    def test_constrain_matches_reference_close(self, ops):
        z = zero_zone(N_CLOCKS)
        ref = z.m.copy()
        for op in ops:
            ref = apply_op(z, ref, op)
            assert z.is_empty() == reference_is_empty(ref)
            if z.is_empty():
                return
            assert np.array_equal(z.m, ref)

    @given(m=raw_matrices())
    @settings(max_examples=200, deadline=None)
    def test_canonicalize_matches_reference(self, m):
        z = DBM(len(m) - 1, m.copy()).canonicalize()
        ref = reference_close(m)
        assert z.is_empty() == reference_is_empty(ref)
        if not z.is_empty():
            assert np.array_equal(z.m, ref)

    def test_closing_an_empty_dbm_cannot_overflow(self):
        # Every pivot of a plain closure doubles this negative cycle; after
        # 65 pivots int64 would have wrapped around many times over.
        n = 64
        m = np.full((n + 1, n + 1), bound(-1000, False), dtype=np.int64)
        np.fill_diagonal(m, LE_ZERO)
        z = DBM(n, m).canonicalize()
        assert z.is_empty()
        assert z.m.min() >= bound(-4000, False)
        assert (z.m <= INF).all()

    @given(ops=zone_ops,
           maxima=st.lists(st.integers(0, 40), min_size=N_CLOCKS,
                           max_size=N_CLOCKS))
    @settings(max_examples=200, deadline=None)
    def test_skipping_closure_when_nothing_relaxed(self, ops, maxima):
        z = zero_zone(N_CLOCKS)
        ref = z.m.copy()
        for op in ops:
            ref = apply_op(z, ref, op)
            if z.is_empty():
                return
        max_constants = [0] + maxima
        skipped = z.copy()
        before = skipped.m.copy()
        if skipped.extrapolate(max_constants):
            skipped.canonicalize()
        else:
            assert np.array_equal(skipped.m, before)
        always = z.copy()
        always.extrapolate(max_constants)
        assert np.array_equal(skipped.m, reference_close(always.m))


class TestExplorerZonesMatchReference:
    """Every zone the checker settles, bit for bit, under both engines."""

    @staticmethod
    def settled_zones(name):
        from repro.exp.registry import build_in_fresh_circuit, registry
        from repro.mc import ModelChecker, verify_design

        entry = next(e for e in registry() if e.name == name)
        keys = []
        real_settle = ModelChecker._settle

        def settle(self, z, locvec):
            out = real_settle(self, z, locvec)
            keys.append(None if out is None else out.key())
            return out

        ModelChecker._settle = settle
        try:
            verify_design(build_in_fresh_circuit(entry))
        finally:
            ModelChecker._settle = real_settle
        return keys

    @pytest.mark.parametrize("name", ["AND", "XOR", "DRO_C"])
    def test_settled_zones_match(self, name, monkeypatch):
        incremental = self.settled_zones(name)

        def constrain(self, i, j, encoded):
            if encoded < self.m[i, j]:
                self.m = reference_constrain(self.m, i, j, encoded)
            return self

        def canonicalize(self):
            self.m = reference_close(self.m)
            return self

        real_extrapolate = DBM.extrapolate

        def extrapolate(self, max_constants):
            real_extrapolate(self, max_constants)
            return True

        monkeypatch.setattr(DBM, "constrain", constrain)
        monkeypatch.setattr(DBM, "canonicalize", canonicalize)
        monkeypatch.setattr(DBM, "extrapolate", extrapolate)
        reference = self.settled_zones(name)
        assert len(set(incremental)) > 10
        assert incremental == reference
