"""Tests for signatures, classification, areas, triangle solving, and the
polygon laws.  Frozen values from mpmath at 40 digits."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from turnover.errors import DomainError
from turnover.trig import (
    MAX_CONE_ORDER,
    GeometryClass,
    TurnoverSignature,
    classify,
    hexagon_side,
    lambert_leg_bound,
    triangle_geometry,
    turnover_area,
)

# mpmath, 40 digits
SIDE_245_BETWEEN_4_5 = 0.8424820814620075  # acosh(cot(pi/5))
SIDE_245_BETWEEN_2_5 = 0.6268696629061778
SIDE_245_BETWEEN_2_4 = 0.5306375309525178  # acosh(sqrt(2) cos(pi/5))
LAMBERT_LEG_245 = 0.9213650173505565
HEXAGON_1_1_COSH = 2.8413471884155846
HEXAGON_1_1 = 1.7049128323580137

# Every allowed cone order, with small ones drawn often enough to reach the
# spherical and Euclidean signatures.
any_order = st.one_of(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=MAX_CONE_ORDER),
)

hyperbolic_signatures = (
    st.tuples(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
    )
    .map(lambda t: TurnoverSignature(*t))
    .filter(lambda s: classify(s) is GeometryClass.HYPERBOLIC)
)


class TestSignature:
    def test_normalizes_order(self):
        sig = TurnoverSignature(5, 2, 4)
        assert sig.orders == (2, 4, 5)

    def test_iteration_and_str(self):
        sig = TurnoverSignature(7, 7, 7)
        assert tuple(sig) == (7, 7, 7)
        assert str(sig) == "(7,7,7)"

    @pytest.mark.parametrize("bad", [(1, 3, 7), (2, 3, 10**6 + 1), (0, 2, 2)])
    def test_rejects_bad_orders(self, bad):
        with pytest.raises(DomainError):
            TurnoverSignature(*bad)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            TurnoverSignature(2.0, 4, 5)

    def test_chi_is_exact(self):
        assert TurnoverSignature(3, 3, 3).chi_fraction() == 0
        assert TurnoverSignature(2, 4, 5).chi_fraction() == Fraction(-1, 20)

    @given(orders=st.tuples(any_order, any_order, any_order))
    def test_chi_is_the_sum_of_reciprocals(self, orders):
        """chi_fraction() is 1/p + 1/q + 1/r - 1 in any input order, and
        classify reads its sign."""
        p, q, r = orders
        chi = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
        kind = (
            GeometryClass.SPHERICAL if chi > 0
            else GeometryClass.EUCLIDEAN if chi == 0
            else GeometryClass.HYPERBOLIC
        )
        for perm in itertools.permutations(orders):
            sig = TurnoverSignature(*perm)
            assert sig.chi_fraction() == chi
            assert classify(sig) is kind

    def test_orders_are_the_only_state(self):
        """Equality, hashing, ordering, repr, fields, the tuple and _replace
        see only p, q, r; there is no instance dict."""
        a, b = TurnoverSignature(5, 2, 4), TurnoverSignature(2, 4, 5)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "TurnoverSignature(p=2, q=4, r=5)"
        assert a._fields == ("p", "q", "r")
        assert tuple(a) == (2, 4, 5) and not hasattr(a, "__dict__")
        assert sorted([TurnoverSignature(3, 3, 4), a]) == [a, TurnoverSignature(3, 3, 4)]
        assert a._replace(r=7).chi_fraction() == Fraction(-3, 28)


class TestClassify:
    @pytest.mark.parametrize(
        "orders", [(2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 2, 2), (2, 2, 17)]
    )
    def test_spherical(self, orders):
        assert classify(TurnoverSignature(*orders)) is GeometryClass.SPHERICAL

    @pytest.mark.parametrize("orders", [(2, 3, 6), (2, 4, 4), (3, 3, 3)])
    def test_euclidean_exact(self, orders):
        assert classify(TurnoverSignature(*orders)) is GeometryClass.EUCLIDEAN

    @pytest.mark.parametrize("orders", [(2, 4, 5), (2, 3, 7), (7, 7, 7)])
    def test_hyperbolic(self, orders):
        assert classify(TurnoverSignature(*orders)) is GeometryClass.HYPERBOLIC


class TestArea:
    def test_245(self):
        assert turnover_area(TurnoverSignature(2, 4, 5)) == pytest.approx(
            math.pi / 10.0, abs=1e-15
        )

    def test_335(self):
        assert turnover_area(TurnoverSignature(3, 3, 5)) == pytest.approx(
            4.0 * math.pi / 15.0, abs=1e-15
        )

    def test_246(self):
        assert turnover_area(TurnoverSignature(2, 4, 6)) == pytest.approx(
            math.pi / 6.0, abs=1e-15
        )

    @pytest.mark.parametrize("orders", [(3, 3, 3), (2, 3, 5)])
    def test_rejects_non_hyperbolic(self, orders):
        with pytest.raises(DomainError):
            turnover_area(TurnoverSignature(*orders))

    @pytest.mark.parametrize("value", [(2, 4, 5), [2, 4, 5], "245", None])
    def test_rejects_what_is_not_a_signature_by_name(self, value):
        # A signature equals the tuple of its orders, yet a tuple is none.
        message = rf"^{re.escape(repr(value))} is not a TurnoverSignature$"
        with pytest.raises(DomainError, match=message):
            turnover_area(value)

    @given(sig=hyperbolic_signatures)
    def test_gauss_bonnet(self, sig):
        assert turnover_area(sig) == pytest.approx(
            -2.0 * math.pi * float(sig.chi_fraction()), abs=1e-12
        )
        assert 0.0 < turnover_area(sig) < 2.0 * math.pi


class TestTriangleGeometry:
    def test_245_sides(self):
        geo = triangle_geometry(TurnoverSignature(2, 4, 5))
        assert geo.side_between(4, 5) == pytest.approx(SIDE_245_BETWEEN_4_5, abs=1e-12)
        assert geo.side_between(2, 5) == pytest.approx(SIDE_245_BETWEEN_2_5, abs=1e-12)
        assert geo.side_between(2, 4) == pytest.approx(SIDE_245_BETWEEN_2_4, abs=1e-12)
        assert geo.diameter == pytest.approx(SIDE_245_BETWEEN_4_5, abs=1e-12)

    def test_245_closed_forms(self):
        geo = triangle_geometry(TurnoverSignature(2, 4, 5))
        assert geo.side_between(4, 5) == pytest.approx(
            math.acosh(1.0 / math.tan(math.pi / 5.0)), abs=1e-14
        )
        assert geo.side_between(2, 4) == pytest.approx(
            math.acosh(math.sqrt(2.0) * math.cos(math.pi / 5.0)), abs=1e-14
        )

    def test_equilateral_symmetry(self):
        geo = triangle_geometry(TurnoverSignature(7, 7, 7))
        assert geo.sides[0] == geo.sides[1] == geo.sides[2]

    def test_area_fields(self):
        sig = TurnoverSignature(2, 4, 5)
        geo = triangle_geometry(sig)
        assert geo.area_triangle == pytest.approx(math.pi / 20.0, abs=1e-14)
        assert 2.0 * geo.area_triangle == turnover_area(sig)

    def test_side_between_unknown_pair(self):
        geo = triangle_geometry(TurnoverSignature(2, 4, 5))
        with pytest.raises(DomainError):
            geo.side_between(3, 5)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(DomainError):
            triangle_geometry(TurnoverSignature(2, 4, 4))

    @given(sig=hyperbolic_signatures)
    def test_invariants(self, sig):
        geo = triangle_geometry(sig)
        assert 2.0 * geo.area_triangle == pytest.approx(
            -2.0 * math.pi * float(sig.chi_fraction()), abs=1e-12
        )
        assert sum(geo.angles) < math.pi
        assert geo.diameter == max(geo.sides)
        a, b, c = geo.sides
        assert a < b + c and b < a + c and c < a + b
        assert all(s > 0.0 for s in geo.sides)

    @given(
        orders=st.tuples(
            st.integers(min_value=2, max_value=30),
            st.integers(min_value=2, max_value=30),
            st.integers(min_value=2, max_value=30),
        )
    )
    def test_permutation_invariance(self, orders):
        p, q, r = orders
        try:
            first = triangle_geometry(TurnoverSignature(p, q, r))
        except DomainError:
            return
        second = triangle_geometry(TurnoverSignature(r, p, q))
        assert first.sides == second.sides


class TestLambertLegBound:
    def test_reference_value(self):
        assert lambert_leg_bound(SIDE_245_BETWEEN_4_5) == pytest.approx(
            LAMBERT_LEG_245, abs=1e-12
        )

    def test_fixed_point(self):
        x = math.asinh(1.0)
        assert lambert_leg_bound(x) == pytest.approx(x, abs=1e-14)

    def test_decays_at_infinity(self):
        assert lambert_leg_bound(10.0) < 1e-4

    def test_strictly_decreasing(self):
        grid = [0.1 + 4.9 * i / 200 for i in range(201)]
        values = [lambert_leg_bound(d) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_domain(self, d):
        with pytest.raises(DomainError):
            lambert_leg_bound(d)

    def test_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match="base length is not a number"):
            lambert_leg_bound(math.nan)


class TestHexagonSide:
    def test_equal_sides_value(self):
        d = hexagon_side(1.0, 1.0)
        assert math.cosh(d) == pytest.approx(HEXAGON_1_1_COSH, abs=1e-12)
        assert d == pytest.approx(HEXAGON_1_1, abs=1e-12)

    def test_equal_sides_hit_the_lower_bound(self):
        # At l' = l the law collapses to cosh l / (cosh l - 1) exactly.
        for l in (0.3, 1.0, 2.5):
            expected = math.cosh(l) / (math.cosh(l) - 1.0)
            assert math.cosh(hexagon_side(l, l)) == pytest.approx(expected, rel=1e-14)

    @given(
        l=st.floats(min_value=0.05, max_value=5.0),
        bump=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_lower_bound(self, l, bump):
        d = hexagon_side(l, l + bump)
        assert math.cosh(d) >= math.cosh(l) / (math.cosh(l) - 1.0) - 1e-9

    def test_limit_large_l(self):
        assert hexagon_side(20.0, 1.0) < 1e-4

    @pytest.mark.parametrize("args", [(400.0, 1.0), (1e-200, 1.0)])
    def test_extreme_sides_stay_finite(self, args):
        d = hexagon_side(*args)
        assert math.isfinite(d) and d > 0.0

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            hexagon_side(*args)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_is_named_not_a_number(self, args):
        with pytest.raises(DomainError, match="hexagon side is not a number"):
            hexagon_side(*args)
