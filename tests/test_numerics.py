"""Tests for the root finder, quadrature, and the Lobachevsky-type integral.

Frozen reference values were computed independently with mpmath at 40
digits (Clausen form of the Lobachevsky integral, mp.findroot, mp.quad);
scipy provides a second, independent quadrature rule where the contract
asks for one.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnover.errors import BracketError, ConvergenceError, DomainError
from turnover.numerics import (
    _FIXED_NODES,
    _NODE_COUNTS,
    _ZETA_EVEN,
    Bracket,
    Tolerance,
    _converge,
    _leggauss,
    find_root,
    integrate,
    lobachevsky,
)

# mpmath, 40 digits
COTH_ROOT = 1.1996786402577338
LOBACHEVSKY_PI_4 = 0.4579827970886095
LOBACHEVSKY_PI_6 = 0.5074708032048268


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-12
        assert tol.rel_tol == 1e-12

    def test_bound_combines_abs_and_rel(self):
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-3)
        assert tol.bound(2.0) == pytest.approx(1e-10 + 2e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-9},
            {"rel_tol": -1.0},
            {"rel_tol": math.inf},
            {"abs_tol": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            Tolerance(**kwargs)


class TestBracket:
    def test_normalizes_orientation(self):
        b = Bracket(2.0, -1.0)
        assert (b.lo, b.hi) == (-1.0, 2.0)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Bracket(1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Bracket(0.0, math.inf)


class TestFindRoot:
    def test_coth_fixed_point(self):
        root = find_root(lambda x: x - math.cosh(x) / math.sinh(x), Bracket(1.0, 2.0))
        assert root == pytest.approx(COTH_ROOT, abs=1e-10)

    def test_linear_root_at_origin(self):
        assert find_root(lambda x: x, Bracket(-1.0, 1.0)) == 0.0

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_step_budget_exhaustion(self):
        # x*x - 2 has no float zero, so a tolerance below float resolution
        # runs the fixed budget out with the bracket at adjacent floats.
        below_resolution = Tolerance(abs_tol=1e-300, rel_tol=0.0)
        with pytest.raises(
            ConvergenceError,
            match=r"<lambda>.*within 200 .*final bracket "
                  r"\[1\.414213562373095, 1\.4142135623730951\], width",
        ):
            find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), below_resolution)

    @given(root=st.floats(min_value=-5.0, max_value=5.0), scale=st.floats(min_value=0.1, max_value=4.0))
    def test_bracket_swap_invariance(self, root, scale):
        f = lambda x: scale * (x - root)
        lo, hi = root - 1.0, root + 2.0
        forward = find_root(f, Bracket(lo, hi))
        backward = find_root(f, Bracket(hi, lo))
        assert forward == backward
        assert abs(forward - root) < 1e-9


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: 1.0 / x, 0.0, 0.0) == 0.0

    def test_orientation_antisymmetry(self):
        forward = integrate(math.sin, 0.0, 2.0)
        assert integrate(math.sin, 2.0, 0.0) == -forward

    def test_log_singular_endpoint_value(self):
        value = integrate(lambda u: -math.log(2.0 * math.sin(u)), 0.0, math.pi / 4.0)
        assert value == pytest.approx(LOBACHEVSKY_PI_4, abs=1e-10)

    def test_log_singular_endpoint_against_second_rule(self):
        # Independent rule at 10x tighter tolerance (scipy's QUADPACK).
        ours = integrate(lambda u: -math.log(2.0 * math.sin(u)), 0.0, math.pi / 4.0)
        theirs, err = scipy.integrate.quad(
            lambda u: -math.log(2.0 * math.sin(u)),
            0.0,
            math.pi / 4.0,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert err < 1e-11
        assert ours == pytest.approx(theirs, abs=1e-10)

    def test_singularity_at_upper_endpoint(self):
        # Mirror image of the Lobachevsky kernel: singular at b.
        value = integrate(
            lambda u: -math.log(2.0 * math.sin(math.pi / 4.0 - u)),
            0.0,
            math.pi / 4.0,
        )
        assert value == pytest.approx(LOBACHEVSKY_PI_4, abs=1e-10)

    def test_nonconvergence_budget(self):
        nasty = Tolerance(abs_tol=1e-300, rel_tol=0.0)
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.sin(50.0 * x), 0.0, 3.0, nasty)

    def test_nonconvergence_names_integrand_domain_and_residual(self):
        nasty = Tolerance(abs_tol=1e-300, rel_tol=0.0)
        with pytest.raises(ConvergenceError, match=r"<lambda> on \[0\.0, 3\.0\].*residual"):
            integrate(lambda x: math.sin(50.0 * x), 0.0, 3.0, nasty)

    def test_log_singularities_at_both_endpoints(self):
        value = integrate(lambda u: math.log(u * (1.0 - u)), 0.0, 1.0)
        assert value == pytest.approx(-2.0, abs=1e-10)

    def test_log_singularity_at_nonzero_endpoint(self):
        value = integrate(lambda u: math.log(u - 1.0), 1.0, 2.0)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_never_evaluates_an_endpoint(self):
        # At 192 and 256 nodes the outermost graded node rounds onto a = 1;
        # the unreachable tolerance must end in ConvergenceError, not in
        # log(0).
        with pytest.raises(ConvergenceError):
            integrate(lambda u: math.log(u - 1.0), 1.0, 2.0, Tolerance(1e-16, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=4),
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-2.0, max_value=2.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_additivity(self, coeffs, a, b, c):
        f = lambda x: sum(cc * x**i for i, cc in enumerate(coeffs))
        whole = integrate(f, a, c)
        split = integrate(f, a, b) + integrate(f, b, c)
        scale = sum(abs(cc) for cc in coeffs) + abs(whole)
        assert abs(split - whole) < 1e-10 * (1.0 + scale)


class TestConverge:
    """Tuple estimates: each component keeps the value a lone run returns."""

    @staticmethod
    def early(n):  # agrees with itself from 16 to 24 nodes, then moves
        return 1.5 if n < 32 else 1.0

    @staticmethod
    def late(n):  # settles at 64 nodes, so agrees first at 96
        return 2.0 + 1.0 / n if n < 64 else 2.0

    def test_each_component_keeps_its_lone_value(self):
        orders = []

        def both(n):
            orders.append(n)
            return self.early(n), self.late(n)

        tol = Tolerance()
        fused = _converge(both, tol, ("early", "late"))
        lone = tuple(
            _converge(lambda n, f=f: (f(n),), tol, (name,))[0]
            for name, f in (("early", self.early), ("late", self.late))
        )
        assert fused == lone == (1.5, 2.0)
        assert orders == list(_NODE_COUNTS[: _NODE_COUNTS.index(96) + 1])

    @settings(max_examples=200, deadline=None)
    @given(
        quantities=st.lists(
            st.tuples(
                st.integers(0, len(_NODE_COUNTS) - 2),
                st.lists(st.floats(-1e6, 1e6), min_size=len(_NODE_COUNTS),
                         max_size=len(_NODE_COUNTS)),
            ),
            min_size=2,
            max_size=4,
        ),
        tol=st.sampled_from([Tolerance(), Tolerance(1e-3, 1e-3)]),
    )
    @example(  # converges at 24 nodes and moves on, six orders before the other
        quantities=[(0, [0.25 * k for k in range(9)]), (6, [1.0 / (k + 1) for k in range(9)])],
        tol=Tolerance(),
    )
    def test_fused_estimate_gives_each_quantity_its_lone_float(self, quantities, tol):
        """Quantity i takes its own values, except that the order after the
        one it settles at repeats that order's value, so it converges there
        (if not before) and moves on after.  Fused into one tuple estimate,
        every quantity gets the float a run on it alone returns."""
        tables = [
            {n: values[settle if k == settle + 1 else k] for k, n in enumerate(_NODE_COUNTS)}
            for settle, values in quantities
        ]
        lone = tuple(
            _converge(lambda n, t=table: (t[n],), tol, ("lone",))[0] for table in tables
        )
        names = tuple(f"q{i}" for i in range(len(tables)))
        assert _converge(lambda n: tuple(t[n] for t in tables), tol, names) == lone

    def test_error_names_only_the_component_left_over(self):
        with pytest.raises(ConvergenceError) as info:
            _converge(lambda n: (self.early(n), 1.0 / n), Tolerance(), ("early", "drift"))
        message = str(info.value)
        assert message.startswith("drift did not converge in 9 orders")
        assert f"residual {1.0 / 192 - 1.0 / 256:.3g}" in message
        assert "early" not in message

    def test_names_are_built_only_when_the_error_is_raised(self):
        built = []

        def what():
            built.append(1)
            return ("early", "drift")

        assert _converge(lambda n: (self.early(n), self.late(n)), Tolerance(), what)
        assert built == []
        with pytest.raises(ConvergenceError, match=r"^drift did not converge"):
            _converge(lambda n: (self.early(n), 1.0 / n), Tolerance(), what)
        assert built == [1]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", sorted({_FIXED_NODES, *_NODE_COUNTS}))
    def test_matches_numpy_leggauss(self, n):
        nodes, weights = zip(*_leggauss(n))
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert len(nodes) == len(weights) == n
        assert max(abs(x - r) for x, r in zip(nodes, ref_nodes)) <= 2.3e-16
        assert max(abs(w - r) for w, r in zip(weights, ref_weights)) <= 5e-14
        assert abs(math.fsum(weights) - 2.0) <= 1e-14

    def test_float_pairs_ascending_and_symmetric(self):
        nodes, weights = zip(*_leggauss(_FIXED_NODES))
        assert all(type(v) is float for v in nodes + weights)
        assert list(nodes) == sorted(nodes)
        assert nodes == tuple(-x for x in reversed(nodes))


class TestLobachevsky:
    def test_zero(self):
        assert lobachevsky(0.0) == 0.0

    def test_quarter_pi(self):
        assert lobachevsky(math.pi / 4.0) == pytest.approx(LOBACHEVSKY_PI_4, abs=1e-10)

    def test_sixth_pi(self):
        assert lobachevsky(math.pi / 6.0) == pytest.approx(LOBACHEVSKY_PI_6, abs=1e-10)

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 2.0 + 0.01, 4.0])
    def test_domain(self, theta):
        with pytest.raises(DomainError):
            lobachevsky(theta)

    def test_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"theta is not a number \(nan\)"):
            lobachevsky(math.nan)

    def test_matches_clausen_on_grid(self):
        """3e-16 absolute against Cl_2(2 theta) / 2 at 40 digits on [0, pi/2]."""
        with mpmath.workdps(40):
            for i in range(401):
                theta = (math.pi / 2.0) * i / 400
                reference = float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)
                assert abs(lobachevsky(theta) - reference) <= 3e-16, theta

    def test_vanishes_at_half_pi(self):
        assert abs(lobachevsky(math.pi / 2.0)) <= 3e-16

    @given(st.floats(0.0, math.pi / 4.0))
    @example(math.pi / 4.0)
    @example(math.pi / 6.0)
    def test_duplication_formula(self, theta):
        """L(2 theta) = 2 L(theta) - 2 L(pi/2 - theta), from
        2 sin 2u = (2 sin u) (2 sin(pi/2 - u)) and L(pi/2) = 0."""
        lhs = lobachevsky(2.0 * theta)
        rhs = 2.0 * lobachevsky(theta) - 2.0 * lobachevsky(math.pi / 2.0 - theta)
        assert abs(lhs - rhs) <= 1.5e-15

    def test_derived_zeta_values(self):
        """The recurrence's zeta(2k) match mpmath to 2e-15 relative."""
        with mpmath.workdps(40):
            for k, value in enumerate(_ZETA_EVEN, 1):
                reference = float(mpmath.zeta(2 * k))
                assert abs(value - reference) <= 2e-15 * reference, k

    def test_shape_on_grid(self):
        """Increasing to the max at pi/6, then decreasing; concave throughout.

        Grid values are accumulated from panel integrals so the whole scan
        costs one pass.  The first panel handles the log singularity at 0.
        """
        step = 1e-3
        n = int(math.pi / 2.0 / step)
        grid = [i * step for i in range(n + 1)]
        kernel = lambda u: -math.log(2.0 * math.sin(u))
        values = [0.0]
        for left, right in zip(grid, grid[1:]):
            values.append(values[-1] + integrate(kernel, left, right))

        peak = math.pi / 6.0
        tol = 1e-9
        diffs = [b - a for a, b in zip(values, values[1:])]
        for x, d in zip(grid, diffs):
            if x + step <= peak:
                assert d > -tol, f"not increasing at {x}"
            if x >= peak:
                assert d < tol, f"not decreasing at {x}"
        for x, (d1, d2) in zip(grid, zip(diffs, diffs[1:])):
            if x > 0:  # skip the singular first panel
                assert d2 - d1 < tol, f"not concave at {x}"

        # Max over the sampled grid is attained next to pi/6.
        peak_value = max(values)
        assert lobachevsky(peak) >= peak_value - 1e-9
