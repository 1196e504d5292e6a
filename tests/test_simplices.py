"""Tests for truncated simplices, the density rho3, and return-path bounds.

Independent oracles: mpmath (mp.quad of the dihedral-angle integrand plus
the Clausen form of the Lobachevsky kernel, 40 digits) for the frozen
volumes, and the same recipe at 30 digits on grids for the kernel accuracy
checks; the (3,3,4) chain value back-solves from the printed 0.428850
bound.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from turnover.engine import Verdict, analyze, make_ledger, order4_refinement
from turnover.errors import DomainError
from turnover.simplices import (
    THETA_MAX,
    ReturnPathCase,
    TruncatedSimplexSpec,
    angle_from_edge,
    boundary_cases,
    edge_from_angle,
    length_from_disk_radius,
    miyamoto_lower_bound,
    return_path_theta,
    rho3,
    truncated_simplex_volume,
)
from turnover.trig import TurnoverSignature, hyperbolic_signatures

# mpmath, 40 digits
EDGE_QUARTER_PI = 1.1283839649663011      # acosh(1/(2 - sqrt 2))
VOLUME_T0 = 3.6638623767088761            # 8 * Lobachevsky(pi/4)
VOLUME_T_QUARTER_PI = 2.5731054602412917
RHO3_QUARTER_PI = 0.8190449061882959
CHAIN_334_K4_CLOSED = 0.4288509100402153  # rho3 * pi/6
DISK_RADIUS_245 = 0.5306375309525178      # acosh(sqrt 2 cos(pi/5))
LENGTH_FROM_DISK_245 = 1.6169216675118865
THETA_ORDER4 = 0.9045568943023814
BOUND_ORDER4 = 0.3839860716052123
SEPARATION_245 = 0.9213650173505565
THETA_ORDER5 = 0.9380371555226083
BOUND_ORDER5 = 0.4602224494745811


def mp_volume(theta: float) -> mpmath.mpf:
    """Vol(T_theta) at 30 digits: 8 Cl_2(pi/2)/2 - 3 quad(acosh(...))."""
    with mpmath.workdps(30):
        integrand = lambda t: mpmath.acosh(mpmath.cos(t) / (2 * mpmath.cos(t) - 1))
        return 4 * mpmath.clsin(2, mpmath.pi / 2) - 3 * mpmath.quad(
            integrand, [0, mpmath.mpf(theta)]
        )


def mp_edge(theta: float) -> mpmath.mpf:
    """acosh(cos theta / (2 cos theta - 1)) at 700 digits, so that 40
    survive the 600 it cancels at theta = 1e-300."""
    with mpmath.workdps(700):
        c = mpmath.cos(mpmath.mpf(theta))
        return mpmath.acosh(c / (2 * c - 1))


class TestEdgeAngle:
    def test_zero_angle_zero_edge(self):
        assert edge_from_angle(0.0) == 0.0

    def test_quarter_pi(self):
        assert edge_from_angle(math.pi / 4.0) == pytest.approx(EDGE_QUARTER_PI, abs=1e-12)
        assert edge_from_angle(math.pi / 4.0) == pytest.approx(
            math.acosh(1.0 / (2.0 - math.sqrt(2.0))), abs=1e-14
        )

    def test_pole(self):
        assert edge_from_angle(THETA_MAX - 1e-6) > 7.0

    @pytest.mark.parametrize("theta", [
        *(10.0 ** -k for k in (*range(1, 17), 100, 200, 300)),
        *(THETA_MAX - 10.0 ** -k for k in range(1, 16)),
        *(THETA_MAX * i / 20 for i in range(1, 20)),
    ])
    def test_full_precision_at_both_ends(self, theta):
        """1e-15 relative to mpmath at the same float theta, near 0 (where
        cos theta rounds to 1) and near pi/3 (where 2 cos theta - 1
        cancels)."""
        assert edge_from_angle(theta) == pytest.approx(
            float(mp_edge(theta)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("theta", [-0.01, THETA_MAX, 1.2])
    def test_domain(self, theta):
        with pytest.raises(DomainError):
            edge_from_angle(theta)

    def test_nan_angle_is_named_not_a_number(self):
        with pytest.raises(DomainError, match=r"dihedral angle is not a number \(nan\)"):
            edge_from_angle(math.nan)

    def test_angle_from_edge_domain(self):
        with pytest.raises(DomainError):
            angle_from_edge(0.0)
        with pytest.raises(DomainError):
            angle_from_edge(-1.0)

    def test_angle_from_edge_where_twice_cosh_overflows(self):
        """2 cosh 710 overflows; the length is rejected like any other whose
        angle rounds onto pi/3, never mapped to pi/2."""
        for length in (100.0, 710.0):
            with pytest.raises(DomainError, match=f"edge length {length} "):
                angle_from_edge(length)

    @pytest.mark.parametrize("length", [36.0, math.inf])
    def test_angle_from_edge_names_a_length_whose_angle_rounds_onto_pi_over_3(
        self, length
    ):
        with pytest.raises(DomainError, match=f"edge length {length} "):
            angle_from_edge(length)
        with pytest.raises(DomainError, match=f"edge length {length} "):
            TruncatedSimplexSpec.from_edge(length)

    def test_angle_from_edge_just_below_the_rounding_limit(self):
        assert angle_from_edge(35.6) < THETA_MAX

    def test_round_trip_grid(self):
        n = 200
        lo, hi = 1e-3, THETA_MAX - 1e-3
        for i in range(n + 1):
            theta = lo + (hi - lo) * i / n
            assert angle_from_edge(edge_from_angle(theta)) == pytest.approx(
                theta, abs=1e-10
            )

    def test_round_trip_from_length(self):
        for length in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert edge_from_angle(angle_from_edge(length)) == pytest.approx(
                length, abs=1e-10
            )


class TestVolume:
    def test_ideal_octahedron(self):
        assert truncated_simplex_volume(0.0) == pytest.approx(VOLUME_T0, abs=1e-5)

    def test_quarter_pi(self):
        assert truncated_simplex_volume(math.pi / 4.0) == pytest.approx(
            VOLUME_T_QUARTER_PI, abs=1e-5
        )

    def test_monotone_decreasing(self):
        grid = [i * (THETA_MAX - 1e-4) / 40 for i in range(41)]
        values = [truncated_simplex_volume(t) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            truncated_simplex_volume(THETA_MAX)

    def test_matches_mpmath_on_grid(self):
        """1e-13 relative up to pi/3 - 1e-8, where the integrand of the
        textbook form has its log pole just outside the interval."""
        lo, hi = 1e-6, THETA_MAX - 1e-8
        for i in range(41):
            theta = lo + (hi - lo) * i / 40
            reference = float(mp_volume(theta))
            assert truncated_simplex_volume(theta) == pytest.approx(reference, rel=1e-13)


class TestRho3:
    def test_reference_value(self):
        r = edge_from_angle(math.pi / 4.0) / 2.0
        assert r == pytest.approx(0.5641919824831505, abs=1e-12)
        assert rho3(r) == pytest.approx(RHO3_QUARTER_PI, abs=1e-6)

    def test_grid_is_finite_positive_and_quadrature_stable(self):
        """Finite and positive on the whole grid up to pi/3 - 1e-4, and
        within 1e-12 relative of mpmath (the function itself grows like
        1/(pi - 3 theta) near the pole, which is fine; float rounding of
        pi - 3 theta there costs a few 1e-13)."""
        thetas = [1e-4 + i * (THETA_MAX - 2e-4) / 60 for i in range(61)]
        for theta in thetas:
            r = edge_from_angle(theta) / 2.0
            value = rho3(r)
            assert math.isfinite(value) and value > 0.0
            angle = angle_from_edge(2.0 * r)
            with mpmath.workdps(30):
                reference = mp_volume(angle) / (4 * (mpmath.pi - 3 * mpmath.mpf(angle)))
            assert value == pytest.approx(float(reference), rel=1e-12)

    def test_grid_is_increasing_in_theta(self):
        thetas = [1e-4 + i * (THETA_MAX - 2e-4) / 60 for i in range(61)]
        values = [rho3(edge_from_angle(t) / 2.0) for t in thetas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            rho3(0.0)

    def test_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match="half edge length is not a number"):
            rho3(math.nan)
        with pytest.raises(DomainError, match="edge length is not a number"):
            angle_from_edge(math.nan)


class TestSpec:
    def test_invariants(self):
        spec = TruncatedSimplexSpec.from_angle(math.pi / 4.0)
        assert math.cosh(spec.edge_length) == pytest.approx(
            math.cos(spec.theta) / (2.0 * math.cos(spec.theta) - 1.0), abs=1e-10
        )
        assert spec.volume > 0.0
        assert spec.rho3 == pytest.approx(
            spec.volume / (4.0 * (math.pi - 3.0 * spec.theta)), abs=1e-14
        )

    def test_from_edge_matches_from_angle(self):
        via_edge = TruncatedSimplexSpec.from_edge(EDGE_QUARTER_PI)
        assert via_edge.theta == pytest.approx(math.pi / 4.0, abs=1e-10)


class TestReturnPathTheta:
    def test_334_k4_closed_is_exact(self):
        case = ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=4, closed=True)
        assert case.theta == math.pi / 4.0
        assert return_path_theta(case) == math.pi / 4.0

    def test_334_k1_open(self):
        case = ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=1, closed=False)
        assert case.theta == pytest.approx(1.0053096491487339, abs=1e-12)

    def test_chi_matches_signature(self):
        case = ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=3, closed=True)
        assert case.boundary_sig.chi_fraction() == Fraction(-1, 12)

    def test_near_euclidean_limit(self):
        # chi = -1/42 for (2,3,7) is the closest a hyperbolic signature gets
        # to the Euclidean boundary; theta approaches pi/3 from below as
        # k * chi -> 0.
        nearly_flat = ReturnPathCase.build(TurnoverSignature(2, 3, 7), k=1, closed=True)
        farther = ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=1, closed=True)
        assert nearly_flat.theta < THETA_MAX
        assert THETA_MAX - nearly_flat.theta < THETA_MAX - farther.theta
        assert nearly_flat.theta == pytest.approx(math.pi * 42.0 / 129.0, abs=1e-14)

    def test_min_length_is_simplex_edge(self):
        case = ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=4, closed=True)
        assert case.min_length == pytest.approx(EDGE_QUARTER_PI, abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=5, closed=True)

    def test_rejects_an_open_path_that_must_close(self):
        # Order 4 occurs once on (3,3,4): a path along it starts and ends at
        # that one cone point.
        with pytest.raises(DomainError, match="must close"):
            ReturnPathCase.build(TurnoverSignature(3, 3, 4), 4, closed=False)

    def test_rejects_non_hyperbolic_boundary(self):
        with pytest.raises(DomainError):
            ReturnPathCase.build(TurnoverSignature(2, 3, 6), k=1, closed=True)

    def test_rejects_a_plain_tuple_boundary_by_name(self):
        message = r"^\(3, 3, 4\) is not a TurnoverSignature$"
        with pytest.raises(DomainError, match=message):
            boundary_cases((3, 3, 4))
        with pytest.raises(DomainError, match=message):
            ReturnPathCase.build((3, 3, 4), 4, True)

    @pytest.mark.parametrize("k", [0, True])
    def test_rejects_k_that_is_not_a_positive_integer(self, k):
        with pytest.raises(DomainError, match="positive integer"):
            ReturnPathCase.build(TurnoverSignature(3, 3, 4), k=k, closed=True)


class TestMiyamotoLowerBound:
    def test_334_chain(self):
        length = edge_from_angle(math.pi / 4.0)
        bound = miyamoto_lower_bound(math.pi / 6.0, length)
        assert bound == pytest.approx(CHAIN_334_K4_CLOSED, abs=1e-5)

    def test_order4_chain(self):
        length = length_from_disk_radius(DISK_RADIUS_245)
        assert length == pytest.approx(LENGTH_FROM_DISK_245, abs=1e-10)
        assert angle_from_edge(length) == pytest.approx(THETA_ORDER4, abs=1e-10)
        bound = miyamoto_lower_bound(math.pi / 10.0, length)
        assert bound == pytest.approx(BOUND_ORDER4, abs=1e-5)

    def test_order5_chain(self):
        length = 2.0 * SEPARATION_245
        assert angle_from_edge(length) == pytest.approx(THETA_ORDER5, abs=1e-10)
        bound = miyamoto_lower_bound(math.pi / 10.0, length)
        assert bound == pytest.approx(BOUND_ORDER5, abs=1e-5)

    def test_linear_in_area(self):
        length = edge_from_angle(math.pi / 4.0)
        big = miyamoto_lower_bound(1.0, length)
        small = miyamoto_lower_bound(1e-9, length)
        assert small == pytest.approx(1e-9 * big, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            miyamoto_lower_bound(0.0, 1.0)

    def test_nan_area_is_named_not_a_number(self):
        with pytest.raises(DomainError, match="boundary area is not a number"):
            miyamoto_lower_bound(math.nan, 1.0)


class TestLengthFromDiskRadius:
    def test_reference_value(self):
        ch = math.cosh(length_from_disk_radius(DISK_RADIUS_245))
        assert ch == pytest.approx((math.sqrt(5.0) + 3.0) / 2.0, abs=1e-10)  # golden ratio squared

    def test_large_radius_shrinks(self):
        assert length_from_disk_radius(10.0) < 1e-4

    def test_small_radius_diverges(self):
        assert length_from_disk_radius(1e-3) > 10.0

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            length_from_disk_radius(r)

    def test_nan_is_named_not_a_number(self):
        with pytest.raises(DomainError, match="disk radius is not a number"):
            length_from_disk_radius(math.nan)

    def test_unresolvable_radius(self):
        # The length resolves, but its angle rounds to pi/3, which no
        # T_theta has, so the disk refinement cannot be scored.
        assert length_from_disk_radius(1e-12) == 55.262042231857095
        ledger = make_ledger(TurnoverSignature(2, 4, 5), 1)
        with pytest.raises(DomainError):
            order4_refinement(ledger, TurnoverSignature(2, 4, 5), 1e-12)

    @pytest.mark.parametrize("r", [19.0, 20.0, 100.0])
    def test_large_radius_keeps_precision(self, r):
        with mpmath.workdps(40):
            reference = float(2 * mpmath.asinh(1 / (2 * mpmath.sinh(r))))
        assert length_from_disk_radius(r) == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_overflowing_radius(self):
        """sinh(800) overflows; math.sinh raises rather than returning inf."""
        with pytest.raises(DomainError):
            length_from_disk_radius(400.0)


class TestVerdictMargins:
    """The verdicts of the census at orders <= 12 (ext 1 and 2): each float
    case bound agrees with a 30-digit mpmath value of rho3(pi/d) * Area,
    d = 3 (1 - w chi) exact, to within 1% of its margin from the cap, so
    float error cannot have flipped any of them.  Tier-1 checks the 40
    tightest cases; the ``slow`` oracle checks every case."""

    @staticmethod
    def mp_bound(case, rho3_by_d: dict) -> mpmath.mpf:
        """rho3(pi/d) * Area(boundary); ``rho3_by_d`` memoizes rho3 by d."""
        chi = case.boundary_sig.chi_fraction()
        d = 3 * (1 - (Fraction(case.k) if case.closed else Fraction(case.k, 2)) * chi)
        with mpmath.workdps(30):
            if d not in rho3_by_d:
                theta = mpmath.pi * d.denominator / d.numerator
                rho3_by_d[d] = mp_volume(theta) / (4 * (mpmath.pi - 3 * theta))
            return rho3_by_d[d] * (-2 * mpmath.pi * chi.numerator / chi.denominator)

    def test_tightest_cases_match_mpmath_within_their_margin(self):
        excluded, survivors = [], []
        for ext in (1, 2):
            for sig in hyperbolic_signatures(range(2, 13)):
                report = analyze(sig, ext)
                cap = report.ledger.upper_bound_with_boundary
                for record in report.cases:
                    margin = record.lower_bound - cap
                    if record.verdict is Verdict.EXCLUDED:
                        excluded.append((margin, record))
                    else:
                        survivors.append((-margin, record))
        tightest = (sorted(excluded, key=lambda row: row[0])[:20]
                    + sorted(survivors, key=lambda row: row[0])[:20])
        for margin, record in tightest:
            error = abs(record.lower_bound - float(self.mp_bound(record.case, {})))
            assert error <= 0.01 * margin, (record.case, margin, error)

    @pytest.mark.slow
    def test_every_case_matches_mpmath_within_its_margin(self):
        """Every case of the 538 analyses, not only the tightest 40; mpmath
        computes rho3 once per distinct exact d."""
        rho3_by_d = {}
        for ext in (1, 2):
            for sig in hyperbolic_signatures(range(2, 13)):
                report = analyze(sig, ext)
                cap = report.ledger.upper_bound_with_boundary
                for record in report.cases:
                    reference = float(self.mp_bound(record.case, rho3_by_d))
                    margin = abs(record.lower_bound - cap)
                    error = abs(record.lower_bound - reference)
                    assert error <= 0.01 * margin, (sig, ext, record.case, margin, error)
        assert len(rho3_by_d) == 2838
