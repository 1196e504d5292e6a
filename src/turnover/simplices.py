"""Regular truncated 3-simplices and return-path volume bounds.

A regular truncated 3-simplex T_theta has four non-truncated faces meeting
at dihedral angle theta in [0, pi/3) and four equilateral triangular
truncation faces of angle theta; the distance 2r between truncation planes
satisfies cosh 2r = cos theta / (2 cos theta - 1).  Its volume is

    Vol(T_theta) = 8 L(pi/4) - 3 Integral_0^theta acosh(cos t/(2 cos t - 1)) dt

with L the Lobachevsky-type integral from ``numerics``; at theta = 0 this
is the regular ideal octahedron.  The integrand has a log pole at pi/3.
Writing acosh y = log(y + sqrt(y^2 - 1)) and
2 cos t - 1 = 4 sin(pi/6 + t/2) sin(pi/6 - t/2) splits the integral into

    S(theta) + 2 L(pi/6 + theta/2) - 2 L(pi/6 - theta/2),
    S(theta) = Integral_0^theta log(cos t + sin(t/2) sqrt(2 (3 cos t - 1))) dt,

where the pole lives in the closed-form L terms and the integrand of S is
analytic on [0, pi/3] (its nearest singularity is at acos(1/3)).  S takes
the fixed Gauss-Legendre rule of ``numerics``; the relative error of the
volume is below 1e-14 on the whole domain against mpmath, and no tolerance
is read.  The density

    rho3(r) = Vol(T_theta) / (4 (pi - 3 theta))

converts a lower bound l on return-path length (geodesic arcs meeting the
totally geodesic boundary perpendicularly at both ends) into a volume lower
bound rho3(l/2) * Area(boundary).  ``TruncatedSimplexSpec`` is the only
place the density is computed: ``rho3`` reads it through ``from_edge``, and
each return-path case is bounded through ``from_angle`` at the exact theta
the case reports.

The return-path length bound comes from a circle-packing estimate on the
boundary: a shortest return path along a singular axis of maximal order k,
or crossing an order-2 axis (folded into k = 1), forces

    theta = pi / (3 (1 - k * chi))        (closed path)
    theta = pi / (3 (1 - (k/2) * chi))    (open path)

where chi < 0 is the orbifold Euler characteristic of the boundary, and the
path is at least as long as the edge of T_theta.  ``boundary_cases`` is the
one place a boundary's cases are listed, each with its volume lower bound
rho3 * Area(boundary).  It computes them on every call: the engine keeps
them once per boundary, in the bounded cache behind its case scan, and
``ReturnPathCase.build`` reads them uncached.  The rows hold numbers, never
verdicts: each verdict compares a bound with the ledger it was scanned
against.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, require_finite, require_positive
from .numerics import _fixed_rule, lobachevsky
from .trig import TurnoverSignature, hexagon_side, turnover_area

__all__ = [
    "THETA_MAX",
    "edge_from_angle",
    "angle_from_edge",
    "truncated_simplex_volume",
    "rho3",
    "TruncatedSimplexSpec",
    "ReturnPathCase",
    "boundary_cases",
    "return_path_theta",
    "miyamoto_lower_bound",
    "length_from_disk_radius",
]

THETA_MAX = math.pi / 3.0
# pi/3 - THETA_MAX, about 1.1e-16: float pi's rounding error is sin(float pi),
# and 3 THETA_MAX misses float pi by an exact rational amount.
_THETA_MAX_LO = (float(Fraction(math.pi) - 3 * Fraction(THETA_MAX)) + math.sin(math.pi)) / 3


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 <= theta < THETA_MAX):
        if math.isnan(theta):
            raise DomainError("dihedral angle is not a number (nan)")
        raise DomainError(f"dihedral angle {theta} outside [0, pi/3)")
    return theta


def edge_from_angle(theta: float) -> float:
    """Edge length 2r of T_theta: acosh(cos theta / (2 cos theta - 1)).

    Zero at theta = 0 (ideal octahedron) and diverging as theta -> pi/3.
    Computed as 2 asinh(sinh r), from cosh 2r - 1 = 2 sinh^2 r and
    1 - cos theta = 2 sin^2(theta/2),
    2 cos theta - 1 = 4 sin(pi/6 + theta/2) sin(pi/6 - theta/2):

        sinh r = sin(theta/2) / (2 sqrt(sin(pi/6 + theta/2) sin(pi/6 - theta/2))),

    so nothing cancels near 0 or near pi/3, where pi/3 - theta carries
    pi/3's low part.
    """
    theta = _check_theta(theta)
    upper = math.sin(0.5 * (THETA_MAX + theta))
    lower = math.sin(0.5 * ((THETA_MAX - theta) + _THETA_MAX_LO))
    return 2.0 * math.asinh(math.sin(0.5 * theta) / (2.0 * math.sqrt(upper * lower)))


def _cosh(x: float) -> float:
    """math.cosh, whose overflow (it raises, never returns inf) is a DomainError."""
    try:
        return math.cosh(x)
    except OverflowError:
        raise DomainError(f"cosh({x}) overflows: argument too large") from None


def angle_from_edge(length: float) -> float:
    """Inverse of ``edge_from_angle``: arccos(cosh l / (2 cosh l - 1)),
    with the ratio halved through so that 2 cosh l cannot overflow.  From
    about l = 35.64 on the angle rounds onto pi/3, which no T_theta has."""
    require_positive(length, "edge length")
    ch = _cosh(length)
    theta = math.acos(min(0.5 * ch / (ch - 0.5), 1.0))
    if not (theta < THETA_MAX):
        raise DomainError(
            f"edge length {length} is too long: its dihedral angle rounds onto pi/3"
        )
    return theta


def _log_chord(t: float) -> float:
    """log(cos t + sqrt((1 - cos t)(3 cos t - 1))), the integrand of S;
    1 - cos t = 2 sin^2(t/2) keeps it free of cancellation near 0."""
    c = math.cos(t)
    return math.log(c + math.sin(0.5 * t) * math.sqrt(2.0 * (3.0 * c - 1.0)))


# Vol(T_0) = 8 L(pi/4), the regular ideal octahedron.
_OCTAHEDRON_VOLUME = 8.0 * lobachevsky(math.pi / 4.0)


def truncated_simplex_volume(theta: float) -> float:
    """Volume of the regular truncated 3-simplex of dihedral angle theta."""
    theta = _check_theta(theta)
    if theta == 0.0:
        return _OCTAHEDRON_VOLUME
    # pi/6 -+ theta/2, written so that the lower one stays positive.
    upper, lower = 0.5 * (THETA_MAX + theta), 0.5 * (THETA_MAX - theta)
    acosh_integral = (
        _fixed_rule(_log_chord, theta)
        + 2.0 * lobachevsky(upper)
        - 2.0 * lobachevsky(lower)
    )
    return _OCTAHEDRON_VOLUME - 3.0 * acosh_integral


def rho3(r: float) -> float:
    """Volume-to-truncation-area density of the T_theta with half-edge r."""
    require_positive(r, "half edge length")
    return TruncatedSimplexSpec.from_edge(2.0 * r).rho3


class TruncatedSimplexSpec(NamedTuple):
    """A T_theta with its derived scalars; ``from_angle`` is the one place
    the density is computed."""

    theta: float
    edge_length: float
    volume: float
    rho3: float

    @classmethod
    def from_angle(cls, theta: float) -> "TruncatedSimplexSpec":
        theta = _check_theta(theta)
        edge = edge_from_angle(theta)
        volume = truncated_simplex_volume(theta)
        return cls(
            theta=theta,
            edge_length=edge,
            volume=volume,
            rho3=volume / (4.0 * (math.pi - 3.0 * theta)),
        )

    @classmethod
    def from_edge(cls, length: float) -> "TruncatedSimplexSpec":
        return cls.from_angle(angle_from_edge(length))


def _theta_for(chi: Fraction, k: int, closed: bool) -> float:
    """Return-path angle; the denominator is exact rational arithmetic.

    Keeping the denominator rational makes clean cases exact: the boundary
    (3,3,4) with k = 4 closed gives denominator 4 and theta = pi/4 on the
    nose.  ``chi`` is the boundary's exact Euler characteristic.
    """
    weight = Fraction(k) if closed else Fraction(k, 2)
    denominator = 3 * (1 - weight * chi)
    return math.pi / float(denominator)


class ReturnPathCase(NamedTuple):
    """One (boundary, k, closed) configuration for the shortest return path.

    ``k`` is the maximal order of the singular axis containing the path,
    with k = 1 when the path is not in the singular locus (a path crossing
    an order-2 axis folds into k = 1 with the closed formula).
    """

    boundary_sig: TurnoverSignature
    k: int
    closed: bool
    theta: float
    min_length: float

    @classmethod
    def build(
        cls, boundary_sig: TurnoverSignature, k: int, closed: bool
    ) -> "ReturnPathCase":
        """The row of ``boundary_cases(boundary_sig)`` with this k and
        closedness; a case the boundary cannot carry is a ``DomainError``."""
        rows = boundary_cases(boundary_sig)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        for case, _ in rows:
            if (case.k, case.closed) == (k, bool(closed)):
                return case
        raise DomainError(
            f"{boundary_sig} has no {'closed' if closed else 'open'} return-path"
            f" case with k={k}: k is 1 or a cone order, and an open path along"
            " a cone order that occurs once must close"
        )


def boundary_cases(
    boundary_sig: TurnoverSignature,
) -> tuple[tuple[ReturnPathCase, float], ...]:
    """(case, rho3 * Area(boundary)) for each return-path case of a
    hyperbolic boundary: k over {1} plus its cone orders, closed then open,
    less the open paths along a cone order that occurs once (both ends are
    that one cone point, so the path closes)."""
    area = turnover_area(boundary_sig)
    chi = boundary_sig.chi_fraction()
    rows = []
    for k in [1] + sorted(set(boundary_sig.orders)):
        for closed in (True, False):
            if not closed and k != 1 and boundary_sig.orders.count(k) == 1:
                continue
            spec = TruncatedSimplexSpec.from_angle(_theta_for(chi, k, closed))
            case = ReturnPathCase(boundary_sig, k, closed, spec.theta, spec.edge_length)
            rows.append((case, spec.rho3 * area))
    return tuple(rows)


def return_path_theta(case: ReturnPathCase) -> float:
    """Angle of the comparison simplex for the given return-path case."""
    return case.theta


def miyamoto_lower_bound(boundary_area: float, length: float) -> float:
    """Volume lower bound rho3(l/2) * boundary_area from return-path length l."""
    require_finite(require_positive(boundary_area, "boundary area"), "boundary area")
    return rho3(length / 2.0) * boundary_area


def length_from_disk_radius(disk_r: float) -> float:
    """Shortest return path forced by an embedded boundary disk of radius r.

    Two disjoint disks of radius r on the boundary push the hexagon bound to
    cosh l >= cosh 2r / (cosh 2r - 1); this returns the equality value,
    ``hexagon_side(2r, 2r)``.
    """
    require_finite(require_positive(disk_r, "disk radius"), "disk radius")
    return hexagon_side(2.0 * disk_r, 2.0 * disk_r)
