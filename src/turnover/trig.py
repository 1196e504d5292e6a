"""Hyperbolic trigonometry of (p, q, r) triangles and turnovers.

A turnover is the double of a hyperbolic triangle with angles pi/p, pi/q,
pi/r along its boundary: a 2-sphere with three cone points.  This module
holds the signature type, the spherical/Euclidean/hyperbolic trichotomy,
the one enumerator of hyperbolic signatures over a set of cone orders,
Gauss-Bonnet areas, side lengths from the angle law of cosines, and the two
polygon laws (almost-right Lambert quadrilateral, all-right hexagon) that
the distance arguments downstream rely on.

A signature stores only its orders p <= q <= r.  Its Euler characteristic
chi = 1/p + 1/q + 1/r - 1 is one exact ``Fraction``, computed when it is
read.  Classification reads its sign, so a Euclidean signature such as
(3, 3, 3) is never misclassified by float rounding, and the area is
-2 pi chi.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, NamedTuple

from .errors import CheckedRecord, DomainError, require_finite, require_positive

__all__ = [
    "MAX_CONE_ORDER",
    "TurnoverSignature",
    "GeometryClass",
    "classify",
    "hyperbolic_signatures",
    "turnover_area",
    "TriangleGeometry",
    "triangle_geometry",
    "lambert_leg_bound",
    "hexagon_side",
]

# Cone orders are capped so 1/p sums stay well-conditioned; real signatures
# are tiny.
MAX_CONE_ORDER = 10**6


class _SignatureFields(NamedTuple):
    p: int
    q: int
    r: int


class TurnoverSignature(CheckedRecord, _SignatureFields):
    """Ordered triple of cone orders, normalized so p <= q <= r."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int) -> TurnoverSignature:
        orders = (p, q, r)
        for n in orders:
            if not isinstance(n, int) or isinstance(n, bool):
                raise DomainError(f"cone order {n!r} is not an integer")
            if n < 2:
                raise DomainError(f"cone order {n} < 2")
            if n > MAX_CONE_ORDER:
                raise DomainError(f"cone order {n} exceeds {MAX_CONE_ORDER}")
        return super().__new__(cls, *sorted(orders))

    @property
    def orders(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def chi_fraction(self) -> Fraction:
        """Orbifold Euler characteristic 1/p + 1/q + 1/r - 1, exactly."""
        p, q, r = self.p, self.q, self.r
        return Fraction(q * r + p * r + p * q - p * q * r, p * q * r)

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r})"


class GeometryClass(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


def classify(sig: TurnoverSignature) -> GeometryClass:
    """Trichotomy by the sign of 1/p + 1/q + 1/r - 1 (exact)."""
    chi = sig.chi_fraction()
    if chi > 0:
        return GeometryClass.SPHERICAL
    if chi == 0:
        return GeometryClass.EUCLIDEAN
    return GeometryClass.HYPERBOLIC


def hyperbolic_signatures(orders: Iterable[int]) -> Iterator[TurnoverSignature]:
    """Every hyperbolic signature whose cone orders all lie in ``orders``,
    each once, in lexicographic order of (p, q, r).  The signatures are
    interned in a bounded cache, so callers share one object per triple."""
    for triple in combinations_with_replacement(sorted(set(orders)), 3):
        sig = _hyperbolic_signature(*triple)
        if sig is not None:
            yield sig


# The census at orders <= 12 meets 969 distinct triples.
@lru_cache(maxsize=4096, typed=True)
def _hyperbolic_signature(p: int, q: int, r: int) -> TurnoverSignature | None:
    """The signature of the sorted triple when it is hyperbolic, else None.
    Typed, so an order ``2.0`` is not read as ``2`` and still reaches
    ``TurnoverSignature``, which rejects it."""
    sig = TurnoverSignature(p, q, r)
    return sig if classify(sig) is GeometryClass.HYPERBOLIC else None


def require_hyperbolic(sig: TurnoverSignature) -> None:
    """A ``DomainError`` unless ``sig`` is a hyperbolic ``TurnoverSignature``;
    a plain tuple of orders is not one."""
    if not isinstance(sig, TurnoverSignature):
        raise DomainError(f"{sig!r} is not a TurnoverSignature")
    kind = classify(sig)
    if kind is not GeometryClass.HYPERBOLIC:
        raise DomainError(f"signature {sig} is {kind.value}, not hyperbolic")


def turnover_area(sig: TurnoverSignature) -> float:
    """Gauss-Bonnet area 2*pi*(1 - 1/p - 1/q - 1/r) of a hyperbolic turnover."""
    require_hyperbolic(sig)
    return 2.0 * math.pi * float(-sig.chi_fraction())


class TriangleGeometry(NamedTuple):
    """Angles, side lengths, and area of the hyperbolic (p, q, r) triangle;
    the turnover's area is ``turnover_area(signature)``.

    ``sides[i]`` is opposite ``angles[i]``, i.e. it joins the two vertices
    whose orders are the other two entries of the signature.  ``diameter``
    is the longest side; for a geodesic triangle the intrinsic diameter is
    realized between vertices.
    """

    signature: TurnoverSignature
    angles: tuple[float, float, float]
    sides: tuple[float, float, float]
    area_triangle: float
    diameter: float

    def side_between(self, order_a: int, order_b: int) -> float:
        """Side joining a vertex of order ``order_a`` and one of ``order_b``.

        When orders repeat the choice is immaterial by symmetry.
        """
        orders = self.signature.orders
        want = sorted((order_a, order_b))
        for k in range(3):
            pair = sorted(orders[i] for i in range(3) if i != k)
            if pair == want:
                return self.sides[k]
        raise DomainError(
            f"no vertex pair of orders {order_a}, {order_b} in {self.signature}"
        )


def triangle_geometry(sig: TurnoverSignature) -> TriangleGeometry:
    """Solve the (p, q, r) triangle from its angles.

    Side opposite angle gamma satisfies
    cosh(side) = (cos gamma + cos alpha cos beta) / (sin alpha sin beta).
    """
    require_hyperbolic(sig)
    angles = tuple(math.pi / n for n in sig.orders)

    def side_opposite(k: int) -> float:
        gamma = angles[k]
        alpha, beta = (angles[i] for i in range(3) if i != k)
        num = math.cos(gamma) + math.cos(alpha) * math.cos(beta)
        den = math.sin(alpha) * math.sin(beta)
        return math.acosh(max(num / den, 1.0))

    sides = (side_opposite(0), side_opposite(1), side_opposite(2))
    return TriangleGeometry(
        signature=sig,
        angles=angles,
        sides=sides,
        area_triangle=0.5 * turnover_area(sig),
        diameter=max(sides),
    )


def lambert_leg_bound(d: float) -> float:
    """Lower bound asinh(1/sinh(d)) for the perpendicular leg.

    In the almost-right quadrilateral configuration, a ray leaving one end
    of a segment of length ``d`` and staying disjoint from a perpendicular
    geodesic at the far end forces the adjacent leg to exceed this value.
    """
    require_positive(d, "leg-bound base length")
    return math.asinh(1.0 / math.sinh(d))


def hexagon_side(l: float, l_prime: float) -> float:
    """All-right hexagon law: side d opposite alternating sides l, l', l.

    cosh d = (cosh^2 l + cosh l') / sinh^2 l, which is at least
    cosh l / (cosh l - 1), with equality exactly at l' = l.  Evaluated as
    sinh(d/2) = cosh(l'/2) / sinh l, the same law without the cancellation
    in cosh d - 1.  An infinite side, and sides for which a term leaves
    float range, raise ``DomainError``.
    """
    require_finite(require_positive(l, "hexagon side"), "hexagon side")
    require_finite(require_positive(l_prime, "hexagon side"), "hexagon side")
    try:
        d = 2.0 * math.asinh(math.cosh(0.5 * l_prime) / math.sinh(l))
        if math.isfinite(d):
            return d
    except OverflowError:
        pass
    raise DomainError(f"hexagon side opposite ({l}, {l_prime}) is outside float range")
