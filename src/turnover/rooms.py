"""Floor/ceiling/room integrals over a geodesic plane, and the cusp prism bound.

Coordinates are Fermi coordinates based at a geodesic plane: the metric is

    dh^2 + cosh^2(h) (dr^2 + sinh^2(r) dtheta^2),

with (r, theta) polar coordinates in the plane and h the perpendicular
height.  A floor F is a region of the plane, a ceiling is the graph of a
height function g over F, and the room is the solid between them.  The
quantities computed here:

    Vol(room)    = Int_F (sinh 2g + 2g)/4 dA
    Area(ceil.)  = Int_F cosh g sqrt((g_r^2 + cosh^2 g) sinh^2 r + g_theta^2) dr dtheta
    nice height  H with sinh 2H + 2H = 4 V / A_F  (equal-volume constant room)
    Area(nice)   = (A_F + sqrt(A_F^2 + 4 (2V - H A_F)^2)) / 2  =  A_F cosh^2 H

The isoperimetric theorem states Area(ceiling) >= Area(nice ceiling), and
the nice-room ratio 4 cosh^2 H / (sinh 2H + 2H) is minimized at the
positive solution of x = coth x, with minimum 2/H*; together these give
Vol(room) <= (H*/2) Area(ceiling).  ``isoperimetric_check`` recomputes all
four quantities for a given ceiling and raises ``InequalityViolation`` if
either inequality fails beyond tolerance, which would indicate a quadrature
bug.

The cusp prism bound is the one computation that needs a triangle floor: for
a triangle strictly inside the unit disk of the projective model,

    volume     = (1/2) Int_T dx dy / (1 - x^2 - y^2)          (solid above it)
    floor area = Int_T dx dy / (1 - x^2 - y^2)^(3/2)          (projective area)

and volume < floor_area / 2 pointwise.

2-D quadrature is a tensor-product rule, Gauss-Legendre in the
radial/affine directions and a periodic midpoint rule in theta, run by
``numerics._converge`` on arrays of ``numerics._leggauss`` nodes; no other
module imports numpy.  A ceiling supplies its height and its exact
gradient, both evaluated on the node grid (r an (n, 1) column, theta a
(1, 2n) row); there is no finite-difference fallback.  The random ceiling
sums its modes as one matrix product, an (n, modes) radial matrix times a
(modes, 2n) angular matrix, and rejects any other shape.  Monte Carlo is
only a test oracle, never used here.

One node evaluation per order feeds both integrals of a check.
``isoperimetric_check`` calls ``height`` and ``gradient`` once per order,
takes sinh r once, and integrates the volume and area densities together;
each density is summed in place in one array, and a density constant in
theta, an (n, 1) column, is repeated across the 2n angles only for the
final row sums, which keeps the bits of a sum over the broadcast grid.
The quadrature's grids are read-only, so the random ceiling remembers the
last one by identity: tanh r and the cos and sin of its mode angles are
computed once per grid for both ``height`` and ``gradient``.
``cusp_prism_check`` builds the collapsed nodes and the gap 1 - x^2 - y^2
once per order for both of its integrands, with the Jacobian's factor u
folded into the row weights and its constant into the scalar sum.
``_converge`` gives each quantity the estimate at which it alone
converged, so ``room_volume`` and ``ceiling_area``, which integrate the
same density functions one at a time, return the same bits as the fused
check; the names in a ``ConvergenceError`` are formatted only when it is
raised.  A ceiling too tall for these quantities to be floats (a constant
one over the unit-radius disk from a height of about 177) is a
``DomainError`` naming its height, in all three disk integrals.

The nice height is the one root found here.  sinh 2H + 2H is increasing
and convex, so ``nice_height`` runs Newton's method from a start to the
right of the root, which descends onto it without overshooting, and
certifies the result with one evaluation a tolerance below it: a few sinh
evaluations per check where a bracketing search took about 23.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import CheckedRecord, ConvergenceError, DomainError, InequalityViolation
from .errors import require_finite, require_nonnegative, require_positive
from .numerics import DEFAULT_TOLERANCE, Tolerance, constant_H
from .numerics import _NODE_COUNTS, _converge, _leggauss

__all__ = [
    "PolarDisk",
    "ProjectiveTriangle",
    "FloorRegion",
    "CeilingFunction",
    "RoomSpec",
    "room_volume",
    "ceiling_area",
    "nice_height",
    "nice_ceiling_area",
    "constant_H",
    "nice_room_ratio",
    "isoperimetric_check",
    "cusp_prism_check",
    "random_smooth_ceiling",
    "isoperimetric_sweep",
]


class _DiskFields(NamedTuple):
    radius: float


class PolarDisk(CheckedRecord, _DiskFields):
    """Disk floor of the given hyperbolic radius, centered at the origin."""

    __slots__ = ()

    def __new__(cls, radius: float) -> PolarDisk:
        require_finite(require_positive(radius, "disk radius"), "disk radius")
        return super().__new__(cls, radius)

    @property
    def area(self) -> float:
        """2 pi (cosh r - 1), written as 4 pi sinh^2(r/2) so that small radii
        do not cancel."""
        return 4.0 * math.pi * math.sinh(0.5 * self.radius) ** 2


class _TriangleFields(NamedTuple):
    vertices: tuple[tuple[float, float], ...]


class ProjectiveTriangle(CheckedRecord, _TriangleFields):
    """Triangle with vertices strictly inside the unit disk (projective model)."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[tuple[float, float], ...]) -> ProjectiveTriangle:
        if len(vertices) != 3:
            raise DomainError("a triangle needs exactly three vertices")
        vs = tuple((float(x), float(y)) for x, y in vertices)
        for x, y in vs:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError("triangle vertices must be finite")
            if x * x + y * y >= 1.0:
                raise DomainError(f"vertex ({x}, {y}) not strictly inside the unit disk")
        if len({v for v in vs}) != 3:
            raise DomainError("triangle vertices must be pairwise distinct")
        (ax, ay), (bx, by), (cx, cy) = vs
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(cross) < 1e-14:
            raise DomainError("triangle vertices are collinear")
        return super().__new__(cls, vs)


FloorRegion = PolarDisk | ProjectiveTriangle


class CeilingFunction(NamedTuple):
    """Nonnegative height function g(r, theta) over a floor, with its gradient.

    ``height(r, theta)`` returns g and ``gradient(r, theta)`` returns the
    pair (g_r, g_theta).  The quadratures call both on the node grid: r an
    (n, 1) column of radii and theta a (1, 2n) row of angles, both
    read-only, the same pair for both calls of one order.  They may
    return scalars or arrays of any shape that broadcasts against (r, theta),
    because the quadratures broadcast only the densities built from them.
    ``random_smooth_ceiling`` sums its modes as one matrix product and
    accepts only that grid.
    """

    height: Callable
    gradient: Callable

    @staticmethod
    def constant(h: float) -> "CeilingFunction":
        require_finite(require_nonnegative(h, "constant ceiling height"),
                       "constant ceiling height")
        return CeilingFunction(height=lambda r, theta: h,
                               gradient=lambda r, theta: (0.0, 0.0))


class RoomSpec(NamedTuple):
    """Computed summary of one room: volume, areas, and the nice comparison."""

    volume: float
    ceiling_area: float
    equivalent_height: float
    nice_area: float

    @property
    def margin(self) -> float:
        return self.ceiling_area - self.nice_area

    def to_record(self) -> dict:
        return {
            "V": self.volume,
            "A_C": self.ceiling_area,
            "A_S": self.nice_area,
            "H_equiv": self.equivalent_height,
            "margin": self.margin,
        }


# --- tensor-product quadrature ----------------------------------------------


@lru_cache(maxsize=len(_NODE_COUNTS))
def _unit_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-``n`` Gauss-Legendre nodes and weights on [0, 1] as arrays."""
    x, w = np.array(_leggauss(n)).T
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=len(_NODE_COUNTS))
def _midpoint_angles(n: int) -> np.ndarray:
    """The 2n periodic midpoint angles on [0, 2 pi] as a read-only row."""
    m = 2 * n
    theta = ((np.arange(m) + 0.5) * (2.0 * math.pi / m))[None, :]
    theta.flags.writeable = False
    return theta


def _disk_grid(n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Order-``n`` disk nodes: Gauss radii as a column, 2n angles as a row,
    both read-only."""
    r = radius * _unit_nodes(n)[0][:, None]
    r.flags.writeable = False
    return r, _midpoint_angles(n)


def _disk_quadrature(
    densities: Callable,
    ceiling: CeilingFunction,
    radius: float,
    tol: Tolerance,
    quantities: tuple[str, ...],
) -> tuple[float, ...]:
    """Integrate each of ``densities(ceiling, r, theta)`` over [0, radius] x [0, 2 pi].

    ``densities`` returns one array per quantity named in ``quantities``,
    each the (n, 2n) node grid or an (n, 1) column constant in theta, and
    already including every metric factor, so one evaluation of the nodes
    per order feeds every integral.  Gauss panels in r, periodic midpoints in theta, orders raised
    by ``_converge``.  The rule runs with numpy overflow raised: a ceiling
    too tall for its densities to be floats is a ``DomainError`` naming its
    height.
    """

    def estimate(n: int) -> tuple[float, ...]:
        _, w = _unit_nodes(n)
        m = 2 * n
        weights = (2.0 * math.pi / m) * radius * w
        totals = []
        for values in densities(ceiling, *_disk_grid(n, radius)):
            if values.shape != (n, m):  # an (n, 1) density, constant in theta
                values = np.repeat(values, m, axis=1)
            totals.append(float(weights @ np.add.reduce(values, axis=1)))
        return tuple(totals)

    def what() -> tuple[str, ...]:
        return tuple(
            f"disk quadrature of the {quantity} on [0, {radius}] x [0, 2 pi]"
            for quantity in quantities
        )

    try:
        with np.errstate(over="raise"):
            return _converge(estimate, tol, what)
    except FloatingPointError:
        tallest = float(np.max(ceiling.height(*_disk_grid(_NODE_COUNTS[0], radius))))
        raise DomainError(
            f"room integrals overflow a float: ceiling height {tallest:.6g} over "
            f"a disk of radius {radius}"
        ) from None


def _triangle_quadrature(
    densities: Callable, tri: ProjectiveTriangle, tol: Tolerance, quantities: tuple[str, ...]
) -> tuple[float, ...]:
    """Integrate each of ``densities(x, y)`` dx dy over the triangle.

    Uses the square-to-triangle collapse P(u, v) = A + u ((B-A) + v (C-B))
    on [0,1]^2, whose Jacobian is u * |cross(B-A, C-B)|; the collapsed
    nodes are built once per order for every density.  The factor u is
    folded into the row weights and the constant |cross| into the scalar
    sum, so each density is reduced by two matrix-vector products.
    """
    (ax, ay), (bx, by), (cx, cy) = tri.vertices
    e1 = (bx - ax, by - ay)
    e2 = (cx - bx, cy - by)
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])

    def estimate(n: int) -> tuple[float, ...]:
        u, w = _unit_nodes(n)
        U, V = u[:, None], u[None, :]
        x = ax + U * (e1[0] + V * e2[0])
        y = ay + U * (e1[1] + V * e2[1])
        wu = w * u
        return tuple(jac * float(wu @ values @ w) for values in densities(x, y))

    def what() -> tuple[str, ...]:
        return tuple(
            f"triangle quadrature over {tri.vertices} of {quantity}"
            for quantity in quantities
        )

    return _converge(estimate, tol, what)


def _require_disk(floor: FloorRegion) -> PolarDisk:
    if isinstance(floor, PolarDisk):
        return floor
    raise DomainError(
        "room integrals support disk floors only; triangle floors enter "
        "through cusp_prism_check"
    )


# --- room densities: each written once, shared by the fused and lone integrals


def _into(acc, ufunc, operand):
    """``ufunc(acc, operand)``, written over the array ``acc`` in place; a
    fresh value when ``acc`` is a scalar or cannot hold the result, being
    narrower in shape or type (a ceiling constant in r or in theta)."""
    if isinstance(acc, np.ndarray):
        try:
            return ufunc(acc, operand, out=acc)
        except (TypeError, ValueError):
            pass
    return ufunc(acc, operand)


def _volume_density(g, sinh_r):
    """(sinh 2g + 2g)/4 dA of the room under height g."""
    two_g = 2.0 * g
    density = np.sinh(two_g)
    density += two_g
    # 0.25 is a power of two: the same bits as 0.25 * (...) * sinh_r.
    return _into(density, np.multiply, 0.25 * sinh_r)


def _area_density(g, g_r, g_t, sinh_r):
    """cosh g sqrt((g_r^2 + cosh^2 g) sinh^2 r + g_theta^2) of the ceiling's graph."""
    cg = np.cosh(g)
    # cg**2, not np.square: a scalar cg squares through pow, not always cg * cg.
    density = _into(np.square(g_r), np.add, cg**2)
    density = _into(density, np.multiply, np.square(sinh_r))
    density = _into(density, np.add, np.square(g_t))
    np.sqrt(density, out=density)
    density *= cg
    return density


def _room_densities(ceiling, r, theta):
    """The volume and area densities from one ``height`` and one ``gradient``
    evaluation, sharing sinh r."""
    g = ceiling.height(r, theta)
    g_r, g_t = ceiling.gradient(r, theta)
    sinh_r = np.sinh(r)
    return _volume_density(g, sinh_r), _area_density(g, g_r, g_t, sinh_r)


def _room_volume_density(ceiling, r, theta):
    return (_volume_density(ceiling.height(r, theta), np.sinh(r)),)


def _ceiling_area_density(ceiling, r, theta):
    g_r, g_t = ceiling.gradient(r, theta)
    return (_area_density(ceiling.height(r, theta), g_r, g_t, np.sinh(r)),)


def _prism_densities(x, y):
    """1/gap and gap^(-3/2), gap = 1 - x^2 - y^2: the cusp prism's volume
    (twice over) and the projective area element."""
    gap = 1.0 - x * x - y * y
    return 1.0 / gap, gap ** -1.5


# --- room operations ---------------------------------------------------------


def room_volume(
    floor: FloorRegion, ceiling: CeilingFunction, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Volume Int_F (sinh 2g + 2g)/4 dA of the room under ``ceiling``."""
    disk = _require_disk(floor)
    return _disk_quadrature(
        _room_volume_density, ceiling, disk.radius, tol, ("room volume",)
    )[0]


def ceiling_area(
    floor: FloorRegion, ceiling: CeilingFunction, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Area of the graph of ``ceiling`` over the floor."""
    disk = _require_disk(floor)
    return _disk_quadrature(
        _ceiling_area_density, ceiling, disk.radius, tol, ("ceiling area",)
    )[0]


# Largest nice height tried: sinh 2H stays a float up to about 354.9.
_MAX_HEIGHT = 0.5 * math.log(sys.float_info.max)

# Step budget of ``nice_height``: each step is one sinh evaluation, a Newton
# step or a certifying probe.  At the default tolerance and at 1e-3 it
# takes at most ten.
_NEWTON_STEPS = 32


def nice_height(V: float, A_F: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Height H >= 0 of the constant-ceiling room with volume V over area A_F.

    Solves f(H) = sinh 2H + 2H - 4 V / A_F = 0 by Newton's method.  f is
    increasing and convex on H >= 0, and f >= 0 at both rhs/4 and
    asinh(rhs)/2, so Newton started at the smaller of them descends onto
    the root without overshooting it.  The start is capped at
    ``_MAX_HEIGHT``, where sinh 2H is still a float; a right-hand side whose
    root lies beyond it is a ``DomainError``.  Once a step lands within
    ``tol.bound`` of the last point where f >= 0, one more evaluation
    certifies it, f(H - tol.bound(H)) <= 0 (or, where rounding leaves H just
    below the root, f(H + tol.bound(H)) >= 0), so H lies within
    ``tol.bound`` of a sign change, the guarantee ``find_root`` gives.  A
    budget of ``_NEWTON_STEPS`` steps that does not suffice is a
    ``ConvergenceError`` naming the right-hand side and the last step.
    """
    require_finite(require_nonnegative(V, "volume"), "volume")
    require_finite(require_positive(A_F, "floor area"), "floor area")
    if V == 0.0:
        return 0.0
    rhs = 4.0 * V / A_F
    # h is the estimate.  It is returned once points with f <= 0 and f >= 0
    # lie within bound(h) below and above it; f is evaluated at h, or at
    # h -+ bound(h) to certify the one side still open.
    h = min(0.25 * rhs, 0.5 * math.asinh(rhs), _MAX_HEIGHT)
    below, above = 0.0, math.inf  # f(below) <= 0 <= f(above)
    for _ in range(_NEWTON_STEPS):
        bound = tol.bound(h)
        if above <= h + bound:
            if below >= h - bound:
                return h
            x = h - bound
        elif below >= h - bound:
            x = min(h + bound, _MAX_HEIGHT)
        else:
            x = h
        s = math.sinh(2.0 * x)
        fx = s + 2.0 * x - rhs
        if fx >= 0.0:
            above = x
        elif x == _MAX_HEIGHT:
            raise DomainError(
                f"nice height overflows: sinh 2H + 2H = 4 V / A_F = {rhs:.6g} needs "
                f"H above {_MAX_HEIGHT:.6g} (volume {V}, floor area {A_F})"
            )
        if fx <= 0.0:
            below = x
        if x == h or (fx > 0.0) == (x < h):  # not a probe that closed its side
            step = fx / (2.0 * (math.hypot(1.0, s) + 1.0))  # f / f', f' = 2 cosh 2x + 2
            h = x - step
    raise ConvergenceError(
        f"nice height not certified in {_NEWTON_STEPS} steps: "
        f"sinh 2H + 2H = 4 V / A_F = {rhs!r}, last step {step:.3g} to H = {h!r}"
    )


def nice_ceiling_area(V: float, A_F: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Closed form (A_F + sqrt(A_F^2 + 4 (2V - H A_F)^2)) / 2 for the nice area.

    Agrees with A_F cosh^2(nice_height(V, A_F)) to tolerance.
    """
    return _nice_area(V, A_F, nice_height(V, A_F, tol))


def _nice_area(V: float, A_F: float, H: float) -> float:
    try:
        area = 0.5 * (A_F + math.sqrt(A_F**2 + 4.0 * (2.0 * V - H * A_F) ** 2))
    except OverflowError:
        area = math.inf
    if area == math.inf:
        raise DomainError(
            f"nice ceiling area overflows a float at height {H:.6g} "
            f"over floor area {A_F:.6g}"
        )
    return area


def nice_room_ratio(H: float) -> float:
    """Area-to-volume ratio 4 cosh^2 H / (sinh 2H + 2H) of the nice room.

    Evaluated in an exp(-2H)-scaled form so large heights neither overflow
    nor lose the limit value 2.  The minimum over H > 0 is 2/constant_H().
    """
    require_finite(require_positive(H, "height"), "height")
    u = math.exp(-2.0 * H)
    return (1.0 + u) ** 2 / (0.5 * (1.0 - u * u) + 2.0 * H * u)


def isoperimetric_check(
    floor: FloorRegion, ceiling: CeilingFunction, tol: Tolerance = DEFAULT_TOLERANCE
) -> RoomSpec:
    """Compute V, Area(C), H, Area(S) and verify both proved inequalities.

    V and Area(C) are integrated together: one ``height`` and one
    ``gradient`` evaluation per quadrature order feed both densities.
    Raises ``InequalityViolation`` if Area(C) < Area(S) or
    V > (H*/2) Area(C) beyond tolerance; both comparisons get a tolerance
    band because the constant ceiling attains equality.  A ceiling too tall
    for these quantities to be floats is a ``DomainError`` naming its height.
    """
    disk = _require_disk(floor)
    V, A_C = _disk_quadrature(
        _room_densities, ceiling, disk.radius, tol, ("room volume", "ceiling area")
    )
    A_F = disk.area
    H_eq = nice_height(V, A_F, tol)
    A_S = _nice_area(V, A_F, H_eq)
    if A_C < A_S - tol.bound(A_S):
        raise InequalityViolation(
            f"ceiling area {A_C} fell below nice area {A_S}; quadrature bug"
        )
    ceiling_bound = 0.5 * constant_H() * A_C
    if V > ceiling_bound + tol.bound(V):
        raise InequalityViolation(
            f"volume {V} exceeded (H/2) * ceiling area {ceiling_bound}; quadrature bug"
        )
    return RoomSpec(
        volume=V,
        ceiling_area=A_C,
        equivalent_height=H_eq,
        nice_area=A_S,
    )


def cusp_prism_check(
    tri: ProjectiveTriangle, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Volume above a projective-model triangle and the triangle's area.

    Returns (volume, floor_area) with
    volume = (1/2) Int dx dy / (1 - x^2 - y^2) and
    floor_area = Int dx dy / (1 - x^2 - y^2)^(3/2), both integrated from one
    set of collapsed nodes per order; asserts the strict pointwise
    inequality volume < floor_area / 2.
    """
    inverse_gap, floor_area = _triangle_quadrature(
        _prism_densities, tri, tol, ("1/gap", "gap^-1.5")
    )
    volume = 0.5 * inverse_gap
    if volume >= 0.5 * floor_area + tol.bound(volume):
        raise InequalityViolation(
            f"cusp prism volume {volume} reached half the floor area "
            f"{floor_area}; quadrature bug"
        )
    return volume, floor_area


# --- seeded sweeps -----------------------------------------------------------


def random_smooth_ceiling(rng: np.random.Generator) -> CeilingFunction:
    """A random bounded smooth ceiling with heights inside (0, 3).

    Base height in [0.6, 1.4] plus up to three angular modes with radial
    profiles tanh(r)^j, budgeted so the total wiggle stays below 85% of the
    base; the j-th power pins the mode to zero at the origin, keeping the
    graph smooth there.  The height and its gradient sum the modes as one
    matrix product of an (n, modes) radial matrix and a (modes, m) angular
    matrix, so they take r as an (n, 1) column and theta as a (1, m) row,
    the quadrature grid; any other shape is a ``DomainError``.  tanh r and
    the cos and sin of the mode angles are computed once per grid and
    shared by both: the last read-only (r, theta) pair is remembered by
    identity, and any other pair is evaluated afresh.
    """
    base = float(rng.uniform(0.6, 1.4))
    n_modes = int(rng.integers(1, 4))
    freqs = rng.integers(1, 4, size=n_modes)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_modes)
    raw = rng.uniform(0.2, 1.0, size=n_modes)
    amps = raw * (0.85 * base / raw.sum())

    f = freqs.astype(float)
    f_col, phase_col = f[:, None], phases[:, None]
    amps_f, f_less_1 = amps * f, f - 1.0
    last = None  # (r, theta, trig values) of the last read-only grid

    def grid_trig(r, theta):
        """tanh r as an (n, 1) column and cos, sin of the (modes, m) mode
        angles f theta + phase, shared by ``height`` and ``gradient``."""
        nonlocal last
        entry = last  # read once: a concurrent call cannot mix two grids
        if entry is not None and r is entry[0] and theta is entry[1]:
            return entry[2]
        r_shape, theta_shape = np.shape(r), np.shape(theta)
        if len(r_shape) != 2 or r_shape[1] != 1 or len(theta_shape) != 2 or theta_shape[0] != 1:
            raise DomainError(
                "a random ceiling is evaluated on a grid: r an (n, 1) column and "
                f"theta a (1, m) row, got shapes {r_shape} and {theta_shape}"
            )
        angles = f_col * theta + phase_col
        values = np.tanh(r), np.cos(angles), np.sin(angles)
        # Only a grid that cannot change in place is remembered by identity.
        if (isinstance(r, np.ndarray) and isinstance(theta, np.ndarray)
                and not (r.flags.writeable or theta.flags.writeable)):
            last = r, theta, values
        return values

    def height(r, theta):
        t, cos, _ = grid_trig(r, theta)
        g = (amps * t**f) @ cos
        g += base
        return g

    def gradient(r, theta):
        t, cos, sin = grid_trig(r, theta)
        d_dt = amps_f * t**f_less_1  # of each mode's radial profile amps t^f
        g_r = (d_dt * (1.0 - t * t)) @ cos
        g_t = (-d_dt * t) @ sin
        return g_r, g_t

    return CeilingFunction(height=height, gradient=gradient)


def isoperimetric_sweep(
    seed: int, count: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> list[RoomSpec]:
    """Run ``count`` random ceilings over random disk floors through
    ``isoperimetric_check``; violations propagate as ``InequalityViolation``."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        floor = PolarDisk(float(rng.uniform(0.6, 1.4)))
        ceiling = random_smooth_ceiling(rng)
        specs.append(isoperimetric_check(floor, ceiling, tol))
    return specs
