"""Deterministic scalar numerics: root finder, quadrature, Lobachevsky kernel.

Everything downstream (hyperbolic trigonometry, volume bounds, room
integrals) funnels its 1-D numerics through this module so that tolerances
and failure modes are uniform.  The workhorses are

* ``find_root`` -- a guarded bisection/secant hybrid.  Secant steps give the
  usual superlinear convergence, but a bisection step is forced on every
  other iteration so the bracket width provably halves at least once per
  two iterations.  The result is deterministic and carries the plain
  bisection guarantee.

* ``integrate`` -- adaptive Simpson quadrature with special handling for
  integrable endpoint singularities.  If the integrand is non-finite (or
  raises) at an endpoint, the interval is split at a relative offset of
  1e-6 from that endpoint; the smooth part is integrated adaptively and the
  singular sliver is summed over dyadic shells shrinking toward the
  endpoint until the shell contributions drop below the tolerance.  This is
  enough for logarithmic singularities such as ``-log(2 sin u)`` at 0.

* ``_leggauss`` / ``_fixed_rule`` -- cached Gauss-Legendre nodes (the one
  node source of the package; the room quadrature uses them too) and one
  fixed 20-node rule for analytic integrands on [0, b].

``lobachevsky`` evaluates the function

    L(theta) = -Integral_0^theta log|2 sin u| du
             = theta (1 - log 2 theta) - Integral_0^theta log(sin u / u) du

on [0, pi/2]; it is the kernel of every hyperbolic volume computed by this
package.  The second form takes the log singularity out in closed form and
leaves an integrand that is analytic on [0, pi/2] (its nearest
singularities are at +-pi), so the fixed rule reaches an absolute error of
a few 1e-16 against ``mpmath.clsin(2, 2 theta) / 2``.  It reads no
tolerance.

Tolerance is an explicit argument of every adaptive function in the
package, defaulting to ``DEFAULT_TOLERANCE``; there is no process-wide
setting.  The CLI resolves ``--tol`` / ``TURNOVER_TOL`` into one
``Tolerance`` per invocation and passes it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "Bracket",
    "DEFAULT_TOLERANCE",
    "find_root",
    "integrate",
    "lobachevsky",
]

# Relative offset used to split an interval away from a singular endpoint.
_SINGULAR_SPLIT = 1e-6

# Order of the fixed Gauss-Legendre rule behind the closed-form kernels.
# 20 nodes pin L to a few 1e-16 absolute and Vol(T_theta) to below 1e-14
# relative; 16 nodes leave the volume near pi/3 at about 1e-13.
_FIXED_NODES = 20


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget.

    The effective tolerance for a quantity of magnitude ``x`` is
    ``abs_tol + rel_tol * |x|``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError("abs_tol must be a positive finite real")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise DomainError("rel_tol must be a nonnegative finite real")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise DomainError("max_iter must be an integer >= 1")

    def bound(self, magnitude: float) -> float:
        """Effective tolerance for a quantity of the given magnitude."""
        return self.abs_tol + self.rel_tol * abs(magnitude)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi]; endpoints are swapped into order."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("bracket endpoints must be finite")
        if lo == hi:
            raise DomainError("bracket is empty")
        if lo > hi:
            lo, hi = hi, lo
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Find a root of ``f`` inside ``bracket``.

    ``f`` must be continuous and change sign across the bracket.  Iteration
    alternates a secant proposal (when it lands strictly inside the current
    bracket) with plain bisection, so the bracket width is halved at least
    every second step and the returned point satisfies the bisection
    guarantee: it lies within ``tol.bound(root)`` of a sign change.

    Raises ``BracketError`` when there is no sign change and
    ``ConvergenceError`` when ``tol.max_iter`` iterations do not suffice.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")

    for iteration in range(tol.max_iter):
        mid = 0.5 * (a + b)
        if 0.5 * (b - a) <= tol.bound(mid):
            return mid
        x = mid
        if iteration % 2 == 0 and fb != fa:
            secant = b - fb * (b - a) / (fb - fa)
            if a < secant < b:
                x = secant
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise ConvergenceError(
        f"root not bracketed to tolerance within {tol.max_iter} iterations"
    )


def _probe(f: Callable[[float], float], x: float) -> tuple[float, bool]:
    """Evaluate ``f`` at ``x``; report (value, is_finite)."""
    try:
        value = f(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan, False
    return value, math.isfinite(value)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    eps: float,
    max_depth: int,
) -> float:
    """Classical adaptive Simpson with per-level tolerance halving."""
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)

    def recurse(a, m, b, fa, fm, fb, whole, eps, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        if depth <= 0:
            raise ConvergenceError(
                f"quadrature did not converge on [{a}, {b}]"
            )
        half = 0.5 * eps
        return recurse(a, lm, m, fa, flm, fm, left, half, depth - 1) + recurse(
            m, rm, b, fm, frm, fb, right, half, depth - 1
        )

    return recurse(a, m, b, fa, fm, fb, whole, eps, max_depth)


def _singular_tail(
    f: Callable[[float], float],
    edge: float,
    inner: float,
    tol: Tolerance,
) -> float:
    """Integrate from a singular endpoint ``edge`` up to ``inner``.

    Dyadic shells [edge + w/2, edge + w] are integrated adaptively and
    summed until a shell contributes less than a quarter of the absolute
    tolerance; for an integrable logarithmic singularity the contributions
    decay geometrically, so the discarded tail is below ``abs_tol``.
    """
    shell_eps = tol.abs_tol / 16.0
    total = 0.0
    outer = inner
    width = inner - edge  # signed; shells stay on the singular side of inner
    for _ in range(tol.max_iter):
        width *= 0.5
        cut = edge + width
        lo, hi = min(cut, outer), max(cut, outer)
        # Each shell is integrated left to right, which is already its
        # oriented contribution on either side of the interval.
        piece = _adaptive_simpson(f, lo, hi, shell_eps, tol.max_iter)
        total += piece
        outer = cut
        if abs(piece) <= 0.25 * tol.abs_tol:
            return total
    raise ConvergenceError("endpoint singularity did not decay")


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Adaptive estimate of the integral of ``f`` over [a, b].

    Integrable endpoint singularities of logarithmic type are handled; see
    the module docstring.  Raises ``ConvergenceError`` when the subdivision
    budget is exhausted.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol)

    singular_a = not _probe(f, a)[1]
    singular_b = not _probe(f, b)[1]
    width = b - a
    lo = a + _SINGULAR_SPLIT * width if singular_a else a
    hi = b - _SINGULAR_SPLIT * width if singular_b else b
    if lo >= hi:
        raise ConvergenceError("interval vanished while isolating singularities")

    # Cheap scale estimate so the relative part of the tolerance is honored.
    mid = 0.5 * (lo + hi)
    rough = _simpson(f(lo), f(mid), f(hi), hi - lo)
    eps = tol.abs_tol + tol.rel_tol * abs(rough)

    total = _adaptive_simpson(f, lo, hi, eps, tol.max_iter)
    if singular_a:
        total += _singular_tail(f, edge=a, inner=lo, tol=tol)
    if singular_b:
        total += _singular_tail(f, edge=b, inner=hi, tol=tol)
    return total


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order ``n`` on [-1, 1], as numpy
    arrays.  numpy is imported on first use: the scalar numerics and
    ``import turnover`` do not need it."""
    import numpy as np

    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=1)
def _unit_rule() -> tuple[tuple[float, float], ...]:
    """The fixed rule on [0, 1] as (node, weight) float pairs.

    Built on first use, so that importing the package does not load
    ``numpy.polynomial``.
    """
    x, w = _leggauss(_FIXED_NODES)
    return tuple(zip((0.5 * (x + 1.0)).tolist(), (0.5 * w).tolist()))


def _fixed_rule(f: Callable[[float], float], b: float) -> float:
    """Fixed-rule estimate of Integral_0^b f; no error control.

    Only for integrands analytic on a neighbourhood of [0, b], where the
    error of the rule is pinned by the tests rather than estimated.
    """
    return b * sum(w * f(b * x) for x, w in _unit_rule())


def _log_sinc(u: float) -> float:
    return math.log(math.sin(u) / u)


def lobachevsky(theta: float) -> float:
    """The Lobachevsky-type integral -Integral_0^theta log|2 sin u| du.

    Supported on [0, pi/2], which covers every use in this package.  The
    log singularity at 0 is integrated in closed form; see the module
    docstring.
    """
    theta = float(theta)
    if not (0.0 <= theta <= math.pi / 2):
        raise DomainError(f"theta={theta} outside [0, pi/2]")
    if theta == 0.0:
        return 0.0
    return theta * (1.0 - math.log(2.0 * theta)) - _fixed_rule(_log_sinc, theta)
