"""Deterministic scalar numerics: root finder, H*, quadrature, Lobachevsky kernel.

Everything downstream (hyperbolic trigonometry, volume bounds, room
integrals) takes its tolerances, quadratures and kernel from this module so
that failure modes are uniform.  The one root solved elsewhere is the nice
height of a room: ``rooms.nice_height`` runs its own certified Newton
iteration on a convex equation, with the same ``Tolerance`` and the same
guarantee as ``find_root``.  The workhorses are

* ``find_root`` -- a guarded bisection/secant hybrid, which now serves H*
  alone.  Secant steps give the usual superlinear convergence, but a
  bisection step is forced on every other iteration so the bracket width
  provably halves at least once per two iterations.  The result is
  deterministic and carries the plain bisection guarantee.  ``constant_H``
  is H*, its root of x = coth x, found once at ``DEFAULT_TOLERANCE``: a
  derived constant, not a tunable one.

* One Gauss-Legendre quadrature path: ``_leggauss`` is the single node
  source, in pure Python (only ``rooms`` imports numpy), and ``_converge``
  is the one adaptive loop, raising the order through ``_NODE_COUNTS`` until
  two estimates agree.  ``integrate`` and the room rules are estimates it
  runs.  An estimate is a tuple, so one node evaluation per order can feed
  several integrals: each room check integrates its two quantities
  together, and ``integrate`` is a 1-tuple.  ``integrate`` grades its nodes
  toward both ends, so log singularities such as ``-log(2 sin u)`` at 0
  need no probing.  ``_fixed_rule`` is one fixed 20-node rule for analytic
  integrands on [0, b].

``lobachevsky`` evaluates the function

    L(theta) = -Integral_0^theta log|2 sin u| du
             = theta (1 - log 2 theta) - Integral_0^theta log(sin u / u) du

on [0, pi/2]; it is the kernel of every hyperbolic volume computed by this
package.  The second form takes the log singularity out in closed form and
leaves an integrand that is analytic on [0, pi/2] (its nearest
singularities are at +-pi), so the fixed rule reaches an absolute error of
a few 1e-16 against ``mpmath.clsin(2, 2 theta) / 2``.  It reads no
tolerance.

A ``Tolerance`` is two numbers, ``(abs_tol, rel_tol)``; the step budgets
are fixed (``_ROOT_STEPS`` for ``find_root``, ``rooms._NEWTON_STEPS`` for
the nice height, the nine orders of ``_NODE_COUNTS`` for the
quadratures).  It is an explicit argument of every adaptive function in
the package, defaulting to ``DEFAULT_TOLERANCE``; there is no
process-wide setting.  The verdict chain (``engine``) reads none: its
only iterated quantity is H*.  The room quadratures and the nice height
do, and ``turnover room-check`` turns ``--tol`` into one ``Tolerance`` per
invocation and passes it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import BracketError, ConvergenceError, DomainError
from .errors import require_finite, require_nonnegative, require_positive

__all__ = [
    "Tolerance",
    "Bracket",
    "DEFAULT_TOLERANCE",
    "find_root",
    "constant_H",
    "integrate",
    "lobachevsky",
]

# Gauss-Legendre orders tried, in turn, by every adaptive rule.
_NODE_COUNTS = (16, 24, 32, 48, 64, 96, 128, 192, 256)

# Step budget of ``find_root``; every second step bisects the bracket.
_ROOT_STEPS = 200

# Order of the fixed Gauss-Legendre rule behind the closed-form kernels.
# 20 nodes pin L to a few 1e-16 absolute and Vol(T_theta) to below 1e-14
# relative; 16 nodes leave the volume near pi/3 at about 1e-13.
_FIXED_NODES = 20


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair.

    The effective tolerance for a quantity of magnitude ``x`` is
    ``abs_tol + rel_tol * |x|``.  The step budgets are fixed: ``find_root``
    takes at most ``_ROOT_STEPS`` steps, and the quadratures try each order
    in ``_NODE_COUNTS``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        require_finite(require_positive(self.abs_tol, "abs_tol"), "abs_tol")
        require_finite(require_nonnegative(self.rel_tol, "rel_tol"), "rel_tol")

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


def _name(f: Callable) -> str:
    return getattr(f, "__name__", repr(f))


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
    ``ConvergenceError`` when ``_ROOT_STEPS`` steps do not suffice.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")

    for iteration in range(_ROOT_STEPS):
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
        f"root of {_name(f)} not bracketed to tolerance within {_ROOT_STEPS} "
        f"iterations: final bracket [{a}, {b}], width {b - a:.3g}"
    )


@lru_cache(maxsize=1)
def constant_H() -> float:
    """H*, the positive solution of x = coth x (about 1.199679): one root at
    ``DEFAULT_TOLERANCE``, computed once.  It reads no caller's tolerance, so
    every volume budget uses the same constant."""
    return find_root(lambda x: x - math.cosh(x) / math.sinh(x), Bracket(1.0, 2.0))


@lru_cache(maxsize=len(_NODE_COUNTS) + 1)
def _leggauss(n: int) -> tuple[tuple[float, float], ...]:
    """Order-``n`` Gauss-Legendre (node, weight) float pairs on [-1, 1], nodes
    ascending: Newton on k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2} from
    cos(pi (i + 3/4) / (n + 1/2)), weight 2 / ((1 - x^2) P_n'(x)^2), roots mirrored."""
    pairs = []
    for i in range((n + 1) // 2):
        x, dx = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        while True:  # the last pass evaluates P at the converged x
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = n * (p_prev - x * p)  # (1 - x^2) P_n'(x)
            if abs(dx) <= 1e-15:
                break
            x -= (dx := p * (1.0 - x * x) / slope)
        pairs.append((x, 2.0 * (1.0 - x * x) / slope**2))
    return tuple((-x, w) for x, w in pairs) + tuple(pairs[: n // 2][::-1])


def _converge(
    estimate: Callable[[int], tuple[float, ...]],
    tol: Tolerance,
    what: tuple[str, ...] | Callable[[], tuple[str, ...]],
) -> tuple[float, ...]:
    """Run ``estimate(n)`` over ``_NODE_COUNTS``; it returns one estimate per
    quantity, all from the same order-``n`` nodes.  Each quantity keeps the
    first estimate that agrees with its predecessor to ``tol``, the value a
    run on that quantity alone would return, and the loop ends once every
    quantity has one.  ``what[i]`` names quantity ``i``'s integrand and
    domain in the ``ConvergenceError``, which names each one left over;
    ``what`` may also be a zero-argument callable returning those names,
    called only when the error is raised."""
    totals = estimate(_NODE_COUNTS[0])
    done: list[float | None] = [None] * len(totals)
    for n in _NODE_COUNTS[1:]:
        previous, totals = totals, estimate(n)
        residuals = tuple(abs(total - last) for total, last in zip(totals, previous))
        for i, (total, residual) in enumerate(zip(totals, residuals)):
            if done[i] is None and residual <= tol.bound(total):
                done[i] = total
        if None not in done:
            return tuple(done)
    names = what() if callable(what) else what
    raise ConvergenceError("; ".join(
        f"{name} did not converge in {len(_NODE_COUNTS)} orders "
        f"(up to {_NODE_COUNTS[-1]} nodes): residual {residual:.3g}"
        for name, value, residual in zip(names, done, residuals) if value is None
    ))


@lru_cache(maxsize=len(_NODE_COUNTS))
def _graded_rule(n: int) -> tuple[tuple[float, float], ...]:
    """(s(t), w s'(t)) over the lower half of the order-``n`` nodes t on
    [0, 1], for s(t) = t^4 (35 - 84 t + 70 t^2 - 20 t^3).  s(1 - t) = 1 - s(t)
    and the nodes are symmetric, so each pair serves both ends."""
    lower = ((0.5 * (x + 1.0), w) for x, w in _leggauss(n)[: n // 2])
    return tuple(
        (t**4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t**3),
         w * 70.0 * (t * (1.0 - t)) ** 3)
        for t, w in lower
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Integral of ``f`` over [a, b] by the graded Gauss-Legendre rule, its
    order raised until two estimates agree to ``tol``.

    s'(t) = 140 t^3 (1 - t)^3 vanishes to third order at both ends, so
    integrable log singularities at ``a`` or ``b`` need no special handling.
    The outermost nodes lie about 1e-17 (b - a) from an end, and at 192 and
    256 nodes they can round onto an end that is not 0; such a node is
    skipped, so ``f`` is never evaluated at ``a`` or ``b``.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol)
    width = b - a

    def estimate(n: int) -> tuple[float]:
        points = ((x, w) for s, w in _graded_rule(n)
                  for x in (a + width * s, b - width * s))
        return (width * sum(w * f(x) for x, w in points if a < x < b),)

    return _converge(estimate, tol, (f"integral of {_name(f)} on [{a}, {b}]",))[0]


def _fixed_rule(f: Callable[[float], float], b: float) -> float:
    """Fixed-rule estimate of Integral_0^b f; no error control.

    Only for integrands analytic on a neighbourhood of [0, b], where the
    error of the rule is pinned by the tests rather than estimated.
    """
    h = 0.5 * b
    return h * sum(w * f(h + h * x) for x, w in _leggauss(_FIXED_NODES))


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
        if math.isnan(theta):
            raise DomainError("theta is not a number (nan)")
        raise DomainError(f"theta={theta} outside [0, pi/2]")
    if theta == 0.0:
        return 0.0
    return theta * (1.0 - math.log(2.0 * theta)) - _fixed_rule(_log_sinc, theta)
