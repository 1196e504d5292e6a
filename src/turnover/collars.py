"""Elliptic-axis collar bounds, the injectivity-radius cap, and the
turnover subgroup containment table.

Two discrete elliptic isometries of orders n and m whose axes neither meet
nor coincide must keep their axes at distance at least

    delta(n, m) = asinh( c(n, m) / (sin(pi/n) sin(pi/m)) ),

where c(n, m) is a six-case piecewise constant.  For n = m >= 7 it equals
delta_nn(n) = 2 acosh(1/(2 sin(pi/n))), since 2 cos(2 pi/n) - 1 =
1 - 4 sin^2(pi/n), so it is strictly increasing in n, while the largest
disk embedded in any hyperbolic turnover has radius below
r_max = ln((2 + sqrt 7)/sqrt 3); comparing the two shows an oblique axis
of order n >= 7 can only occur for n <= 9.

Order sets are ascending tuples of ints, read off the one filter pass
``boundary_order_report``.

The containment table lists every turnover group that properly contains
another turnover group (fourteen pattern rows, up to two integer
parameters).  It is stored as data so it can be audited row by row, and the
index-equals-area-ratio identity doubles as a transcription self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, permutations, takewhile

from .errors import DomainError
from .trig import (
    MAX_CONE_ORDER,
    TurnoverSignature,
    require_hyperbolic,
    triangle_geometry,
)

__all__ = [
    "EllipticPair",
    "c_bound",
    "delta",
    "delta_nn",
    "max_injectivity_radius",
    "oblique_order_admissible",
    "SupergroupEntry",
    "supergroup_table",
    "supergroup_table_json",
    "supergroups",
    "cone_order_universe",
    "refined_boundary_orders",
    "boundary_order_report",
]


@dataclass(frozen=True)
class EllipticPair:
    """Unordered pair of elliptic orders, normalized so n >= max(3, m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        for v in (self.n, self.m):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError(f"elliptic order {v!r} is not an integer")
        n, m = max(self.n, self.m), min(self.n, self.m)
        if m < 2:
            raise DomainError(f"elliptic order {m} < 2")
        if n < max(3, m):
            raise DomainError(f"pair ({n},{m}) needs n >= max(3, m)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def c_bound(pair: EllipticPair) -> float:
    """The six-case constant c(n, m) feeding the axial distance bound."""
    n, m = pair.n, pair.m
    if n >= 7:
        return math.sqrt(2.0 * math.cos(2.0 * math.pi / n) - 1.0) / 2.0
    if n == 6 and m >= 3:
        return math.cos(math.pi / m) / 2.0
    if n == 6 and m == 2:
        return 1.0 / math.sqrt(8.0)
    if n == 5:
        return math.sqrt((math.sqrt(5.0) - 1.0) / 16.0)
    if n == 4:
        return math.sqrt((math.sqrt(3.0) - 1.0) / 8.0)
    if n == 3:
        return math.sqrt((math.sqrt(5.0) - 2.0) / 8.0)
    raise DomainError(f"no branch for pair ({n},{m})")  # unreachable


def delta(pair: EllipticPair) -> float:
    """Minimum axial distance between non-intersecting order-n/m elliptic axes."""
    arg = c_bound(pair) / (math.sin(math.pi / pair.n) * math.sin(math.pi / pair.m))
    return math.asinh(arg)


def delta_nn(n: int) -> float:
    """Equal-order bound delta(n, n) = 2 acosh(1/(2 sin(pi/n))), increasing; n >= 7."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 7:
        raise DomainError(f"delta_nn needs an integer n >= 7, got {n!r}")
    return delta(EllipticPair(n, n))


def max_injectivity_radius() -> float:
    """Radius cap ln((2 + sqrt 7)/sqrt 3) for a disk embedded in any turnover."""
    return math.log((2.0 + math.sqrt(7.0)) / math.sqrt(3.0))


def oblique_order_admissible(n: int) -> bool:
    """Can an order-n (n >= 7) axis meet the turnover plane obliquely?

    Requires an embedded tube of radius delta_nn(n)/2 around the axis,
    which must fit inside a disk of radius below ``max_injectivity_radius``;
    true only for n <= 9.
    """
    return delta_nn(n) / 2.0 < max_injectivity_radius()


# --- turnover subgroup containment table -----------------------------------
#
# Pattern terms are (multiplier, symbol) with symbol in {None, "s", "t"}:
# (3, None) is the literal order 3, (2, "t") means 2t.  Each row states
# super >= sub with the given index; "normal" flags normal inclusions.

_T = (1, "t")
_2T = (2, "t")
_3T = (3, "t")
_4T = (4, "t")
_S = (1, "s")


def _const(k: int) -> tuple[int, None]:
    return (k, None)


_TABLE_ROWS: tuple[tuple[tuple, tuple, int, bool], ...] = (
    ((_const(3), _const(3), _T), (_T, _T, _T), 3, True),
    ((_const(2), _const(3), _2T), (_T, _T, _T), 6, True),
    ((_const(2), _S, _2T), (_S, _S, _T), 2, True),
    ((_const(2), _const(3), _const(7)), (_const(7), _const(7), _const(7)), 24, False),
    ((_const(2), _const(3), _const(7)), (_const(2), _const(7), _const(7)), 9, False),
    ((_const(2), _const(3), _const(7)), (_const(3), _const(3), _const(7)), 8, False),
    ((_const(2), _const(3), _const(8)), (_const(4), _const(8), _const(8)), 12, False),
    ((_const(2), _const(3), _const(8)), (_const(3), _const(8), _const(8)), 10, False),
    ((_const(2), _const(3), _const(9)), (_const(9), _const(9), _const(9)), 12, False),
    ((_const(2), _const(4), _const(5)), (_const(4), _const(4), _const(5)), 6, False),
    ((_const(2), _const(3), _4T), (_T, _4T, _4T), 6, False),
    ((_const(2), _const(4), _2T), (_T, _2T, _2T), 4, False),
    ((_const(2), _const(3), _3T), (_const(3), _T, _3T), 4, False),
    ((_const(2), _const(3), _2T), (_const(2), _T, _2T), 3, False),
)


def _term_str(term: tuple[int, str | None]) -> str:
    mult, sym = term
    if sym is None:
        return str(mult)
    return sym if mult == 1 else f"{mult}{sym}"


def _pattern_str(pattern: tuple) -> str:
    return "(" + ",".join(_term_str(t) for t in pattern) + ")"


@dataclass(frozen=True)
class SupergroupEntry:
    """One containment row: ``super`` contains ``sub`` with the given index."""

    super_pattern: tuple
    sub_pattern: tuple
    index: int
    normal: bool

    @property
    def super_str(self) -> str:
        return _pattern_str(self.super_pattern)

    @property
    def sub_str(self) -> str:
        return _pattern_str(self.sub_pattern)


_TABLE = tuple(SupergroupEntry(*row) for row in _TABLE_ROWS)


def supergroup_table() -> tuple[SupergroupEntry, ...]:
    return _TABLE


def supergroup_table_json() -> list[dict]:
    """The table as plain JSON rows for documentation tooling."""
    return [
        {
            "super": entry.super_str,
            "sub": entry.sub_str,
            "index": entry.index,
            "normal": entry.normal,
        }
        for entry in supergroup_table()
    ]


def _match_sub(pattern: tuple, perms: set[tuple[int, ...]]) -> set[tuple]:
    """All parameter assignments making ``pattern`` one of ``perms``, the
    distinct permutations of a signature's orders.  Each parameter is >= 2,
    so every instantiated order is too."""
    solutions: set[tuple] = set()
    for perm in perms:
        env: dict[str, int] = {}
        ok = True
        for (mult, sym), value in zip(pattern, perm):
            if sym is None:
                if value != mult:
                    ok = False
                    break
            else:
                if value % mult != 0:
                    ok = False
                    break
                v = value // mult
                if v < 2 or env.setdefault(sym, v) != v:
                    ok = False
                    break
        if ok:
            solutions.add(tuple(sorted(env.items())))
    return solutions


def _instantiate(pattern: tuple, env: dict[str, int]) -> tuple[int, ...]:
    return tuple(mult * (env[sym] if sym else 1) for mult, sym in pattern)


def supergroups(
    sig: TurnoverSignature,
) -> list[tuple[TurnoverSignature, int, bool]]:
    """Every turnover group properly containing ``sig``, per the table.

    Returns (supergroup signature, index, normal) triples; an empty list
    means ``sig`` is maximal.  Every row keeps chi(sub) = index chi(super),
    so a supergroup of a hyperbolic ``sig`` is hyperbolic; an instantiated
    order above ``MAX_CONE_ORDER`` drops the row.
    """
    require_hyperbolic(sig)
    perms = set(permutations(sig.orders))
    found: set[tuple[TurnoverSignature, int, bool]] = set()
    for entry in _TABLE:
        for items in _match_sub(entry.sub_pattern, perms):
            values = _instantiate(entry.super_pattern, dict(items))
            try:
                sup = TurnoverSignature(*values)
            except DomainError:
                continue
            found.add((sup, entry.index, entry.normal))
    return sorted(found, key=lambda item: (item[1], item[0].orders))


# {2, ..., 9}: no oblique-axis bound below 7, and delta_nn increases from 7.
_BASE_ORDERS = tuple(range(2, 7)) + tuple(takewhile(oblique_order_admissible, count(7)))


def cone_order_universe(sig: TurnoverSignature) -> tuple[int, ...]:
    """All orders {2,...,9} plus {p,q,r,2p,2q,2r} that can appear on the
    boundary of the core containing an immersed (p,q,r) turnover, ascending."""
    require_hyperbolic(sig)
    return tuple(sorted({*_BASE_ORDERS, *sig.orders, *(2 * n for n in sig.orders)}))


def boundary_order_report(sig: TurnoverSignature) -> list[dict]:
    """One row per order of ``cone_order_universe``, ascending, saying which
    boundary-order filter fired; ``refined_boundary_orders`` keeps the rows
    not ``removed``.

    An order n >= 6 is removed when (a) the collar bound delta(n, m) for
    some vertex order m of ``sig`` exceeds the triangle diameter, so an
    order-n axis crossing the turnover plane would violate discreteness,
    and (b) n is not a cone order of ``sig`` itself or of any containing
    turnover group from the table (those orders arise from perpendicular
    axes and are immune to the distance argument).  Removal requires both
    filters to agree.  A kept doubled order above ``MAX_CONE_ORDER`` is a
    DomainError, since no boundary signature can carry it.
    """
    geo = triangle_geometry(sig)
    protected = set(sig.orders)
    for sup, _, _ in supergroups(sig):
        protected.update(sup.orders)
    vertex_orders = sorted(set(sig.orders))
    rows = []
    for n in cone_order_universe(sig):
        # The distance filter only ever applies to orders >= 6.
        exceeds = (
            {m: delta(EllipticPair(n, m)) > geo.diameter for m in vertex_orders}
            if n >= 6
            else {}
        )
        removed = n not in protected and any(exceeds.values())
        if n > MAX_CONE_ORDER and not removed:
            raise DomainError(
                f"signature {sig} keeps the doubled boundary order {n},"
                f" which exceeds the cone order cap {MAX_CONE_ORDER}"
            )
        rows.append(
            {
                "order": n,
                "vertex_order": n in sig.orders,
                "table_protected": n in protected,
                "delta_exceeds_diameter": exceeds,
                "removed": removed,
            }
        )
    return rows


def refined_boundary_orders(sig: TurnoverSignature) -> tuple[int, ...]:
    """The ascending cone orders that survive both boundary-order filters:
    the rows of ``boundary_order_report`` not removed."""
    return tuple(row["order"] for row in boundary_order_report(sig) if not row["removed"])
