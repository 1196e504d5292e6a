"""Hyperbolic turnover computations.

Library layout:

* ``numerics``  -- tolerances, bracketing root finder, H*, the one
                   Gauss-Legendre quadrature path (pure-Python nodes,
                   order-raising loop, fixed rule), the Lobachevsky integral.
* ``trig``      -- turnover signatures, classification, areas, triangle
                   solving, the quadrilateral and hexagon laws.
* ``collars``   -- elliptic-axis distance bounds, the disk-radius cap, the
                   turnover subgroup table, boundary order filters.
* ``simplices`` -- regular truncated 3-simplices, the density rho3, and
                   return-path length bounds.
* ``rooms``     -- floor/ceiling/room integrals, the isoperimetric check,
                   the cusp prism bound; the only module that imports numpy.
* ``engine``    -- budgets, candidate enumeration, case scans, refinements,
                   volume exclusions, the orbifold registry.
* ``cli``       -- the ``turnover`` command.
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InequalityViolation,
    TurnoverError,
)
from .numerics import Bracket, Tolerance, find_root, integrate, lobachevsky
from .trig import (
    GeometryClass,
    TriangleGeometry,
    TurnoverSignature,
    classify,
    hexagon_side,
    lambert_leg_bound,
    triangle_geometry,
    turnover_area,
)

__all__ = [
    "TurnoverError",
    "DomainError",
    "BracketError",
    "ConvergenceError",
    "InequalityViolation",
    "Tolerance",
    "Bracket",
    "find_root",
    "integrate",
    "lobachevsky",
    "TurnoverSignature",
    "GeometryClass",
    "TriangleGeometry",
    "classify",
    "turnover_area",
    "triangle_geometry",
    "lambert_leg_bound",
    "hexagon_side",
]
