"""Hyperbolic turnover computations.

The package has no top-level API: import each name from the module that
defines it, e.g. ``from turnover.engine import analyze``.

Library layout:

* ``errors``    -- the exception types and the one real-domain check.
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
