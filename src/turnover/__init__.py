"""Hyperbolic turnover computations.

The package has no top-level API: import each name from the module that
defines it, e.g. ``from turnover.engine import analyze``.

Library layout:

* ``errors``    -- the exception types, the one real-domain check, and the
                   mixin that keeps a checked record's checks on ``_replace``.
* ``numerics``  -- tolerances, bracketing root finder, H*, the one
                   Gauss-Legendre quadrature path (pure-Python nodes,
                   order-raising loop, fixed rule), the Lobachevsky integral
                   as a zeta(2k) series.
* ``trig``      -- turnover signatures, classification, areas, triangle
                   solving, the quadrilateral and hexagon laws.
* ``collars``   -- elliptic-axis distance bounds, the disk-radius cap, the
                   turnover subgroup table, boundary order filters.
* ``simplices`` -- regular truncated 3-simplices, the density rho3, and
                   return-path length bounds.
* ``rooms``     -- floor/ceiling/room integrals, the isoperimetric check,
                   the cusp prism bound; the only module that imports numpy.
* ``engine``    -- budgets, candidate enumeration, case scans, refinements,
                   volume exclusions; re-exports the registry lazily.
* ``registry``  -- the cited-orbifold registry; imports only ``trig``.
* ``cli``       -- the ``turnover`` command, built from one table of
                   subcommands; it imports only the one command it runs.
* ``commands``  -- one module per subcommand, each a ``run(args)`` that
                   returns the JSON payload and the text lines.
"""
