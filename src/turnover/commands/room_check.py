"""``turnover room-check``: seeded isoperimetric sweeps, or one constant ceiling."""

from .. import rooms
from ..errors import DomainError
from ..numerics import DEFAULT_TOLERANCE, Tolerance
from . import _fmt


def run(args):
    if args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    tol = DEFAULT_TOLERANCE if args.tol is None else Tolerance(args.tol, args.tol)
    if args.constant is not None:
        floor = rooms.PolarDisk(1.0)
        ceiling = rooms.CeilingFunction.constant(args.constant)
        specs = [rooms.isoperimetric_check(floor, ceiling, tol)]
    else:
        specs = rooms.isoperimetric_sweep(args.seed, args.count, tol)
    records = [spec.to_record() for spec in specs]
    worst = min(record["margin"] for record in records)
    payload = {"count": len(records), "violations": 0, "worst_margin": worst,
               "records": records}
    text = [
        f"violations: 0 out of {len(records)}",
        f"worst margin Area(C) - Area(S) = {_fmt(worst)}",
    ]
    return payload, text
