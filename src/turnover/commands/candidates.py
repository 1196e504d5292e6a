"""``turnover candidates p q r [--ext]``: the boundary turnovers under budget."""

from .. import collars, engine
from . import _fmt, _signature


def run(args):
    sig = _signature(args)
    ledger = engine.make_ledger(sig, args.ext)
    orders = collars.refined_boundary_orders(sig)
    rows = engine.boundary_candidates(ledger, orders)
    payload = {
        "signature": list(sig.orders),
        "extension_index": args.ext,
        "orders": list(orders),
        "candidates": [{"sig": list(s.orders), "area": area} for s, area in rows],
    }
    text = [f"{s} area {_fmt(area)}" for s, area in rows] or ["none"]
    return payload, text
