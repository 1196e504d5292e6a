"""``turnover bounds p q r [--ext]``: the area and volume budgets."""

from .. import engine
from . import _fmt, _signature


def run(args):
    ledger = engine.make_ledger(_signature(args), args.ext)
    payload = {
        "signature": list(ledger.sig.orders),
        "extension_index": ledger.extension_index,
        "area": ledger.area,
        "budget": ledger.two_sided_budget,
        "with_boundary": ledger.upper_bound_with_boundary,
        "no_boundary": ledger.upper_bound_no_boundary,
        "max_pieces": ledger.max_boundary_pieces,
    }
    text = [
        f"area = {_fmt(ledger.area)}",
        f"two-sided boundary budget = {_fmt(ledger.two_sided_budget)}",
        f"volume bound (boundary nonempty) = {_fmt(ledger.upper_bound_with_boundary)}",
        f"volume bound (boundary empty) = {_fmt(ledger.upper_bound_no_boundary)}",
        f"max boundary pieces = {ledger.max_boundary_pieces}",
    ]
    return payload, text
