"""``turnover orders p q r``: the admissible boundary cone orders."""

from .. import collars
from . import _signature


def run(args):
    sig = _signature(args)
    report = collars.boundary_order_report(sig)
    universe = [row["order"] for row in report]
    refined = [row["order"] for row in report if not row["removed"]]
    payload = {
        "signature": list(sig.orders),
        "universe": universe,
        "refined": refined,
        "report": report,
    }
    text = [f"universe: {universe}", f"refined:  {refined}"]
    for row in report:
        if row["removed"]:
            fired = [m for m, hit in row["delta_exceeds_diameter"].items() if hit]
            text.append(f"removed {row['order']}: collar bound vs vertex orders {fired}")
    return payload, text
