"""``turnover supergroups [p q r] [--table]``: the containing turnover
groups of one signature, or the whole containment table."""

from .. import collars, trig
from ..errors import DomainError


def run(args):
    orders = (args.p, args.q, args.r)
    if args.table:
        if orders != (None, None, None):
            raise DomainError("give either p q r or --table, not both")
        payload = {"table": collars.supergroup_table_json()}
        text = [
            f"{row['super']} >= {row['sub']}  index {row['index']}"
            f"  normal {'yes' if row['normal'] else 'no'}"
            for row in payload["table"]
        ]
        return payload, text
    if None in orders:
        raise DomainError("supergroups needs p q r, or --table")
    sig = trig.TurnoverSignature(*orders)
    rows = collars.supergroups(sig)
    payload = {
        "signature": list(sig.orders),
        "supergroups": [
            {"super": list(sup.orders), "index": index, "normal": normal}
            for sup, index, normal in rows
        ],
    }
    if rows:
        text = [
            f"{sup} index {index} normal {'yes' if normal else 'no'}"
            for sup, index, normal in rows
        ]
    else:
        text = ["maximal (no containing turnover group)"]
    return payload, text
