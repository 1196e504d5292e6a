"""``turnover delta n m``: the collar constants c and delta of an axis pair."""

from .. import collars
from . import _fmt


def run(args):
    pair = collars.EllipticPair(args.n, args.m)
    payload = {
        "n": pair.n,
        "m": pair.m,
        "c": collars.c_bound(pair),
        "delta": collars.delta(pair),
    }
    text = [
        f"c({pair.n},{pair.m}) = {_fmt(payload['c'])}",
        f"delta({pair.n},{pair.m}) = {_fmt(payload['delta'])}",
    ]
    return payload, text
