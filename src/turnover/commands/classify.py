"""``turnover classify p q r``: the geometry class only."""

from .. import trig
from . import _signature


def run(args):
    sig = _signature(args)
    kind = trig.classify(sig)
    return {"signature": list(sig.orders), "class": kind.value}, [kind.value]
