"""``turnover area p q r``: the geometry class, and the area if hyperbolic."""

from .. import trig
from . import _fmt, _signature


def run(args):
    sig = _signature(args)
    kind = trig.classify(sig)
    payload = {"signature": list(sig.orders), "class": kind.value}
    if kind is trig.GeometryClass.HYPERBOLIC:
        payload["area"] = trig.turnover_area(sig)
        text = [f"{kind.value}, area = {_fmt(payload['area'])}"]
    else:
        text = [kind.value]
    return payload, text
