"""``turnover rho3 --theta T | --edge L``: a truncated simplex's volume and density."""

from ..errors import DomainError
from ..simplices import TruncatedSimplexSpec
from . import _fmt


def run(args):
    if (args.theta is None) == (args.edge is None):
        raise DomainError("give exactly one of --theta or --edge")
    if args.theta is not None:
        spec = TruncatedSimplexSpec.from_angle(args.theta)
    else:
        spec = TruncatedSimplexSpec.from_edge(args.edge)
    payload = {
        "theta": spec.theta,
        "edge_length": spec.edge_length,
        "volume": spec.volume,
        "rho3": spec.rho3,
    }
    text = [
        f"theta = {_fmt(spec.theta)}",
        f"edge length = {_fmt(spec.edge_length)}",
        f"volume = {_fmt(spec.volume)}",
        f"rho3 = {_fmt(spec.rho3)}",
    ]
    return payload, text
