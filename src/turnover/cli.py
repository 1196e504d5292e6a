"""Command line front end.

Every subcommand builds a JSON-serializable payload first and renders the
text view from it, so the two output modes always agree; ``--json`` prints
the payload itself.  Numeric text output uses 10 significant digits.

Every subcommand takes ``--json``.  Only ``room-check`` iterates to a
tolerance, so only it takes ``--tol`` (else ``TURNOVER_TOL``) and
``--seed``; on any other command either flag is a usage error.

Exit codes: 0 success, 2 usage or domain error, 3 numeric failure
(non-convergence or a violated theorem-backed inequality).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import collars, engine, trig
from .errors import ConvergenceError, DomainError, InequalityViolation
from .numerics import DEFAULT_TOLERANCE, Tolerance
from .simplices import TruncatedSimplexSpec
from .trig import TurnoverSignature

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _signature(args) -> TurnoverSignature:
    return TurnoverSignature(args.p, args.q, args.r)


# --- subcommand payload builders: args -> (payload dict, text lines) ---


def _cmd_area(args):
    sig = _signature(args)
    kind = trig.classify(sig)
    payload = {"signature": list(sig.orders), "class": kind.value}
    if kind is trig.GeometryClass.HYPERBOLIC:
        payload["area"] = trig.turnover_area(sig)
        text = [f"{kind.value}, area = {_fmt(payload['area'])}"]
    else:
        text = [kind.value]
    return payload, text


def _cmd_classify(args):
    sig = _signature(args)
    kind = trig.classify(sig)
    return {"signature": list(sig.orders), "class": kind.value}, [kind.value]


def _cmd_delta(args):
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


def _cmd_orders(args):
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


def _cmd_supergroups(args):
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
    sig = TurnoverSignature(*orders)
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


def _cmd_bounds(args):
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


def _cmd_candidates(args):
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


def _cmd_analyze(args):
    report = engine.analyze(_signature(args), args.ext)
    payload = report.to_dict()
    text = [
        f"signature {report.ledger.sig}, extension index {report.ledger.extension_index}",
        f"volume bound (boundary nonempty) = {_fmt(report.ledger.upper_bound_with_boundary)}",
        f"admissible boundary orders: {list(report.admissible_orders)}",
        "candidates: "
        + (", ".join(str(s) for s, _ in report.candidates) or "none"),
    ]
    for record in report.cases:
        case = record.case
        text.append(
            f"  {case.boundary_sig} k={case.k} closed={'yes' if case.closed else 'no'}"
            f" theta={_fmt(case.theta)} bound={_fmt(record.lower_bound)}"
            f" -> {record.verdict.value}"
        )
    for record in report.refinements:
        text.append(
            f"  refinement {record.input.label or record.input.kind}"
            f" on {record.input.boundary} k={record.input.k}"
            f" bound={_fmt(record.lower_bound)} -> {record.verdict.value}"
        )
    text.append(f"conclusion: {report.conclusion.value}")
    return payload, text


def _cmd_census(args):
    if args.max_order < 2:
        raise DomainError(f"max order must be >= 2, got {args.max_order}")
    rows = []
    for sig in trig.hyperbolic_signatures(range(2, args.max_order + 1)):
        report = engine.analyze(sig, args.ext)
        excluded = sum(rec.verdict is engine.Verdict.EXCLUDED for rec in report.cases)
        rows.append({
            "sig": list(sig.orders),
            "ext": args.ext,
            "conclusion": report.conclusion.value,
            "excluded": excluded,
            "survives": len(report.cases) - excluded,
        })
    payload = {"max_order": args.max_order, "ext": args.ext, "rows": rows}
    text = [
        f"({','.join(map(str, row['sig']))}) ext {row['ext']} {row['conclusion']}"
        f"  excluded {row['excluded']} survives {row['survives']}"
        for row in rows
    ] or ["none"]
    return payload, text


def _cmd_rho3(args):
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


def _cmd_room_check(args):
    from . import rooms  # imported here: rooms loads numpy, which no other command needs
    if args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    tol, env_tol = args.tol, os.environ.get("TURNOVER_TOL")
    if tol is None and env_tol:
        try:
            tol = float(env_tol)
        except ValueError:
            raise DomainError(f"TURNOVER_TOL must be a number, got {env_tol!r}") from None
    tol = DEFAULT_TOLERANCE if tol is None else Tolerance(abs_tol=tol, rel_tol=tol)
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


def _cmd_registry(args):
    payload = {"registry": engine.registry_json()}
    text = []
    for row in payload["registry"]:
        immersed = ", ".join(
            "(" + ",".join(map(str, s)) + ")" for s in row["known_immersed"]
        )
        text.append(
            f"{row['name']:<11} {row['kind']:<11} volume {_fmt(row['volume'])}"
            f"  immersed: {immersed or '-'}"
        )
    return payload, text


# --- wiring -------------------------------------------------------------------


def _add_signature_args(parser, optional=False):
    kwargs = {"type": int}
    if optional:
        kwargs["nargs"] = "?"
        kwargs["default"] = None
    parser.add_argument("p", **kwargs)
    parser.add_argument("q", **kwargs)
    parser.add_argument("r", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")

    parser = argparse.ArgumentParser(
        prog="turnover",
        description="Turnover trigonometry, collar bounds, and boundary exclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("area", parents=[common], help="classification and area")
    _add_signature_args(p)
    p.set_defaults(handler=_cmd_area)

    p = sub.add_parser("classify", parents=[common], help="geometry class only")
    _add_signature_args(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("delta", parents=[common], help="collar constants c and delta")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_delta)

    p = sub.add_parser("orders", parents=[common],
                       help="admissible boundary cone orders")
    _add_signature_args(p)
    p.set_defaults(handler=_cmd_orders)

    p = sub.add_parser("supergroups", parents=[common],
                       help="containing turnover groups, or the full table")
    _add_signature_args(p, optional=True)
    p.add_argument("--table", action="store_true", help="dump the containment table")
    p.set_defaults(handler=_cmd_supergroups)

    p = sub.add_parser("bounds", parents=[common], help="area and volume budgets")
    _add_signature_args(p)
    p.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("candidates", parents=[common],
                       help="boundary turnover candidates under budget")
    _add_signature_args(p)
    p.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_candidates)

    p = sub.add_parser("analyze", parents=[common],
                       help="full boundary-exclusion pipeline")
    _add_signature_args(p)
    p.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("census", parents=[common],
                       help="analyze every hyperbolic signature up to a maximum order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--ext", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("rho3", parents=[common],
                       help="truncated simplex volume and density")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--edge", type=float, default=None)
    p.set_defaults(handler=_cmd_rho3)

    p = sub.add_parser("room-check", parents=[common],
                       help="seeded isoperimetric sweeps")
    p.add_argument("--seed", type=int, default=0, help="seed for the random sweep")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--constant", type=float, default=None,
                   help="check a single constant ceiling of this height instead")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature and root tolerance, abs and rel (else TURNOVER_TOL)")
    p.set_defaults(handler=_cmd_room_check)

    p = sub.add_parser("registry", parents=[common], help="cited orbifold registry")
    p.set_defaults(handler=_cmd_registry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        payload, text = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, InequalityViolation) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
