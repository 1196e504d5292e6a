"""Command line front end.

Each subcommand's handler builds both views of its result: a
JSON-serializable payload and the text lines.  ``--json`` prints the
payload; numeric text output uses 10 significant digits.

Every subcommand takes ``--json``.  Only ``room-check`` iterates to a
tolerance, so only it takes ``--tol`` and ``--seed``; on any other
command either flag is a usage error.

Each run is a fresh process, so a command pays only for what it runs.
``_COMMANDS`` declares every subcommand once (name, help, arguments,
handler), and ``main`` builds the parser of the one subcommand it is given;
help, no command and an unknown command get the full parser.  Each handler
imports the modules it runs, ``trig`` included, and the package
``__init__`` imports nothing.

Exit codes: 0 success, 2 usage or domain error, 3 numeric failure
(non-convergence or a violated theorem-backed inequality).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConvergenceError, DomainError, InequalityViolation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _signature(args):
    from .trig import TurnoverSignature
    return TurnoverSignature(args.p, args.q, args.r)


# --- subcommand payload builders: args -> (payload dict, text lines) ---


def _cmd_area(args):
    from . import trig
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
    from . import trig
    sig = _signature(args)
    kind = trig.classify(sig)
    return {"signature": list(sig.orders), "class": kind.value}, [kind.value]


def _cmd_delta(args):
    from . import collars
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
    from . import collars
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
    from . import collars, trig
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


def _cmd_bounds(args):
    from . import engine
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
    from . import collars, engine
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
    from . import engine
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
    from . import engine, trig
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
    from .simplices import TruncatedSimplexSpec
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
    from . import rooms
    from .numerics import DEFAULT_TOLERANCE, Tolerance
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


def _cmd_registry(args):
    from .registry import registry_json
    payload = {"registry": registry_json()}
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


def _arg(*names, **options):
    """One ``add_argument`` call: its names and its options."""
    return names, options


_JSON = _arg("--json", action="store_true", help="emit one JSON document")
_SIGNATURE = (_arg("p", type=int), _arg("q", type=int), _arg("r", type=int))
_EXT = _arg("--ext", type=int, default=1, choices=(1, 2))

# The subcommands: name -> (help, arguments after --json, handler).
_COMMANDS = {
    "area": ("classification and area", _SIGNATURE, _cmd_area),
    "classify": ("geometry class only", _SIGNATURE, _cmd_classify),
    "delta": ("collar constants c and delta",
              (_arg("n", type=int), _arg("m", type=int)), _cmd_delta),
    "orders": ("admissible boundary cone orders", _SIGNATURE, _cmd_orders),
    "supergroups": ("containing turnover groups, or the full table",
                    (*(_arg(name, type=int, nargs="?") for name in "pqr"),
                     _arg("--table", action="store_true",
                          help="dump the containment table")),
                    _cmd_supergroups),
    "bounds": ("area and volume budgets", (*_SIGNATURE, _EXT), _cmd_bounds),
    "candidates": ("boundary turnover candidates under budget",
                   (*_SIGNATURE, _EXT), _cmd_candidates),
    "analyze": ("full boundary-exclusion pipeline", (*_SIGNATURE, _EXT), _cmd_analyze),
    "census": ("analyze every hyperbolic signature up to a maximum order",
               (_arg("--max-order", type=int, required=True), _EXT), _cmd_census),
    "rho3": ("truncated simplex volume and density",
             (_arg("--theta", type=float), _arg("--edge", type=float)), _cmd_rho3),
    "room-check": ("seeded isoperimetric sweeps",
                   (_arg("--seed", type=int, default=0, help="seed for the random sweep"),
                    _arg("--count", type=int, default=100),
                    _arg("--constant", type=float,
                         help="check a single constant ceiling of this height instead"),
                    _arg("--tol", type=float,
                         help="quadrature and root tolerance, abs and rel")),
                   _cmd_room_check),
    "registry": ("cited orbifold registry", (), _cmd_registry),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``turnover`` parser with every subcommand, or with ``command``
    alone.  The one-subcommand parser still names every subcommand in its
    usage line, so a usage error prints as it does on the full parser."""
    parser = argparse.ArgumentParser(
        prog="turnover",
        description="Turnover trigonometry, collar bounds, and boundary exclusions",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for names, options in (_JSON, *arguments):
                p.add_argument(*names, **options)
            p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Help, no command and an unknown command need the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
