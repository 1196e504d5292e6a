"""Command line front end.

Each subcommand's handler builds both views of its result: a
JSON-serializable payload and the text lines.  ``--json`` prints the
payload; numeric text output uses 10 significant digits.

Every subcommand takes ``--json``.  Only ``room-check`` iterates to a
tolerance, so only it takes ``--tol`` and ``--seed``; on any other
command either flag is a usage error.

Each run is a fresh process, so a command pays only for what it runs.
``_COMMANDS`` declares every subcommand once (name, help, arguments), and
``main`` builds the parser of the one subcommand it is given; help, no
command and an unknown command get the full parser.  Each subcommand's
handler is ``run`` in its own module of ``turnover.commands``, named after
it with ``-`` as ``_``, which ``main`` imports after parsing; building a
parser imports none of them.  Each handler imports the modules it runs,
``trig`` included, and the package ``__init__`` imports nothing.

Exit codes: 0 success, 2 usage or domain error, 3 numeric failure
(non-convergence or a violated theorem-backed inequality).
"""

import argparse
import json
import sys
from importlib import import_module

from .errors import ConvergenceError, DomainError, InequalityViolation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _arg(*names, **options):
    """One ``add_argument`` call: its names and its options."""
    return names, options


_JSON = _arg("--json", action="store_true", help="emit one JSON document")
_SIGNATURE = (_arg("p", type=int), _arg("q", type=int), _arg("r", type=int))
_EXT = _arg("--ext", type=int, default=1, choices=(1, 2))

# The subcommands: name -> (help, arguments after --json).
_COMMANDS = {
    "area": ("classification and area", _SIGNATURE),
    "classify": ("geometry class only", _SIGNATURE),
    "delta": ("collar constants c and delta",
              (_arg("n", type=int), _arg("m", type=int))),
    "orders": ("admissible boundary cone orders", _SIGNATURE),
    "supergroups": ("containing turnover groups, or the full table",
                    (*(_arg(name, type=int, nargs="?") for name in "pqr"),
                     _arg("--table", action="store_true",
                          help="dump the containment table"))),
    "bounds": ("area and volume budgets", (*_SIGNATURE, _EXT)),
    "candidates": ("boundary turnover candidates under budget", (*_SIGNATURE, _EXT)),
    "analyze": ("full boundary-exclusion pipeline", (*_SIGNATURE, _EXT)),
    "census": ("analyze every hyperbolic signature up to a maximum order",
               (_arg("--max-order", type=int, required=True), _EXT)),
    "rho3": ("truncated simplex volume and density",
             (_arg("--theta", type=float), _arg("--edge", type=float))),
    "room-check": ("seeded isoperimetric sweeps",
                   (_arg("--seed", type=int, default=0, help="seed for the random sweep"),
                    _arg("--count", type=int, default=100),
                    _arg("--constant", type=float,
                         help="check a single constant ceiling of this height instead"),
                    _arg("--tol", type=float,
                         help="quadrature and root tolerance, abs and rel"))),
    "registry": ("cited orbifold registry", ()),
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
    for name, (help_text, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for names, options in (_JSON, *arguments):
                p.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Help, no command and an unknown command need the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    command = import_module(f".commands.{args.command.replace('-', '_')}", __package__)
    try:
        payload, text = command.run(args)
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
