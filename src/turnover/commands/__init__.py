"""The ``turnover`` subcommands, one module each.

``turnover.cli`` parses a command line and then imports the one module of
its subcommand, named after it with ``-`` as ``_`` (``room-check`` runs
``room_check``), so a cold command compiles only its own handler.  Each
module's ``run(args)`` returns both views of the result: a
JSON-serializable payload and the text lines.  Each imports the modules it
runs, and this package imports none, ``trig`` included.

No command module imports ``turnover.cli``: under ``python -m turnover.cli``
the parser runs as ``__main__``, and that import would compile it again.
"""


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _signature(args):
    from ..trig import TurnoverSignature
    return TurnoverSignature(args.p, args.q, args.r)
