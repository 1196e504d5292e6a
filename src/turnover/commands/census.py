"""``turnover census --max-order N [--ext]``: ``analyze`` on every
hyperbolic signature with orders up to N, one row each."""

from .. import engine, trig
from ..errors import DomainError


def run(args):
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
