"""``turnover analyze p q r [--ext]``: the full boundary-exclusion pipeline."""

from .. import engine
from . import _fmt, _signature


def run(args):
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
