#!/usr/bin/env python3
"""Write the golden outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Run once, on the commit that defines the baseline; later commits are
checked against these files, never re-recorded by a performance change.
``golden/census.json`` holds, per (signature, ext) of the census, the
conclusion and the counts of Excluded and Survives cases;
``golden/cli.json`` holds the ``--json`` payload of every benchmarked
CLI command.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

from run import (
    CLI_COMMANDS,
    EXPECTED_NO_EMBEDDED,
    GOLDEN,
    MAX_ORDER,
    ROOT,
    SRC,
    census_items,
    child_env,
)


def census_rows() -> list[dict]:
    sys.path.insert(0, str(SRC))
    from turnover import engine
    from turnover.trig import TurnoverSignature

    rows = []
    for p, q, r, ext in census_items():
        report = engine.analyze(TurnoverSignature(p, q, r), ext)
        verdicts = Counter(record.verdict.value for record in report.cases)
        rows.append({
            "sig": [p, q, r],
            "ext": ext,
            "conclusion": report.conclusion.value,
            "excluded": verdicts["Excluded"],
            "survives": verdicts["Survives"],
        })
    concluded = {
        (*row["sig"], row["ext"]) for row in rows
        if row["conclusion"] == "NoEmbeddedTurnovers"
    }
    if concluded != EXPECTED_NO_EMBEDDED:
        raise SystemExit(f"unexpected NoEmbeddedTurnovers rows: {sorted(concluded)}")
    return rows


def cli_rows() -> list[dict]:
    rows = []
    for argv in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "turnover.cli", *argv, "--json"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )
        rows.append({"argv": list(argv), "payload": json.loads(proc.stdout)})
    return rows


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    census = {"max_order": MAX_ORDER, "rows": census_rows()}
    (GOLDEN / "census.json").write_text(json.dumps(census, indent=1) + "\n")
    cli = {"commands": cli_rows()}
    (GOLDEN / "cli.json").write_text(json.dumps(cli, indent=1) + "\n")


if __name__ == "__main__":
    main()
