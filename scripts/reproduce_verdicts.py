#!/usr/bin/env python3
"""Reproduce the headline classification verdicts in one run.

Walks the full exclusion pipeline for the immersed (2,4,5) turnover (both
extension indices), the conjectural (2,4,6) case, the prism case (2,4,7),
and the volume-cap verdicts against the registry orbifolds.  Output is a
plain-text report; pass --json for the raw payloads.  Each analysis is
printed by ``turnover analyze`` itself, in the CLI's text format.
"""

import argparse
import json

from turnover.cli import main as turnover_main
from turnover.engine import (
    analyze,
    exclusion_by_volume,
    make_ledger,
    registry,
)
from turnover.trig import TurnoverSignature, turnover_area


def show_analysis(sig, ext):
    turnover_main(["analyze", *map(str, sig.orders), "--ext", str(ext)])


def registry_volume(name):
    return next(entry.volume for entry in registry() if entry.name == name)


def show_volume_verdicts():
    print("== volume-cap verdicts against registry orbifolds")
    checks = [
        ("O9", [(3, 3, 5), (2, 5, 5), (3, 5, 5), (5, 5, 5)]),
        ("O8", [(2, 4, 5), (2, 5, 5), (3, 3, 4), (3, 3, 5), (3, 5, 5)]),
    ]
    for name, candidates in checks:
        volume = registry_volume(name)
        for orders in candidates:
            sig = TurnoverSignature(*orders)
            verdict = exclusion_by_volume(volume, sig, has_embedded_turnovers=False)
            print(f"   {name} (vol {volume:.6f}) vs {sig}"
                  f" (area {turnover_area(sig):.6f}): {verdict.value}")


def show_registry_consistency():
    print("== registry consistency against the volume caps")
    for entry in registry():
        for sig in entry.known_immersed:
            ledger = make_ledger(sig, entry.extension_index)
            cap = (ledger.upper_bound_with_boundary if entry.has_embedded
                   else ledger.upper_bound_no_boundary)
            flag = "ok" if entry.volume < cap else "CONTRADICTION"
            print(f"   {entry.name}: volume {entry.volume:.6f} < cap {cap:.6f}"
                  f" for immersed {sig} [{flag}]")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="dump the raw analysis payloads instead")
    args = parser.parse_args()

    cases = [
        (TurnoverSignature(2, 4, 5), 1),
        (TurnoverSignature(2, 4, 5), 2),
        (TurnoverSignature(2, 4, 6), 2),
        (TurnoverSignature(2, 4, 7), 2),
    ]
    if args.json:
        payload = [analyze(sig, ext).to_dict() for sig, ext in cases]
        print(json.dumps(payload, indent=2))
        return
    for sig, ext in cases:
        show_analysis(sig, ext)
        print()
    show_volume_verdicts()
    print()
    show_registry_consistency()
    # The empty-boundary cap of the ext=2 (2,4,5) ledger is the bound the Q3
    # example sits under.
    ledger = make_ledger(TurnoverSignature(2, 4, 5), 2)
    assert ledger.upper_bound_no_boundary > registry_volume("Q3")


if __name__ == "__main__":
    main()
