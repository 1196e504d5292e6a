"""Tests for the reproduction script under ``scripts/``, run as a user runs
it: in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import turnover
from turnover.engine import analyze
from turnover.trig import TurnoverSignature

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_verdicts_json_matches_analyze():
    env = dict(os.environ)
    src = str(Path(turnover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_verdicts.py"), "--json"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    cases = [((2, 4, 5), 1), ((2, 4, 5), 2), ((2, 4, 6), 2), ((2, 4, 7), 2)]
    expected = [analyze(TurnoverSignature(*orders), ext).to_dict() for orders, ext in cases]
    assert json.loads(out) == json.loads(json.dumps(expected))
