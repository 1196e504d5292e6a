"""Tests for the reproduction script under ``scripts/``, run as a user runs
it: in a fresh interpreter."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import turnover
from turnover.engine import analyze, registry
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


def test_reproduce_verdicts_text_confirms_registry_caps():
    env = dict(os.environ)
    src = str(Path(turnover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_verdicts.py")],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert "CONTRADICTION" not in out
    ok_lines = [line.strip() for line in out.splitlines() if line.endswith("[ok]")]
    expected = [(entry.name, immersed) for entry in registry()
                for immersed in entry.known_immersed]
    assert len(ok_lines) == len(expected)
    for (name, immersed), line in zip(expected, ok_lines):
        assert line.startswith(f"{name}: ") and f"for immersed {immersed} [ok]" in line


def test_reproduce_verdicts_exits_1_on_a_contradiction(monkeypatch, capsys):
    """An entry above its cap is flagged and fails the run."""
    patched = tuple(
        entry._replace(volume=100.0) if entry.name == "O8" else entry
        for entry in registry()
    )
    monkeypatch.setattr("turnover.registry._REGISTRY", patched)
    monkeypatch.setattr(sys, "argv", ["reproduce_verdicts.py"])
    script = runpy.run_path(str(ROOT / "scripts" / "reproduce_verdicts.py"))
    assert script["main"]() == 1
    assert "[CONTRADICTION]" in capsys.readouterr().out
