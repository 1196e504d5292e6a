"""Tests for the command line front end: payloads, text/JSON agreement,
and exit codes (0 success, 2 usage/domain, 3 numeric failure)."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turnover
from turnover import cli
from turnover.cli import build_parser, main

# room-check --seed 1 --count 2 worst_margin (quadratures and nice_height) at
# the default tolerance and at --tol 1e-3.
WORST_MARGIN_SEED1_DEFAULT = 1.2463756125499952
WORST_MARGIN_SEED1_LOOSE = 1.2463759451431518
ROOM_CHECK = ("room-check", "--seed", "1", "--count", "2")

# The turnover modules each command loads in a fresh interpreter.
PARSER = {"turnover", "turnover.cli", "turnover.errors"}
TRIG_ONLY = PARSER | {"turnover.trig"}
WITH_COLLARS = TRIG_ONLY | {"turnover.collars"}
WITH_SIMPLICES = TRIG_ONLY | {"turnover.numerics", "turnover.simplices"}
WITH_REGISTRY = TRIG_ONLY | {"turnover.registry"}
WITH_ENGINE = WITH_COLLARS | WITH_SIMPLICES | {"turnover.engine"}
WITH_ROOMS = PARSER | {"turnover.numerics", "turnover.rooms"}

# One small invocation of every subcommand: (arguments, modules loaded).
COMMANDS = {
    "area": (["2", "4", "5"], TRIG_ONLY),
    "classify": (["2", "4", "5"], TRIG_ONLY),
    "delta": (["5", "5"], WITH_COLLARS),
    "orders": (["2", "4", "5"], WITH_COLLARS),
    "supergroups": (["--table"], WITH_COLLARS),
    "bounds": (["2", "4", "5"], WITH_ENGINE),
    "candidates": (["2", "4", "5"], WITH_ENGINE),
    "analyze": (["2", "4", "5"], WITH_ENGINE),
    "census": (["--max-order", "5"], WITH_ENGINE),
    "rho3": (["--theta", "0.5"], WITH_SIMPLICES),
    "room-check": (["--count", "2", "--seed", "0"], WITH_ROOMS),
    "registry": ([], WITH_REGISTRY),
}

README = Path(__file__).resolve().parents[1] / "README.md"
# Results that README's CLI block quotes in its comments, by command line.
README_QUOTES = {
    "area 2 4 5": "hyperbolic, area = 0.3141592654",
    "classify 3 3 3": "euclidean",
    "delta 5 5": "delta(5,5) = 0.7361750878",
    "analyze 2 4 5": "NoEmbeddedTurnovers",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestArea:
    def test_hyperbolic(self, capsys):
        code, out, _ = run(capsys, "area", "2", "4", "5")
        assert code == 0
        assert out.startswith("hyperbolic, area = 0.3141592654")

    def test_euclidean(self, capsys):
        code, out, _ = run(capsys, "area", "3", "3", "3")
        assert code == 0
        assert out.strip() == "euclidean"

    def test_spherical(self, capsys):
        code, out, _ = run(capsys, "area", "2", "2", "3")
        assert code == 0
        assert out.strip() == "spherical"

    def test_invalid_signature_exits_2(self, capsys):
        code, _, err = run(capsys, "area", "1", "4", "5")
        assert code == 2
        assert "error" in err

    def test_json(self, capsys):
        payload = run_json(capsys, "area", "2", "4", "5")
        assert payload["class"] == "hyperbolic"
        assert payload["area"] == pytest.approx(math.pi / 10.0, abs=1e-12)


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "3", "7")
        assert code == 0 and out.strip() == "hyperbolic"


class TestDelta:
    def test_values(self, capsys):
        payload = run_json(capsys, "delta", "5", "5")
        assert payload["delta"] == pytest.approx(0.736175, abs=1e-5)

    def test_normalized_pair(self, capsys):
        payload = run_json(capsys, "delta", "4", "5")
        assert (payload["n"], payload["m"]) == (5, 4)
        assert payload["delta"] == pytest.approx(0.626869, abs=1e-5)

    def test_text_and_json_agree(self, capsys):
        payload = run_json(capsys, "delta", "7", "7")
        code, out, _ = run(capsys, "delta", "7", "7")
        assert code == 0
        printed = float(out.splitlines()[1].split("=")[1])
        assert printed == pytest.approx(payload["delta"], abs=1e-9)

    def test_invalid_pair_exits_2(self, capsys):
        code, _, _ = run(capsys, "delta", "2", "2")
        assert code == 2


class TestOrders:
    def test_refined_245(self, capsys):
        payload = run_json(capsys, "orders", "2", "4", "5")
        assert payload["universe"] == list(range(2, 11))
        assert payload["refined"] == [2, 3, 4, 5]

    @pytest.mark.parametrize("command", ["orders", "candidates", "analyze"])
    def test_kept_doubled_order_above_the_cap_exits_2(self, capsys, command):
        code, _, err = run(capsys, command, "600000", "600000", "600000")
        assert code == 2 and "doubled boundary order 1200000" in err


class TestSupergroups:
    def test_table(self, capsys):
        payload = run_json(capsys, "supergroups", "--table")
        assert len(payload["table"]) == 14

    def test_instance(self, capsys):
        payload = run_json(capsys, "supergroups", "7", "7", "7")
        rows = {(tuple(r["super"]), r["index"], r["normal"]) for r in payload["supergroups"]}
        assert ((2, 3, 7), 24, False) in rows

    def test_maximal(self, capsys):
        code, out, _ = run(capsys, "supergroups", "2", "4", "5")
        assert code == 0 and "maximal" in out

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "supergroups")
        assert code == 2

    @pytest.mark.parametrize("argv", [["2", "4", "5", "--table"], ["--table", "7"]])
    def test_signature_with_table_exits_2(self, capsys, argv):
        """--table prints the whole table, so a signature beside it is a
        usage error, not silently dropped."""
        code, out, err = run(capsys, "supergroups", *argv)
        assert code == 2 and out == ""
        assert "not both" in err


class TestBounds:
    def test_ext2(self, capsys):
        payload = run_json(capsys, "bounds", "2", "4", "5", "--ext", "2")
        assert payload["no_boundary"] == pytest.approx(math.pi / 20.0, abs=1e-12)
        assert payload["max_pieces"] == 2


class TestCandidates:
    def test_245(self, capsys):
        payload = run_json(capsys, "candidates", "2", "4", "5")
        assert [tuple(c["sig"]) for c in payload["candidates"]] == [(2, 4, 5), (3, 3, 4)]


class TestAnalyze:
    def test_245_concludes(self, capsys):
        code, out, _ = run(capsys, "analyze", "2", "4", "5")
        assert code == 0
        assert out.strip().endswith("conclusion: NoEmbeddedTurnovers")

    def test_247_ext2_candidates_remain(self, capsys):
        payload = run_json(capsys, "analyze", "2", "4", "7", "--ext", "2")
        assert payload["conclusion"] == "CandidatesRemain"
        assert [2, 3, 7] in [c["sig"] for c in payload["candidates"]]

    def test_euclidean_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "2", "3", "6")
        assert code == 2
        assert "euclidean" in err


class TestCensus:
    # Census verdict table recorded for the benchmark; read here, never written.
    GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "census.json"

    @pytest.mark.parametrize("ext", [1, 2])
    def test_rows_match_golden(self, capsys, ext):
        golden = json.loads(self.GOLDEN.read_text())
        assert golden["max_order"] == 7
        payload = run_json(capsys, "census", "--max-order", "7", "--ext", str(ext))
        assert payload["rows"] == [row for row in golden["rows"] if row["ext"] == ext]

    def test_text_is_one_line_per_row(self, capsys):
        code, out, _ = run(capsys, "census", "--max-order", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(run_json(capsys, "census", "--max-order", "5")["rows"])
        assert "(2,4,5) ext 1 NoEmbeddedTurnovers  excluded 8 survives 2" in lines

    @pytest.mark.parametrize("max_order", ["1", "0", "-3"])
    def test_max_order_below_2_exits_2(self, capsys, max_order):
        code, _, err = run(capsys, "census", "--max-order", max_order)
        assert code == 2
        assert "max order" in err


class TestRho3:
    def test_theta_zero(self, capsys):
        payload = run_json(capsys, "rho3", "--theta", "0")
        assert payload["volume"] == pytest.approx(3.663862, abs=1e-5)

    def test_theta_quarter_pi(self, capsys):
        payload = run_json(capsys, "rho3", "--theta", "0.7853981634")
        assert payload["volume"] == pytest.approx(2.573100, abs=1e-5)

    def test_edge_form(self, capsys):
        payload = run_json(capsys, "rho3", "--edge", "1.1283839649663011")
        assert payload["theta"] == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_out_of_domain_exits_2(self, capsys):
        code, _, _ = run(capsys, "rho3", "--theta", "1.1")
        assert code == 2

    def test_overflowing_edge_exits_2(self, capsys):
        """cosh(1000) overflows a float: a usage error, not a traceback."""
        code, _, err = run(capsys, "rho3", "--edge", "1000")
        assert code == 2 and "overflows" in err

    @pytest.mark.parametrize("edge", ["inf", "40"])
    def test_edge_whose_angle_rounds_onto_pi_over_3_exits_2(self, capsys, edge):
        code, _, err = run(capsys, "rho3", "--edge", edge)
        assert code == 2 and f"edge length {float(edge)} " in err

    def test_nan_edge_exits_2_naming_nan(self, capsys):
        code, _, err = run(capsys, "rho3", "--edge", "nan")
        assert code == 2 and "edge length is not a number" in err

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "rho3")[0] == 2
        assert run(capsys, "rho3", "--theta", "0.1", "--edge", "1.0")[0] == 2


class TestRoomCheck:
    def test_seeded_sweep(self, capsys):
        payload = run_json(capsys, "room-check", "--seed", "1", "--count", "5")
        assert payload["violations"] == 0
        assert payload["count"] == 5
        assert payload["worst_margin"] > 0.0
        assert len(payload["records"]) == 5
        assert set(payload["records"][0]) == {"V", "A_C", "A_S", "H_equiv", "margin"}

    def test_constant_fixture_margin_near_zero(self, capsys):
        payload = run_json(capsys, "room-check", "--count", "1", "--constant", "1.2")
        assert abs(payload["worst_margin"]) < 1e-8

    def test_zero_count_exits_2(self, capsys):
        assert run(capsys, "room-check", "--count", "0")[0] == 2

    @pytest.mark.parametrize(
        "height, message", [("nan", "is not a number"), ("inf", "must be finite")]
    )
    def test_constant_that_is_no_height_exits_2(self, capsys, height, message):
        code, _, err = run(capsys, "room-check", "--constant", height, "--count", "1")
        assert code == 2 and f"constant ceiling height {message}" in err

    def test_constant_176_keeps_its_payload(self, capsys):
        payload = run_json(capsys, "room-check", "--constant", "176")
        assert payload == {"count": 1, "violations": 0,
                           "worst_margin": 9.303535670983768e+136,
                           "records": [{"V": 3.17403585432937e+152,
                                        "A_C": 6.348071708658741e+152,
                                        "A_S": 6.34807170865874e+152,
                                        "H_equiv": 176.0,
                                        "margin": 9.303535670983768e+136}]}

    @pytest.mark.parametrize("height", ["178", "400"])
    def test_too_tall_constant_exits_2_naming_the_height(self, capsys, height):
        code, out, err = run(capsys, "room-check", "--constant", height)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"height {height} " in err

    def test_negative_seed_exits_2(self, capsys):
        code, _, err = run(capsys, "room-check", "--seed", "-1", "--count", "1")
        assert code == 2 and "seed must be >= 0, got -1" in err

    def test_determinism(self, capsys):
        first = run_json(capsys, "room-check", "--seed", "9", "--count", "3")
        second = run_json(capsys, "room-check", "--seed", "9", "--count", "3")
        assert first == second


class TestRegistry:
    def test_json(self, capsys):
        payload = run_json(capsys, "registry")
        names = {row["name"] for row in payload["registry"]}
        assert {"Q3", "O8", "O9"} <= names


class TestGlobalFlags:
    def test_tol_flag_accepted(self, capsys):
        code, out, _ = run(capsys, *ROOM_CHECK, "--tol", "1e-9")
        assert code == 0 and "violations: 0" in out

    def test_tol_flag_reaches_numerics(self, capsys):
        payload = run_json(capsys, *ROOM_CHECK, "--tol", "1e-3")
        assert payload["worst_margin"] == WORST_MARGIN_SEED1_LOOSE

    def test_environment_sets_no_tolerance(self, capsys, monkeypatch):
        """--tol is the one way to set the room tolerance."""
        monkeypatch.setenv("TURNOVER_TOL", "1e-3")
        payload = run_json(capsys, *ROOM_CHECK)
        assert payload["worst_margin"] == WORST_MARGIN_SEED1_DEFAULT

    def test_tolerance_does_not_leak_between_calls(self, capsys):
        run_json(capsys, *ROOM_CHECK, "--tol", "1e-3")
        payload = run_json(capsys, *ROOM_CHECK)
        assert payload["worst_margin"] == WORST_MARGIN_SEED1_DEFAULT

    def test_bad_tol_exits_2(self, capsys):
        code, _, err = run(capsys, *ROOM_CHECK, "--tol", "-1")
        assert code == 2 and "abs_tol" in err

    def test_tolerance_never_reaches_the_verdict(self, capsys, monkeypatch):
        """A loose tolerance once lowered H* and turned (2,3,7) into a false
        NoEmbeddedTurnovers; analyze reads no tolerance and rejects --tol."""
        monkeypatch.setenv("TURNOVER_TOL", "1e-2")
        payload = run_json(capsys, "analyze", "2", "3", "7")
        assert payload["conclusion"] == "CandidatesRemain"
        code, _, _ = run(capsys, "analyze", "2", "3", "7", "--tol", "1e-2")
        assert code == 2

    def test_every_command_emits_valid_json(self, capsys):
        """Runs every subcommand the parser knows; one missing from
        COMMANDS fails here rather than going untested."""
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        for command in action.choices:
            payload = run_json(capsys, command, *COMMANDS[command][0])
            assert isinstance(payload, dict)


def test_readme_cli_block_runs_and_shows_what_it_quotes(capsys):
    """Every ``turnover ...`` line of README's CLI block exits 0 with valid
    JSON, and a result its comment quotes is in the text output."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.partition("#") for line in block.splitlines()
             if line.startswith("turnover ")]
    assert len(lines) == 13
    for command, _, comment in lines:
        argv = command.split()[1:]
        run_json(capsys, *argv)
        quote = README_QUOTES.get(" ".join(argv))
        if quote is not None:
            code, out, _ = run(capsys, *argv)
            assert quote in comment and code == 0 and quote in out
    assert set(README_QUOTES) <= {" ".join(c.split()[1:]) for c, _, _ in lines}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_subcommand_parser_parses_and_helps_as_the_full_one(capsys, command):
    """``build_parser(command)`` parses each README example of the command
    to the namespace ``build_parser()`` gives, and prints the same help."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    examples = [line.partition("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith(f"turnover {command} ")]
    assert examples
    one, full = build_parser(command), build_parser()
    for argv in examples:
        assert one.parse_args(argv) == full.parse_args(argv)
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith(f"usage: turnover {command} ")


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["frobnicate"], ["analyze", "2", "4", "5", "--tol", "1e-3"],
])
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    """Help, no command, an unknown command and an argument the command
    does not take give the full parser's output and exit code.  In the last
    case the top-level usage line lists every subcommand."""
    got = run(capsys, *argv)
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert got == run(capsys, *argv)
    assert got[0] == (0 if argv == ["--help"] else 2)


def _fresh_interpreter(program, argv):
    """Run ``program`` in a fresh interpreter that imports this package,
    with ``argv`` as JSON in ``sys.argv[1]``; its last stdout line, as JSON."""
    env = dict(os.environ)
    src = str(Path(turnover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Fresh-interpreter cases that run no command, and the modules they load.
NO_COMMAND = {"package": {"turnover"}, "parser": PARSER}


@pytest.mark.parametrize("command", [*NO_COMMAND, *COMMANDS])
def test_each_command_imports_only_what_it_runs(command):
    """A fresh interpreter running one command loads exactly the turnover
    modules that command calls, and numpy only for room-check: besides
    ``turnover.commands``, the one command module it runs
    (``turnover.commands.<name>``), room-check loads no ``trig``, registry
    loads ``trig`` and ``registry`` but no ``engine``, and the engine
    commands load no ``registry``.  With no command, ``import turnover.cli``
    and ``build_parser()`` load ``cli`` and ``errors`` and no command
    module, and ``import turnover`` loads no submodule.
    No case loads ``dataclasses``, and only room-check (through numpy)
    loads ``inspect``: both cost milliseconds of every cold start."""
    if command in NO_COMMAND:
        argv, expected = [], NO_COMMAND[command]
    else:
        argv, expected = [command, *COMMANDS[command][0]], COMMANDS[command][1]
        expected = expected | {"turnover.commands",
                               f"turnover.commands.{command.replace('-', '_')}"}
    head = ("import turnover" if command == "package"
            else "from turnover.cli import build_parser, main\nbuild_parser()")
    program = "\n".join([
        "import contextlib, io, json, sys",
        "before = set(sys.modules)",
        head,
        "argv = json.loads(sys.argv[1])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(argv) if argv else 0",
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules,",
        "                  'stdlib': [m for m in ('dataclasses', 'inspect')",
        "                             if m in sys.modules and m not in before],",
        "                  'modules': sorted(m for m in sys.modules",
        "                                    if m.split('.')[0] == 'turnover')}))",
    ])
    result = _fresh_interpreter(program, argv)
    assert result["code"] == 0, result
    assert set(result["modules"]) == expected
    assert result["numpy"] == (command == "room-check")
    assert "dataclasses" not in result["stdlib"]
    assert "inspect" not in result["stdlib"] or command == "room-check"


GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli.json"


@pytest.mark.parametrize("argv", [row["argv"] for row in
                                  json.loads(GOLDEN_CLI.read_text())["commands"]],
                         ids=" ".join)
def test_main_module_run_never_imports_cli_again(argv):
    """``python -m turnover.cli``, as the benchmark launches each command,
    runs the parser as ``__main__``: no command module imports
    ``turnover.cli``, which would compile it a second time."""
    program = "\n".join([
        "import contextlib, io, json, runpy, sys",
        "sys.argv = ['turnover', *json.loads(sys.argv[1])]",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    try:",
        "        runpy.run_module('turnover.cli', run_name='__main__', alter_sys=True)",
        "    except SystemExit as exc:",
        "        code = exc.code",
        "json.loads(out.getvalue())",
        "print(json.dumps({'code': code, 'cli': 'turnover.cli' in sys.modules}))",
    ])
    assert _fresh_interpreter(program, [*argv, "--json"]) == {"code": 0, "cli": False}
