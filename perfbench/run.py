#!/usr/bin/env python3
"""The turnover benchmark.

    python3 perfbench/run.py --workload census|rooms|cli_cold --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
and is never edited.  All measured work runs in child processes started one
at a time (``perfbench/worker.py``), so every pass starts with cold
in-process caches and import time stays out of the work timings.

Workloads (why each one exists is in ``perfbench/README.md``):

* ``census``   -- ``engine.analyze`` on every hyperbolic signature with orders
  <= 7 at ext 1 and 2, in a seeded order, one fresh worker per pass.
* ``rooms``    -- a seeded stream of isoperimetric and cusp-prism checks.
* ``cli_cold`` -- closed loop, one client: seeded rounds of README commands,
  each a fresh ``python -m turnover.cli ... --json`` process.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
amount of the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  Every output is checked against golden
files recorded when the benchmark was added (``perfbench/golden``) and, for a sample
of census cases, against an independent mpmath evaluation.  Human-readable
metric lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from calibrate import Calibration, summarize
from tracer import layer_metrics, merge_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

MAX_ORDER = 7
# The (p, q, r, ext) rows that conclude NoEmbeddedTurnovers at MAX_ORDER.
EXPECTED_NO_EMBEDDED = {(2, 4, 5, 1), (2, 3, 7, 2), (2, 4, 5, 2)}
# 88 analyses per pass, so two passes are the fewest that leave ten
# samples beyond p90.
CENSUS_MIN_PASSES = 2
# Census cases per pass recomputed with mpmath.
ORACLE_SAMPLES = 12
ORACLE_REL_TOL = 1e-9
# 13 commands per round; eight rounds leave ten samples beyond p90.
CLI_MIN_ROUNDS = 8
CLI_REL_TOL = 1e-9
SETUP_REPEATS = 11
# Untimed set-ups first, so the package's files are in the page cache as
# they are for a user who runs the CLI repeatedly.
SETUP_WARMUPS = 2
# Reference for timings that start processes: a fresh interpreter that
# imports numpy, with its nominal spawn-to-exit time (about its time on an
# idle baseline machine).  Process timings are calibrated in batches.
SPAWN_REFERENCE = "import numpy"
SPAWN_REFERENCE_MS = 170.0
SPAWN_BATCH = 3
PROBE_REPEATS = 5
TRACE_ROOMS_OPS = 3000
CHILD_TIMEOUT_S = 170

# Subcommands from the README, each run with --json.
CLI_COMMANDS = (
    ("analyze", "2", "4", "5"),
    ("analyze", "2", "4", "5", "--ext", "2"),
    ("analyze", "2", "4", "6", "--ext", "2"),
    ("analyze", "2", "4", "7", "--ext", "2"),
    ("area", "2", "4", "5"),
    ("orders", "2", "4", "5"),
    ("bounds", "2", "4", "5", "--ext", "2"),
    ("candidates", "2", "4", "5"),
    ("rho3", "--theta", "0.785"),
    ("delta", "5", "5"),
    ("supergroups", "--table"),
    ("registry",),
    ("room-check", "--seed", "1", "--count", "5"),
)

# Per-workload names printed for the generic end-to-end metrics.
HUMAN_NAMES = {
    "census": ("census.sigs_per_s", "census.analyze_p50_ms", "census.analyze_p90_ms"),
    "rooms": ("rooms.checks_per_s", "rooms.check_p50_ms", "rooms.check_p90_ms"),
    "cli_cold": ("cli.cmds_per_s", "cli.cold_p50_ms", "cli.cold_p90_ms"),
}


class BenchError(Exception):
    """The benchmark cannot run or measure (as opposed to a checked failure)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TURNOVER_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job: str, request: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), job],
        input=json.dumps(request), capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {job} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall ms from spawn to exit of one child process, and the process."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3, proc


def reference_spawn_ms() -> float:
    wall_ms, proc = spawn([sys.executable, "-c", SPAWN_REFERENCE])
    if proc.returncode != 0:
        raise BenchError(f"reference spawn failed: {proc.stderr[-2000:]}")
    return wall_ms


def spawn_calibration() -> Calibration:
    return Calibration(reference_spawn_ms, SPAWN_REFERENCE_MS)


class SpawnTimer:
    """Collects process timings, calibrated every SPAWN_BATCH samples."""

    def __init__(self):
        self.calibration = spawn_calibration()
        self.ms, self.wall_ms, self._batch = [], [], []

    def add(self, wall_ms: float) -> None:
        self._batch.append(wall_ms)
        if len(self._batch) == SPAWN_BATCH:
            self.flush()

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        wall_ms, proc = spawn(argv)
        self.add(wall_ms)
        return proc

    def flush(self) -> None:
        if self._batch:
            self.ms += self.calibration.normalize(self._batch)
            self.wall_ms += self._batch
            self._batch = []


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure_setup_s() -> tuple[float, float]:
    """Median time for a fresh interpreter to import turnover.cli and build
    its parser, ready to dispatch a command: reference and wall seconds."""
    argv = [sys.executable, "-c", "import turnover.cli as c; c.build_parser()"]
    for _ in range(SETUP_WARMUPS):
        spawn(argv)
    timer = SpawnTimer()
    for _ in range(SETUP_REPEATS):
        proc = timer.run(argv)
        if proc.returncode != 0:
            raise BenchError(f"import turnover.cli failed: {proc.stderr[-2000:]}")
    timer.flush()
    return statistics.median(timer.ms) / 1e3, statistics.median(timer.wall_ms) / 1e3


# --- census --------------------------------------------------------------------


def census_items() -> list[list[int]]:
    sigs = [
        (p, q, r)
        for p in range(2, MAX_ORDER + 1)
        for q in range(p, MAX_ORDER + 1)
        for r in range(q, MAX_ORDER + 1)
        if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1
    ]
    return [[*sig, ext] for ext in (1, 2) for sig in sigs]


def load_census_golden() -> dict:
    data = json.loads((GOLDEN / "census.json").read_text())
    if data["max_order"] != MAX_ORDER:
        raise BenchError("census golden table is for another maximum order")
    golden = {
        (*row["sig"], row["ext"]): (row["conclusion"], row["excluded"], row["survives"])
        for row in data["rows"]
    }
    concluded = {key for key, row in golden.items() if row[0] == "NoEmbeddedTurnovers"}
    if set(golden) != {tuple(item) for item in census_items()} or concluded != EXPECTED_NO_EMBEDDED:
        raise BenchError("census golden table does not match the census")
    return golden


class MpmathOracle:
    """Case lower bounds rho3(l/2) * Area recomputed with mpmath.

    Vol(T_theta) = 8 L(pi/4) - 3 Int_0^theta acosh(cos t / (2 cos t - 1)) dt
    with L(x) = Cl_2(2x) / 2, and theta from the exact rational return-path
    denominator 3 (1 - w chi), w = k (closed) or k/2 (open).
    """

    def __init__(self):
        import mpmath

        self.mpmath = mpmath
        self.memo = {}

    def lower_bound(self, boundary: tuple, k: int, closed: bool) -> float:
        key = (boundary, k, closed)
        if key not in self.memo:
            mpm = self.mpmath
            chi = sum(Fraction(1, n) for n in boundary) - 1
            weight = Fraction(k) if closed else Fraction(k, 2)
            denom = 3 * (1 - weight * chi)
            with mpm.workdps(30):
                theta = mpm.pi * denom.denominator / denom.numerator
                octahedron = 8 * mpm.clsin(2, mpm.pi / 2) / 2
                integral = mpm.quad(
                    lambda t: mpm.acosh(mpm.cos(t) / (2 * mpm.cos(t) - 1)), [0, theta]
                )
                density = (octahedron - 3 * integral) / (4 * (mpm.pi - 3 * theta))
                area = 2 * mpm.pi * mpm.mpf(-chi.numerator) / chi.denominator
                self.memo[key] = float(density * area)
        return self.memo[key]


def check_census_pass(results, golden, oracle, rng) -> list[str]:
    """One reason per failed analysis: an exception, a conclusion or case
    count differing from the golden table, or a sampled case bound off the
    mpmath value by more than ORACLE_REL_TOL."""
    failures = {}
    sampled = []
    for index, row in enumerate(results):
        key = tuple(row["sig"]) + (row["ext"],)
        if "error" in row:
            failures[index] = f"{key}: {row['error']}"
            continue
        want = golden.get(key)
        verdicts = Counter(case[-1] for case in row["cases"])
        got = (row["conclusion"], verdicts["Excluded"], verdicts["Survives"])
        if got != want:
            failures[index] = f"{key}: got {got}, golden {want}"
        sampled.extend((index, case) for case in row["cases"])
    for index, case in rng.sample(sampled, min(ORACLE_SAMPLES, len(sampled))):
        p, q, r, k, closed, bound, _ = case
        ref = oracle.lower_bound((p, q, r), k, closed)
        if not abs(bound - ref) <= ORACLE_REL_TOL * abs(ref):
            failures[index] = f"case {case}: lower bound {bound} vs mpmath {ref}"
    return list(failures.values())


def census_run(seed, seconds):
    items, golden, oracle = census_items(), load_census_golden(), MpmathOracle()
    rng = random.Random(seed)
    ms, wall_ms, errors, attempted = [], [], [], 0
    while len(ms) < CENSUS_MIN_PASSES * len(items) or sum(wall_ms) < seconds * 1e3:
        order = items[:]
        rng.shuffle(order)
        out = run_child("census", {"items": order})
        timed = [row for row in out["results"] if "ms" in row]
        ms += [row["ms"] for row in timed]
        wall_ms += [row["wall_ms"] for row in timed]
        errors += check_census_pass(out["results"], golden, oracle, rng)
        attempted += len(out["results"])
    return summarize(ms, wall_ms), attempted, errors


def census_trace(seed):
    items, golden, oracle = census_items(), load_census_golden(), MpmathOracle()
    rng = random.Random(seed)
    rng.shuffle(items)
    plain = run_child("census", {"items": items})
    spans = OUT / f"spans-census-{seed}.tsv.gz"
    traced = run_child("census", {"items": items, "trace": True, "spans": str(spans)})
    errors = []
    for out in (plain, traced):
        errors += check_census_pass(out["results"], golden, oracle, rng)
    return {
        "untraced_ms": sum(row.get("ms", 0.0) for row in plain["results"]),
        "traced_ms": sum(row.get("ms", 0.0) for row in traced["results"]),
        "totals": [traced["totals"]],
        "rho3_args": traced["rho3_args"],
        "attempted": 2 * len(items),
        "errors": errors,
    }


# --- rooms ---------------------------------------------------------------------


def rooms_run(seed, seconds):
    out = run_child("rooms", {"seed": seed, "seconds": seconds})
    return out["summary"], out["attempted"], out["errors"]


def rooms_trace(seed):
    request = {"seed": seed, "ops": TRACE_ROOMS_OPS}
    plain = run_child("rooms", request)
    spans = OUT / f"spans-rooms-{seed}.tsv.gz"
    traced = run_child("rooms", dict(request, trace=True, spans=str(spans)))
    return {
        "untraced_ms": plain["summary"]["total_ms"],
        "traced_ms": traced["summary"]["total_ms"],
        "totals": [traced["totals"]],
        "rho3_args": traced["rho3_args"],
        "attempted": plain["attempted"] + traced["attempted"],
        "errors": plain["errors"] + traced["errors"],
    }


# --- cold CLI --------------------------------------------------------------------


def load_cli_golden() -> dict:
    data = json.loads((GOLDEN / "cli.json").read_text())
    return {tuple(row["argv"]): row["payload"] for row in data["commands"]}


def same_payload(got, want) -> bool:
    """Equal JSON values, floats to a relative CLI_REL_TOL."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return False
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= CLI_REL_TOL * max(abs(want), abs(got)) or got == want
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_payload(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_payload(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def check_cli(argv, code, stdout, golden) -> str | None:
    if code != 0:
        return f"{' '.join(argv)}: exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"{' '.join(argv)}: output is not JSON ({exc})"
    if not same_payload(payload, golden[argv]):
        return f"{' '.join(argv)}: payload differs from golden"
    return None


def cli_cold_run(seed, seconds):
    golden = load_cli_golden()
    rng = random.Random(seed)
    timer = SpawnTimer()
    errors, rounds = [], 0
    while rounds < CLI_MIN_ROUNDS or sum(timer.wall_ms) < seconds * 1e3:
        commands = list(CLI_COMMANDS)
        rng.shuffle(commands)
        for argv in commands:
            proc = timer.run([sys.executable, "-m", "turnover.cli", *argv, "--json"])
            reason = check_cli(argv, proc.returncode, proc.stdout, golden)
            if reason is not None:
                errors.append(reason)
        rounds += 1
    timer.flush()
    return summarize(timer.ms, timer.wall_ms), len(timer.ms), errors


def cli_cold_trace(seed):
    golden = load_cli_golden()
    commands = list(CLI_COMMANDS)
    random.Random(seed).shuffle(commands)
    spans_dir = OUT / f"spans-cli_cold-{seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced = SpawnTimer(), SpawnTimer()
    totals, rho3_args, errors = [], set(), []
    for index, argv in enumerate(commands):
        proc = untraced.run([sys.executable, "-m", "turnover.cli", *argv, "--json"])
        reason = check_cli(argv, proc.returncode, proc.stdout, golden)
        t0 = time.perf_counter()
        out = run_child("cli", {"argv": [*argv, "--json"], "trace": True,
                                "spans": str(spans_dir / f"{index:02d}.tsv.gz")})
        traced.add((time.perf_counter() - t0) * 1e3)
        reason = reason or check_cli(argv, out["code"], out["stdout"], golden)
        if reason is not None:
            errors.append(reason)
        totals.append(out["totals"])
        rho3_args.update(out["rho3_args"])
    untraced.flush()
    traced.flush()
    return {
        "untraced_ms": sum(untraced.ms),
        "traced_ms": sum(traced.ms),
        "totals": totals,
        "rho3_args": sorted(rho3_args),
        "attempted": len(commands),
        "errors": errors,
    }


# --- per-layer probes ------------------------------------------------------------


IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print((time.perf_counter() - t) * 1e3)"


def cli_layer_metrics() -> dict:
    calibration = spawn_calibration()

    def import_ms(module):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        return calibration.normalize([float(proc.stdout)])[0]

    bare, cli_import, numpy_import = [], [], []
    for _ in range(PROBE_REPEATS):
        bare += calibration.normalize([spawn([sys.executable, "-c", "pass"])[0]])
        cli_import.append(import_ms("turnover.cli"))
        numpy_import.append(import_ms("numpy"))
    argvs = [[*argv, "--json"] for argv in CLI_COMMANDS]
    handler = run_child("handlers", {"argvs": argvs})["ms"]
    return {
        "cli.spawn_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(cli_import),
        "cli.numpy_import_ms": statistics.median(numpy_import),
        "cli.handler_ms": statistics.median(handler),
    }


WORKLOADS = {
    "census": (census_run, census_trace),
    "rooms": (rooms_run, rooms_trace),
    "cli_cold": (cli_cold_run, cli_cold_trace),
}


def declared_metrics() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def measure(workload, seed, seconds):
    run, _ = WORKLOADS[workload]
    setup_s, setup_wall_s = measure_setup_s()
    timing, attempted, errors = run(seed, seconds)
    n = timing["n"]
    values = {
        "setup_s": setup_s,
        "throughput_per_s": n / (timing["total_ms"] / 1e3),
        "p50_ms": timing["p50_ms"],
        "p90_ms": timing["p90_ms"],
        "peak_rss_mb": peak_child_rss_mb(),
    }
    throughput, p50_name, p90_name = HUMAN_NAMES[workload]
    prefix = throughput.split(".")[0]
    lines = [
        ("setup_s", setup_s, "s", SETUP_REPEATS),
        (throughput, values["throughput_per_s"], "1/s", n),
        (p50_name, values["p50_ms"], "ms", n),
        (p90_name, values["p90_ms"], "ms", n),
        (f"{prefix}.fail_ratio", len(errors) / attempted, "ratio", attempted),
        (f"{prefix}.peak_rss_mb", values["peak_rss_mb"], "MB", None),
        # Uncalibrated wall-clock values of the same samples.
        ("wall.setup_s", setup_wall_s, "s", SETUP_REPEATS),
        (f"wall.{throughput}", n / (timing["wall_total_ms"] / 1e3), "1/s", n),
        (f"wall.{p50_name}", timing["wall_p50_ms"], "ms", n),
        (f"wall.{p90_name}", timing["wall_p90_ms"], "ms", n),
    ]
    return values, lines, attempted, errors


def trace(workload, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    _, traced_run = WORKLOADS[workload]
    result = traced_run(seed)
    values = layer_metrics(
        merge_totals(result["totals"]), len(set(result["rho3_args"])), result["traced_ms"]
    )
    values.update(run_child("probes", {"repeats": PROBE_REPEATS}))
    values.update(cli_layer_metrics())
    values["trace.untraced_ms"] = result["untraced_ms"]
    values["trace.traced_ms"] = result["traced_ms"]
    values["trace.overhead_ms"] = result["traced_ms"] - result["untraced_ms"]
    lines = [(name, value, None, None) for name, value in sorted(values.items())]
    return values, lines, result["attempted"], result["errors"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "turnover" / "cli.py").is_file():
        print(f"error: no turnover package under {SRC}", file=sys.stderr)
        return 2
    try:
        end_to_end, per_layer = declared_metrics()
        if args.trace:
            values, lines, attempted, errors = trace(args.workload, args.seed)
            units = per_layer
        else:
            values, lines, attempted, errors = measure(args.workload, args.seed, args.seconds)
            units = end_to_end
        missing = set(units) - set(values)
        if missing:
            raise BenchError(f"declared metrics not measured: {sorted(missing)}")
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, value, unit, n in lines:
        unit = unit or units.get(name, "")
        count = f"  (n={n})" if n is not None else ""
        print(f"{name} = {value:.6g} {unit}{count}")
    for reason in errors[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
