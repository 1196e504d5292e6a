"""Child process of the benchmark: runs one measured job and prints JSON.

Usage: ``python perfbench/worker.py <job>`` with a JSON request on stdin and
``src`` on ``PYTHONPATH``.  Each job starts from a fresh interpreter, so
turnover's in-process caches start cold; the package is imported before
any timed region.  Jobs:

* ``census``   -- ``engine.analyze`` on the given (p, q, r, ext) items, in order.
* ``rooms``    -- the seeded stream of room and cusp-prism checks.
* ``cli``      -- ``turnover.cli.main(argv)`` in-process, stdout captured.
* ``handlers`` -- every given argv through ``main`` once, timed, untraced.
* ``probes``   -- fixed-input layer timings.

Times are returned in reference milliseconds (``calibrate.py``), raw wall
times beside them as ``wall_ms``.  With ``"trace": true`` the job runs under
``tracer.Tracer``; the worker then returns the per-layer totals and writes
its spans to ``request["spans"]``.
"""

from __future__ import annotations

import contextlib
import io
from array import array
import json
import math
import statistics
import sys
import time

from calibrate import Calibration, summarize
from tracer import Tracer, layer_totals

# Rooms checks run at 1e-10 instead of the package default 1e-12: random
# smooth ceilings carry finite-difference gradients (step 1e-6) whose
# rounding noise sits above 1e-12, and at the default about 1.5% of them
# raise ConvergenceError (17 of 1200 draws, generator seeds 0-3).
ROOMS_TOL = 1e-10
# One shuffled block of the rooms stream: 6 random smooth ceilings, 2
# constant ceilings (the equality edge), 2 cusp prisms.
ROOMS_BLOCK = ("random",) * 6 + ("constant",) * 2 + ("prism",) * 2
# Cusp-prism vertices are drawn uniformly from the disk of this radius.
# Vertices closer to the unit circle make the integrand nearly singular,
# and the fixed-order triangle rule stops converging (about 0.25% of
# triangles drawn from [-0.93, 0.93]^2 at tol 1e-10).
PRISM_RADIUS = 0.9
# Rooms checks take about 1 ms; they are calibrated in batches of this many
# milliseconds.
ROOMS_BATCH_MS = 50.0


def _start_trace(request):
    if not request.get("trace"):
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, request, out, ms, wall_ms) -> None:
    """Per-layer totals, self times scaled like the job's timed samples."""
    if tracer is None:
        return
    tracer.uninstall()
    out["totals"] = layer_totals(tracer, sum(ms) / sum(wall_ms) if wall_ms else 1.0)
    out["rho3_args"] = sorted(tracer.rho3_args)
    if request.get("spans"):
        tracer.write_spans(request["spans"])


def job_census(request):
    from turnover import engine
    from turnover.trig import TurnoverSignature

    out = {"results": []}
    calibration = Calibration()
    tracer = _start_trace(request)
    for p, q, r, ext in request["items"]:
        row = {"sig": [p, q, r], "ext": ext}
        sig = TurnoverSignature(p, q, r)
        t0 = time.perf_counter()
        try:
            report = engine.analyze(sig, ext)
        except Exception as exc:  # every failure is counted, none stops the pass
            row["error"] = repr(exc)
        else:
            row["wall_ms"] = (time.perf_counter() - t0) * 1e3
            row["ms"] = calibration.normalize([row["wall_ms"]])[0]
            row["conclusion"] = report.conclusion.value
            row["cases"] = [
                [*c.case.boundary_sig.orders, c.case.k, c.case.closed,
                 c.lower_bound, c.verdict.value]
                for c in report.cases
            ]
        out["results"].append(row)
    timed = [row for row in out["results"] if "ms" in row]
    _finish_trace(tracer, request, out, [row["ms"] for row in timed],
                  [row["wall_ms"] for row in timed])
    return out


def _rooms_stream(rng, np, rooms, DomainError):
    """Endless seeded stream of (kind, inputs) room operations."""
    while True:
        kinds = list(ROOMS_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "prism":
                while True:
                    radius = PRISM_RADIUS * rng.uniform(0.0, 1.0, 3) ** 0.5
                    angle = rng.uniform(0.0, 2.0 * math.pi, 3)
                    vertices = tuple(
                        zip((radius * np.cos(angle)).tolist(),
                            (radius * np.sin(angle)).tolist())
                    )
                    try:
                        triangle = rooms.ProjectiveTriangle(vertices)
                    except DomainError:  # collinear draw; redraw
                        continue
                    break
                yield kind, (triangle,)
            else:
                floor = rooms.PolarDisk(float(rng.uniform(0.6, 1.4)))
                if kind == "random":
                    yield kind, (floor, rooms.random_smooth_ceiling(rng))
                else:
                    h = float(rng.uniform(0.1, 2.0))
                    yield kind, (floor, rooms.CeilingFunction.constant(h), h)


def _check_room(kind, inputs, result, h_star) -> str | None:
    """Independent check of one rooms result; returns a reason on failure."""
    tol = ROOMS_TOL
    if kind == "prism":
        volume, floor_area = result
        if not (0.0 < volume < 0.5 * floor_area):
            return f"cusp prism volume {volume} vs floor area {floor_area}"
        return None
    floor = inputs[0]
    spec = result
    A_F = floor.area
    V, A_C, H = spec.volume, spec.ceiling_area, spec.equivalent_height
    if kind == "constant":
        h = inputs[2]
        V_exact = A_F * (math.sinh(2.0 * h) + 2.0 * h) / 4.0
        A_exact = A_F * math.cosh(h) ** 2
        if abs(V - V_exact) > 1e-9 * V_exact or abs(A_C - A_exact) > 1e-9 * A_exact:
            return f"constant h={h}: V={V} vs {V_exact}, A_C={A_C} vs {A_exact}"
    rhs = 4.0 * V / A_F
    if abs(math.sinh(2.0 * H) + 2.0 * H - rhs) > 1e-9 * rhs:
        return f"equivalent height {H} does not solve sinh 2H + 2H = {rhs}"
    if spec.margin < -(tol + tol * spec.nice_area):
        return f"ceiling area {A_C} below nice area {spec.nice_area}"
    if V > 0.5 * h_star * A_C * (1.0 + 1e-9):
        return f"volume {V} above (H*/2) A_C"
    return None


def job_rooms(request):
    import numpy as np
    from turnover import rooms
    from turnover.errors import DomainError
    from turnover.numerics import Tolerance

    out = {}
    tol = Tolerance(abs_tol=ROOMS_TOL, rel_tol=ROOMS_TOL)
    # x = coth x by bisection, independent of the package's root finder.
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < math.cosh(mid) / math.sinh(mid) else (lo, mid)
    h_star = 0.5 * (lo + hi)

    stream = _rooms_stream(
        np.random.default_rng(request["seed"]), np, rooms, DomainError
    )
    limit_ops = request.get("ops")
    limit_s = request.get("seconds")
    # Samples stay in flat arrays and only their summary is returned, so the
    # worker's peak RSS does not grow with the number of checks.
    ms, wall_ms, batch, errors, attempted = array("d"), array("d"), [], [], 0
    calibration = Calibration()
    tracer = _start_trace(request)
    loop_start = time.perf_counter()
    while True:
        if limit_ops is not None and attempted >= limit_ops:
            break
        if limit_s is not None and time.perf_counter() - loop_start >= limit_s:
            break
        kind, inputs = next(stream)
        t0 = time.perf_counter()
        try:
            if kind == "prism":
                result = rooms.cusp_prism_check(inputs[0], tol)
            else:
                result = rooms.isoperimetric_check(inputs[0], inputs[1], tol)
        except Exception as exc:  # every failure is counted, none stops the run
            reason = f"{kind}: {exc!r}"
        else:
            batch.append((time.perf_counter() - t0) * 1e3)
            reason = _check_room(kind, inputs, result, h_star)
        attempted += 1
        if reason is not None:
            errors.append(reason)
        if sum(batch) >= ROOMS_BATCH_MS:
            ms += array("d", calibration.normalize(batch))
            wall_ms += array("d", batch)
            batch = []
    ms += array("d", calibration.normalize(batch))
    wall_ms += array("d", batch)
    _finish_trace(tracer, request, out, ms, wall_ms)
    out.update(summary=summarize(ms, wall_ms), errors=errors, attempted=attempted)
    return out


def job_cli(request):
    from turnover import cli

    calibration = Calibration()
    tracer = _start_trace(request)
    buffer = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(request["argv"])
    wall_ms = (time.perf_counter() - t0) * 1e3
    out = {"code": code, "stdout": buffer.getvalue()}
    _finish_trace(tracer, request, out, calibration.normalize([wall_ms]), [wall_ms])
    return out


def job_handlers(request):
    from turnover import cli

    calibration = Calibration()
    times = []
    for argv in request["argvs"]:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(argv)
            times += calibration.normalize([(time.perf_counter() - t0) * 1e3])
    return {"ms": times}


def _median_ms(fn, repeats: int) -> float:
    fn()  # warm-up: fills the package's lru caches
    calibration = Calibration()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times += calibration.normalize([(time.perf_counter() - t0) * 1e3])
    return statistics.median(times)


def job_probes(request):
    from turnover import engine, numerics, simplices
    from turnover.trig import TurnoverSignature

    repeats = request.get("repeats", 7)
    return {
        "numerics.lobachevsky.probe_ms": _median_ms(
            lambda: numerics.lobachevsky(math.pi / 4.0), repeats),
        "simplices.truncated_simplex_volume.probe_ms": _median_ms(
            lambda: simplices.truncated_simplex_volume(0.9), repeats),
        "simplices.rho3.probe_ms": _median_ms(lambda: simplices.rho3(0.5), repeats),
        "engine.analyze.probe_245_ms": _median_ms(
            lambda: engine.analyze(TurnoverSignature(2, 4, 5)), repeats),
        "engine.analyze.probe_777_ms": _median_ms(
            lambda: engine.analyze(TurnoverSignature(7, 7, 7)), 3),
    }


JOBS = {
    "census": job_census,
    "rooms": job_rooms,
    "cli": job_cli,
    "handlers": job_handlers,
    "probes": job_probes,
}


if __name__ == "__main__":
    request = json.loads(sys.stdin.read() or "{}")
    result = JOBS[sys.argv[1]](request)
    sys.stdout.write(json.dumps(result))
