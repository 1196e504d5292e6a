#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/repeat.py --workloads census rooms cli_cold \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and reports for every end-to-end
metric its median, quartiles and quartile spread ((q3 - q1) / median),
next to the metric's bound.  With ``--out`` it writes the runs and the
summary together with machine information and the census verdict counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter

from run import BENCH, GOLDEN, ROOT, child_env


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=child_env(),
    ).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform(),
            "processor": platform.processor() or platform.machine()}


def census_verdicts() -> dict:
    rows = json.loads((GOLDEN / "census.json").read_text())["rows"]
    return {
        "conclusions": dict(Counter(f"ext{r['ext']}:{r['conclusion']}" for r in rows)),
        "excluded": sum(r["excluded"] for r in rows),
        "survives": sum(r["survives"] for r in rows),
        "no_embedded": [r["sig"] + [r["ext"]] for r in rows
                        if r["conclusion"] == "NoEmbeddedTurnovers"],
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 6)
                                              for k, v in result["metrics"].items()}),
                  "failed", result["failed"], flush=True)
        summary = {}
        if args.trace == 0 and len(runs) >= 2:
            for name in runs[0]["metrics"]:
                summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
                s = summary[name]
                print(f"  {workload} {name}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} bound {bounds.get(name)}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        report["machine"] = machine()
        report["census_verdicts"] = census_verdicts()
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1)
            out.write("\n")


if __name__ == "__main__":
    main()
