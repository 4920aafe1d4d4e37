"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--output FILE]

Runs ``run.py`` once per seed (``SEEDS`` of them) for every workload of
BENCHMARK.json with ``--trace 0``,
then once per workload with ``--trace 1``, one run at a time, with the
run length set in BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles and the spread (interquartile distance as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives
them) next to the metric's bound.  With ``--output`` it also writes
these figures, the traced per-layer tables, the stdout digests and the
machine description as JSON.  Exits 1 if a run fails or is incorrect,
or a spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seeded runs per workload.
SEEDS = 10


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}, None
    print(lines[0], flush=True)
    return json.loads(lines[-1]), lines[0].rsplit("stdout_sha256=", 1)[-1]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    ok = True
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in why:
        values = {name: [] for name in bounds}
        digests = {}
        runs = failed = 0
        for seed in range(1, SEEDS + 1):
            result, digest = run_once(workload, seed, bench["run_seconds"], 0)
            runs += 1
            digests[seed] = digest
            if not result["correct"]:
                failed += 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        entry = {"why": why[workload], "runs": runs, "failed_runs": failed,
                 "stdout_sha256_by_seed": digests, "end_to_end": {}}
        ok = ok and not failed
        for name, vals in values.items():
            if len(vals) < 2:
                ok = False
                continue
            stats = spread(vals)
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            steady = stats["spread"] <= bounds[name]
            ok = ok and steady
            print(f"{workload} {name}: median {stats['median']:.4f} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                  f"spread {stats['spread']:.4f} bound {bounds[name]}"
                  f"{'' if steady else '  TOO WIDE'}", flush=True)
        result, _ = run_once(workload, 1, bench["run_seconds"], 1)
        ok = ok and result["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        doc["workloads"][workload] = entry
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
