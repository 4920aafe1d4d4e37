"""Certification benchmark for the yangbaxter workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout that holds ``src/yangbaxter``; nothing
needs to be installed.  Every certification is one call of the public
entry point ``yangbaxter.cli.main(argv)`` in a fresh worker process
(worker.py), so each call pays what a user's ``yangbaxter verify`` pays
and no in-process memo table carries over from one call to the next.
Calls run one at a time from this single parent: a closed loop with one
caller and one outstanding certification.

Each run first checks a negative control (a perturbed matrix must fail
the same public verifier, outside timing), then times calls until
``--seconds`` would be exceeded.  Every call passes the correctness gate
or counts as failed: exit code 0, every report passed, the expected
report count, every numeric residual below its tolerance, and a stdout
digest equal across all calls of the run.

``--trace 0`` reports the end-to-end metrics:

- ``wall_ref``: wall time of one certification counted in millions of
  speed-probe steps, that is divided by the probe's CPU time per step
  during the call (probe.py); median over the run's calls.  On a shared
  2-vCPU virtual machine the same Python code runs 20-40 % faster or
  slower from one minute to the next, which no number of repeats
  averages away; the ratio cancels it.  Raw wall time is still
  reported, as ``proc.wall_s`` in the per-layer table.
- ``setup_s``: time from spawning a worker to its being ready to call
  ``cli.main`` (interpreter start and ``import yangbaxter``), median
  over the run's set-up-only spawns, rescaled by the same probe to a
  speed of ``NOMINAL_STEP_S`` per step.
- ``peak_rss_mb``: peak resident memory of a worker, median over calls.

The run, its workers and the probe share one CPU and one scheduler
autogroup (no worker calls setsid): Linux shares a CPU fairly between
autogroups first, and the probe's low priority only holds inside its own.

``--trace 1`` times untraced calls, then makes one traced call
with every public callable of the package wrapped (tracer.py), checks
the trace and reports the per-layer table.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs every workload shape at a tiny size,
traced and untraced, in a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

from probe import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0
# Set-up-only spawns per run: with 12 the ten-seed spread of setup_s
# reached 0.2, with 36 it was 0.04-0.10.
SETUP_SPAWNS = 36
# Probe CPU seconds per step that setup_s is rescaled to: about the
# probe's speed on the 2-vCPU virtual machine the benchmark was built on.
NOMINAL_STEP_S = 5e-6
# The work layers' self times (tracer.WORK_LAYERS) must cover this share
# of the traced wall.  The rest is verify's and cli's own code: about 4 %
# on num-cg8 (the sampling loop), under 2 % on the symbolic workloads and
# up to 10 % at the smoke sizes, where cli's fixed cost weighs more.
COVERAGE_MIN = 0.85
# Numeric tolerance of the negative controls: the CLI default, which the
# numeric workload uses.
TOLERANCE = 1e-9


@dataclass
class Workload:
    """One fixed certification batch and what its trace must show."""

    argv: list
    reports: int
    n: int
    controls: tuple
    numeric: bool = False
    samples: int = 0
    nonzero: tuple = ()
    zero: tuple = ()

    def cli_argv(self, seed):
        if self.numeric:
            return self.argv + ["--samples", str(self.samples), "--seed", str(seed)]
        return list(self.argv)


SPECTRAL_NONZERO = (
    "scalars.ratfunc_add.cross", "scalars.laurent_mul.term_products",
    "series.expand_in_u.calls", "verify.cybe_spectral.busy_s",
    "verify.aybe.busy_s", "verify.check_lift.busy_s",
)
SPECTRAL_ZERO = ("scalars.evaluate.calls", "verify.numeric_residual.busy_s")
CONSTANT_NONZERO = (
    "scalars.ratfunc_mul.calls", "tensors.mul.calls", "triples.calls",
    "verify.qybe.busy_s", "verify.hecke.busy_s", "verify.lift_obstruction.busy_s",
)
CONSTANT_ZERO = (
    "scalars.ratfunc_add.cross", "series.expand_in_u.calls",
    "scalars.evaluate.calls", "verify.cybe_spectral.busy_s",
)
NUMERIC_NONZERO = (
    "scalars.evaluate.calls", "tensors.mul.calls", "tensors.max_abs.self_s",
    "verify.numeric_residual.busy_s", "verify.numeric.samples",
)
NUMERIC_ZERO = ("series.expand_in_u.calls", "verify.aybe.busy_s", "verify.cybe_spectral.busy_s")
NUMERIC_SUITES = "aybe,unitarity,qybe,hecke,cybe"
CONSTANT_SUITES = "qybe,hecke,obstruction,exponent"


def _verify(n, mode, suites):
    return ["verify", "--n", str(n), "--mode", mode, "--suite", suites]


WORKLOADS = {
    # the whole symbolic suite: spectral CYBE and AYBE over rational functions
    "sym-spectral-n4": Workload(
        _verify(4, "symbolic", "all"), 231, 4, ("cybe_spectral", "aybe"),
        nonzero=SPECTRAL_NONZERO, zero=SPECTRAL_ZERO,
    ),
    # constant quantum identities: same scalar and tensor layers, no denominators
    "sym-constant-n5": Workload(
        _verify(5, "symbolic", CONSTANT_SUITES), 365, 5, ("qybe", "hecke"),
        nonzero=CONSTANT_NONZERO, zero=CONSTANT_ZERO,
    ),
    # seeded complex sampling at n = 8: no exact arithmetic in the residuals
    "num-cg8": Workload(
        _verify(8, "numeric", NUMERIC_SUITES), 25, 8,
        ("aybe", "qybe", "hecke", "cybe_spectral"), numeric=True, samples=20,
        nonzero=NUMERIC_NONZERO, zero=NUMERIC_ZERO,
    ),
}

# Tiny shapes of the same workloads, for the benchmark's own tests.
SMOKE = {
    "sym-spectral-n4": replace(
        WORKLOADS["sym-spectral-n4"], argv=_verify(2, "symbolic", "all"), reports=15, n=2,
    ),
    "sym-constant-n5": replace(
        WORKLOADS["sym-constant-n5"], argv=_verify(3, "symbolic", CONSTANT_SUITES),
        reports=20, n=3,
    ),
    # --bound 3 keeps the trivial+Cremmer-Gervais listing used above n = 6
    "num-cg8": replace(
        WORKLOADS["num-cg8"], argv=_verify(4, "numeric", NUMERIC_SUITES) + ["--bound", "3"],
        reports=15, n=4, samples=2,
    ),
}

END_TO_END = {"wall_ref": "Msteps", "setup_s": "s", "peak_rss_mb": "MB"}


def wall_ref(reply):
    """A call's wall time in millions of speed-probe steps."""
    return reply["wall_s"] / reply["step_s"] / 1e6


class WorkerFailed(Exception):
    """A worker crashed, timed out or answered nonsense."""


def spawn(request, deadline, speed=None):
    """Run one request in a fresh worker; return (reply, set-up seconds).

    With a ``speed`` probe, a verify reply also gets ``step_s``, the
    probe's CPU time per step while the call ran.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, ROOT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready != "ready\n":
            raise WorkerFailed("worker did not start: " + proc.stderr.read()[-2000:])
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        if speed is not None:
            if proc.stdout.readline() != "start\n":
                raise WorkerFailed("worker did not start the call")
            since = speed.read()
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exit {proc.returncode}: {err[-2000:]}")
    try:
        reply = json.loads(out)
    except ValueError as exc:
        raise WorkerFailed(f"unreadable reply: {out[-200:]!r}") from exc
    if speed is not None:
        reply["step_s"] = speed.step_s(since)
    expected = os.path.join(ROOT, "src", "yangbaxter", "__init__.py")
    if reply["package"] != os.path.abspath(expected):
        raise WorkerFailed(f"imported {reply['package']}, not {expected}")
    return reply, setup


def gate(reply, wl):
    """Check one call's output; return (problem or None, stdout digest, document)."""
    text = reply["stdout"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}", digest, None
    try:
        doc = json.loads(text)
    except ValueError:
        return "stdout is not JSON", digest, None
    summary = doc["summary"]
    if summary["passed"] != summary["total"]:
        return f"{summary['total'] - summary['passed']} reports failed", digest, doc
    if summary["total"] != wl.reports:
        return f"{summary['total']} reports, expected {wl.reports}", digest, doc
    for r in doc["reports"]:
        if r["mode"] == "numeric" and not r["max_abs_residual"] < r["tolerance"]:
            return f"{r['identity']} residual {r['max_abs_residual']}", digest, doc
    return None, digest, doc


class Run:
    """One benchmark invocation: its calls, digests and problems."""

    def __init__(self, wl, seed, speed):
        self.wl = wl
        self.seed = seed
        self.speed = speed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()
        self.calls = []  # replies of the calls that passed the gate
        self.doc = None

    def control(self):
        wl = self.wl
        numeric = None
        if wl.numeric:
            numeric = {"samples": wl.samples, "tolerance": TOLERANCE, "seed": self.seed}
        request = {"kind": "control", "n": wl.n, "identities": list(wl.controls),
                   "numeric": numeric}
        try:
            reply, _ = spawn(request, self.deadline)
        except WorkerFailed as exc:
            self.problems.append(f"negative control: {exc}")
            return
        for report in reply["reports"]:
            evidence = report["max_abs_residual"] if wl.numeric else report["witness"]
            if report["result"] != "fail" or evidence is None:
                self.problems.append(
                    f"negative control: perturbed {report['identity']} was not caught"
                )

    def setup_only(self, count):
        """Spawn ``count`` idle workers; return their median set-up time, rescaled."""
        since = self.speed.read()
        setups = []
        for _ in range(count):
            try:
                setups.append(spawn({"kind": "setup"}, self.deadline)[1])
            except WorkerFailed as exc:
                self.problems.append(f"set-up: {exc}")
                return None
        return statistics.median(setups) * NOMINAL_STEP_S / self.speed.step_s(since)

    def call(self, trace=False):
        """One certification; returns the reply if it passed the gate."""
        self.attempted += 1
        request = {"kind": "verify", "argv": self.wl.cli_argv(self.seed), "trace": trace}
        try:
            reply, _ = spawn(request, self.deadline, self.speed)
        except WorkerFailed as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        problem, digest, doc = gate(reply, self.wl)
        self.digests.add(digest)
        if len(self.digests) > 1:
            problem = problem or "stdout differs between calls"
        if problem:
            self.failed += 1
            self.problems.append(problem)
            return None
        self.doc = doc
        if not trace:
            self.calls.append(reply)
        return reply

    def timed_calls(self, seconds, reserve=1.0):
        """Untraced calls until the next one (times ``reserve``) would overrun."""
        begin = time.perf_counter()
        spans = []
        while True:
            t0 = time.perf_counter()
            self.call()
            spans.append(time.perf_counter() - t0)
            used = time.perf_counter() - begin
            if self.failed or used + reserve * statistics.median(spans) > seconds:
                return

    def median(self, key):
        return statistics.median(reply[key] for reply in self.calls)

    def median_wall_ref(self):
        return statistics.median(wall_ref(reply) for reply in self.calls)


def end_to_end(run, seconds):
    run.control()
    setup = run.setup_only(SETUP_SPAWNS)
    run.timed_calls(seconds)
    if not run.calls or setup is None:
        return {}
    values = {
        "wall_ref": run.median_wall_ref(),
        "setup_s": setup,
        "peak_rss_mb": run.median("peak_rss_mb"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def numeric_totals(doc):
    reports = [r for r in doc["reports"] if r["mode"] == "numeric"]
    samples = sum(r["samples"] for r in reports)
    resamples = sum(r["resamples"] for r in reports)
    return {
        "verify.numeric.samples": [samples, "count"],
        "verify.numeric.resamples": [resamples, "count"],
        "verify.numeric.accepted_frac": [
            samples / (samples + resamples) if samples else 0.0, "ratio"],
        "verify.numeric.max_abs_residual": [
            max((r["max_abs_residual"] for r in reports), default=0.0), "abs"],
    }


def declared_per_layer():
    """Names of the per-layer metrics BENCHMARK.json promises."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)["per_layer"]]


def per_layer(run, seconds):
    run.control()
    # leave room for the traced call, which is slower than an untraced one
    run.timed_calls(seconds, reserve=2.5)
    if not run.calls:
        return {}
    traced = run.call(trace=True)
    if traced is None:
        return {}
    table = dict(traced["layers"])
    table.update(numeric_totals(run.doc))
    for key in ("wall_s", "cpu_s", "step_s"):
        table[f"proc.{key}"] = [run.median(key), "s"]
    table["trace.overhead_frac"] = [wall_ref(traced) / run.median_wall_ref() - 1, "ratio"]
    missing = sorted(set(declared_per_layer()) - set(table))
    if missing:
        run.problems.append(f"trace: missing {missing}")
        return {}
    wl = run.wl
    for name in wl.nonzero:
        if not table[name][0]:
            run.problems.append(f"trace: {name} is zero")
    for name in wl.zero:
        if table[name][0]:
            run.problems.append(f"trace: {name} is {table[name][0]}, expected zero")
    coverage = table["trace.coverage"][0]
    if not COVERAGE_MIN <= coverage <= 1.0:
        run.problems.append(f"trace: coverage {coverage}")
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(table.items())}


def execute(wl, seed, seconds, trace):
    """Run one workload on one CPU; return (result document, run)."""
    allowed = os.sched_getaffinity(0)
    # workers and the probe inherit the pinning
    os.sched_setaffinity(0, {max(allowed)})
    try:
        with SpeedProbe() as speed:
            run = Run(wl, seed, speed)
            metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        os.sched_setaffinity(0, allowed)
    correct = bool(metrics) and run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, run


def describe(name, run, trace):
    walls = [round(reply["wall_s"], 4) for reply in run.calls]
    refs = [round(wall_ref(reply), 4) for reply in run.calls]
    digest = next(iter(run.digests)) if len(run.digests) == 1 else "mixed"
    line = (f"{name} trace={int(trace)} calls={len(walls)} walls_s={walls} "
            f"wall_ref={refs} stdout_sha256={digest}")
    return [line] + [f"problem: {p}" for p in run.problems]


def smoke():
    ok = True
    for name, wl in SMOKE.items():
        for trace in (False, True):
            result, run = execute(wl, 1, 0.5, trace)
            ok = ok and result["correct"]
            print("\n".join(describe(name, run, trace)))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "yangbaxter", "cli.py")):
        print(f"error: no src/yangbaxter under {ROOT}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, run = execute(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("\n".join(describe(args.workload, run, args.trace)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
