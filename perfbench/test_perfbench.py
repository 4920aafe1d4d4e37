"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run every workload shape at a tiny size through the real entry
point, so the correctness gate, the negative controls and the tracer
are all exercised in a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, timeout=120
    )


def _run_module():
    sys.path.insert(0, HERE)
    import run

    return run


def test_smoke_passes_gate_controls_and_trace():
    proc = _python(os.path.join(HERE, "run.py"), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "pass"}
    assert "problem:" not in proc.stdout


def test_reported_metrics_match_benchmark_json():
    run = _run_module()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    result, traced = run.execute(run.SMOKE["num-cg8"], 1, 0.1, True)
    assert result["correct"], traced.problems
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(result["metrics"])
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in result["metrics"].items())


def test_tracer_rebinds_from_imported_aliases():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import yangbaxter, yangbaxter.cli\n"
        "from yangbaxter import builders, verify, tensors, scalars\n"
        "from tracer import Tracer\n"
        "original = verify.build_r_ts\n"
        "Tracer().install(yangbaxter)\n"
        "assert verify.build_r_ts is builders.build_r_ts is not original\n"
        "assert tensors.rf is scalars.rf\n"
        "assert yangbaxter.cli.main.__wrapped__ is not None\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_coverage_leaves_out_orchestration_self_time():
    sys.path.insert(0, HERE)
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.module_stats["tensors"].self_s = 3.0
    tracer.module_stats["verify"].self_s = 0.5
    tracer.module_stats["cli"].self_s = 0.5
    assert layer_metrics(tracer, 4.0)["trace.coverage"][0] == 0.75


def test_gate_rejects_wrong_report_count():
    run = _run_module()
    wl = run.SMOKE["sym-constant-n5"]
    doc = {"summary": {"total": wl.reports - 1, "passed": wl.reports - 1}, "reports": []}
    reply = {"rc": 0, "stdout": json.dumps(doc)}
    problem, _, _ = run.gate(reply, wl)
    assert problem is not None and "expected" in problem


def test_speed_probe_counts_steps_and_stops():
    sys.path.insert(0, HERE)
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        since = probe.read()
        assert probe.step_s(since) > 0
        pid = probe.pid
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("probe still running")


def test_refuses_to_run_without_the_package(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero, print nothing."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "num-cg8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
