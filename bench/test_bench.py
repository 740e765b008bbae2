"""Self-tests of the benchmark harness (not of stiffcal itself).

    python3 -m pytest -q bench/test_bench.py

Smoke runs use ``--size tiny`` so the whole file takes well under a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracer_mod  # noqa: E402
from run import RESULTS, load_spec  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


def _result_file(workload, trace, seed=3):
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} \
        in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_and_repeatable_counters(workload, trace):
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    counters = []
    for _ in range(2):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert [*last["metrics"]] == [m["name"] for m in expected]
        for m in expected:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert all(v["value"] > 0 for v in last["metrics"].values())
        result = _result_file(workload, trace)
        counters.append(result["counters"])
        assert result["provenance"]["seed"] == 3
    assert counters[0] == counters[1]


def test_refuses_to_run_without_sources():
    bare = os.path.join(RESULTS, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("predict_map", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bindings():
    return {(mod.__name__, attr): obj
            for mod in tracer_mod.package_modules()
            for attr, obj in vars(mod).items() if callable(obj)}


def test_tracer_wraps_every_binding_and_restores_them():
    import numpy as np
    from stiffcal import cli, doe, robot, stiffness  # noqa: F401 (loads modules)
    from stiffcal.modelfile import load_model

    before = _bindings()
    model = load_model(os.path.join(HERE, "kr270_like.yaml"))
    t = tracer_mod.Tracer()
    t.install()
    try:
        # the cross-module import of the Jacobian helper is wrapped too
        assert doe._point_jacobian is robot._point_jacobian
        assert doe._point_jacobian is not before[("stiffcal.robot", "_point_jacobian")]
        doe.sensitivity_rows(model, np.zeros(6), [0, 0, -1000.0, 0, 0, 0])
        with pytest.raises(ValueError):
            robot.chain_state(model, np.zeros(5), np.zeros(6))
    finally:
        t.restore()
    assert _bindings() == before
    stats = t.stats()
    assert stats["doe.sensitivity_rows"][0] == 1
    assert stats["robot._point_jacobian"][0] == 4        # tool + 3 markers
    assert stats["robot.chain_state"][0] == 2            # one failed call
    calls, total, self_s = stats["doe.sensitivity_rows"]
    assert 0 < self_s < total
    assert t.n_spans == sum(s[0] for s in stats.values())


def test_speed_probe_samples_inside_operations_and_restores_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sum(t0 < s < t1 for s in probe.starts) >= 1   # a probe ran inside
    net, scaled = probe.measure(t0, t1)
    assert 0 < net < t1 - t0 and scaled > 0
