"""Run one benchmark workload of ``stiffcal`` and print its metrics.

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0

``--trace 0`` times operations untraced for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
operations untraced and then traced (outside-in wrappers, see
``tracer.py``) and reports the per-layer metrics, per operation, plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result (provenance, counters, checks, timing summary) is written to
``bench/results/``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()   # set-up time counts from here, before any import

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:      # single-threaded BLAS, set before numpy loads
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
MIN_OPS = 3
# Claims of a gain are re-checked on this seed; do not tune against it.
HELD_OUT_SEED = 20131127


def _fail(msg: str) -> "NoReturn":
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the set-up time, exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    """HEAD of the checkout, read from .git without running git (or None)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "stiffcal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args, params) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:       # layout of show_config differs across numpy versions
        blas = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "size": args.size,
        "params": params,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# measurement


def timed_op(wl, i: int):
    """One operation: its outcome, start and end (observation untimed)."""
    t0 = time.perf_counter()
    try:
        raw = wl.op(i)
    except Exception as exc:   # a failed operation is counted, not fatal
        t1 = time.perf_counter()
        from workloads import Outcome
        return Outcome(key=i % wl.unit, counters={}, digest="",
                       problems=[f"{type(exc).__name__}: {exc}"]), t0, t1
    t1 = time.perf_counter()
    return wl.observe(i, raw), t0, t1


def run_phase(wl, budget_s: float, min_ops: int, whole_units: bool):
    """Run operations for about ``budget_s``.

    Returns (outcomes, (start, end) of each operation, elapsed).  Another
    operation (or unit of ``wl.unit`` operations) starts only while it is
    expected to end within the budget, judged from the median so far.
    """
    outcomes, spans = [], []
    step = wl.unit if whole_units else 1
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(step):
            outcome, t0, t1 = timed_op(wl, i)
            outcomes.append(outcome)
            spans.append((t0, t1))
            i += 1
        elapsed = time.perf_counter() - start
        per_step = statistics.median(t1 - t0 for t0, t1 in spans) * step
        if len(spans) >= min_ops and elapsed + per_step > budget_s:
            return outcomes, spans, elapsed


def verify_all(wl, outcomes) -> None:
    for o in outcomes:
        if o.raw is not None and not o.problems:
            wl.verify(o)
        o.raw = None


def check_repeats(outcomes, reference=None):
    """Operations with the same key must give the same counters and payload."""
    first = dict(reference or {})
    for o in outcomes:
        if o.problems:
            continue
        seen = first.setdefault(o.key, (o.counters, o.digest))
        if seen != (o.counters, o.digest):
            o.problems.append("counters or payload differ from an earlier "
                              "operation on the same input")
    return first


def tail_summary(times):
    """Median plus the highest percentile with at least 10 samples beyond it."""
    n = len(times)
    ms = sorted(t * 1e3 for t in times)
    out = {"n": n, "median_ms": statistics.median(ms),
           "min_ms": ms[0], "max_ms": ms[-1]}
    for p in (99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(ms, n=100, method="inclusive")
            out["tail_pct"] = p
            out["tail_ms"] = cuts[int(p) - 1]
            break
    return out


def setup_probe_times(args, n: int):
    """Set-up time of ``n`` fresh processes (import, inputs, warm-up)."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--size={args.size}", "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def layer_metrics(spec, tracer, n_ops: int, overhead_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics of ``spec``, per operation, from a finished trace."""
    stats = tracer.stats()
    counters = {k: v / n_ops for k, v in tracer.counters.items()}
    solves = stats["stiffness.solve_equilibrium"][0]
    counters["stiffness.solve_equilibrium.converged_ratio"] = (
        tracer.counters["stiffness.solve_equilibrium.converged"] / solves
        if solves else 0.0)
    counters["trace.overhead_s"] = overhead_s
    counters["trace.overhead_pct"] = 100.0 * overhead_s / untraced_s
    stat_index = {"calls": 0, "total_s": 1, "self_s": 2}
    out = {}
    for m in spec["per_layer"]:
        func, _, stat = m["name"].rpartition(".")
        if stat in stat_index:
            value = stats[func][stat_index[stat]] / n_ops
        else:
            value = counters[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "stiffcal", "__init__.py")):
        _fail(f"no stiffcal sources under {SRC}; run from a full checkout")
    spec = load_spec()
    args = _parse_args(argv, spec)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import SIZES, WORKLOADS

    workdir = os.path.join(RESULTS, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        wl.warm_up()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"provenance": provenance(args, SIZES[args.workload][args.size])}
        if args.trace:
            summary, outcomes = _traced(args, spec, wl)
        else:
            summary, outcomes = _untraced(args, spec, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in outcomes if o.problems)
    problems = sorted({p for o in outcomes for p in o.problems})
    result.update({
        "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
        "fail_ratio": failed / len(outcomes), "problems": problems,
        "counters": outcomes[0].counters, "quality": wl.summary(outcomes),
    })
    result.update(summary)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, m in result["metrics"].items():
        print(f"{name:50s} {m['value']:14.6g} {m['unit']}")
    for key, val in sorted(result["quality"].items()):
        print(f"{'quality.' + key:50s} {val:14.6g}")
    if "timing" in result:
        t = result["timing"]
        print(f"{'op_wall_median_ms (unscaled)':50s} {t['median_ms']:14.6g} ms  (n={t['n']})")
        if "tail_ms" in t["scaled"]:
            print(f"{'op_p%g_ms' % t['scaled']['tail_pct']:50s} "
                  f"{t['scaled']['tail_ms']:14.6g} ms  (n={t['n']})")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": len(outcomes),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def _untraced(args, spec, wl, setup_s):
    setups = [setup_s] + setup_probe_times(args, 4)
    from speed import SpeedProbe
    with SpeedProbe() as probe:
        outcomes, spans, _ = run_phase(wl, args.seconds, MIN_OPS, whole_units=False)
    times, scaled = zip(*(probe.measure(t0, t1) for t0, t1 in spans))
    verify_all(wl, outcomes)
    check_repeats(outcomes)
    timing = tail_summary(times)
    timing["scaled"] = tail_summary(scaled)
    values = {
        "op_median_ms": timing["scaled"]["median_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return {"metrics": metrics, "timing": timing, "setup_samples_s": setups}, outcomes


def _traced(args, spec, wl):
    from tracer import Tracer
    plain, spans, plain_s = run_phase(wl, args.seconds / 2, 1, whole_units=True)
    plain_times = [t1 - t0 for t0, t1 in spans]
    n_ops = len(plain)
    tracer = Tracer()
    traced, traced_times = [], []
    tracer.install()
    try:
        start = time.perf_counter()
        for i in range(n_ops):
            tracer.op = i
            outcome, t0, t1 = timed_op(wl, i)
            traced.append(outcome)
            traced_times.append(t1 - t0)
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()
    verify_all(wl, plain)
    verify_all(wl, traced)
    reference = check_repeats(plain)
    check_repeats(traced, reference)     # tracing must not change the work
    overhead = (sum(traced_times) - sum(plain_times)) / n_ops
    metrics = layer_metrics(spec, tracer, n_ops, overhead, sum(plain_times) / n_ops)
    os.makedirs(RESULTS, exist_ok=True)
    trace_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.trace.json")
    tracer.write(trace_path)
    stats = tracer.stats()
    top = sorted(stats.items(), key=lambda kv: -kv[1][2])[:10]
    return {"metrics": metrics, "trace_file": os.path.relpath(trace_path, ROOT),
            "spans": tracer.n_spans, "ops_per_phase": n_ops,
            "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
            "top_self_s_per_op": [[k, v[2] / n_ops] for k, v in top],
            "layer_stats_per_op": {k: {"calls": v[0] / n_ops, "total_s": v[1] / n_ops,
                                       "self_s": v[2] / n_ops}
                                   for k, v in stats.items() if v[0]}}, plain + traced


if __name__ == "__main__":
    sys.exit(main())
