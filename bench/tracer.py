"""Outside-in span tracer for the ``stiffcal`` package.

The tracer swaps every module-level function of the ``stiffcal`` modules
for a timing wrapper, at every ``stiffcal.*`` module attribute that binds
it, so calls that cross module boundaries (``doe`` calling
``robot._point_jacobian`` through its own import, say) are caught as well
as calls from outside the package.  Nothing inside ``src/`` changes.

Each call becomes a span ``(id, parent, op, name, start_ns, end_ns)``;
spans stay in memory until :meth:`Tracer.write`.  Per-function call
counts, total time and self time (total minus the time of child spans)
are accumulated as the spans close.  Hooks read the return values of a
few functions to count deterministic work (solver iterations, optimizer
evaluations, records, regressor rows, CI samples).
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "stiffcal"


def _count(key: str, value: Callable) -> Callable:
    def hook(counters: Dict[str, float], result) -> None:
        counters[key] += value(result)
    return hook


def _solver_hook(counters: Dict[str, float], state) -> None:
    counters["stiffness.solve_equilibrium.iterations"] += state.iterations
    counters["stiffness.solve_equilibrium.converged"] += bool(state.converged)


# every counter a hook can write, so a run without those calls reports zeros
COUNTERS = ("stiffness.solve_equilibrium.iterations",
            "stiffness.solve_equilibrium.converged", "doe.n_evaluations",
            "sim.records", "elasto_id.regressor_rows", "elasto_id.ci_samples",
            "geometry_id.ci_samples")


# function name -> hook run on its return value
HOOKS: Dict[str, Callable] = {
    "stiffness.solve_equilibrium": _solver_hook,
    "doe.optimize_plan": _count("doe.n_evaluations", lambda r: r.n_evaluations),
    "sim.simulate_deflection_records": _count("sim.records", len),
    "elasto_id.build_regressor": _count("elasto_id.regressor_rows",
                                        lambda r: r[0].shape[0]),
    "elasto_id.confidence_intervals_elasto": _count("elasto_id.ci_samples",
                                                    lambda r: r.n_samples),
    "geometry_id.confidence_intervals_geometry": _count("geometry_id.ci_samples",
                                                        lambda r: r.n_samples),
}


def package_modules() -> List[types.ModuleType]:
    """Imported ``stiffcal`` modules, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _span_name(fn: types.FunctionType) -> str:
    return f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__qualname__}"


def package_functions() -> Dict[types.FunctionType, List[Tuple[types.ModuleType, str]]]:
    """Every package function and the module attributes that bind it."""
    out: Dict[types.FunctionType, List[Tuple[types.ModuleType, str]]] = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(PACKAGE + ".")):
                out.setdefault(obj, []).append((mod, attr))
    return out


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`restore`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.counters: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.op = 0                  # id shared by the spans of one operation
        self._spans = array("q")     # flat (id, parent, op, name, start, end)
        self._stack: List[list] = []
        self._next_id = 0
        self._t0 = time.perf_counter_ns()
        self._saved: List[Tuple[types.ModuleType, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: types.FunctionType, idx: int,
              hook: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.total_ns[idx] += dur
                tracer.self_ns[idx] += dur - frame[1]
                tracer._spans.extend((sid, parent, tracer.op, idx,
                                      t0 - tracer._t0, t1 - tracer._t0))
            if hook is not None:
                hook(tracer.counters, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for fn, sites in package_functions().items():
            if getattr(fn, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"{_span_name(fn)} is already traced")
            name = _span_name(fn)
            idx = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            wrapper = self._wrap(fn, idx, HOOKS.get(name))
            for mod, attr in sites:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total_s, self_s) for every wrapped function."""
        return {n: (self.calls[i], self.total_ns[i] * 1e-9, self.self_ns[i] * 1e-9)
                for i, n in enumerate(self.names)}

    @property
    def n_spans(self) -> int:
        return len(self._spans) // 6

    def write(self, path: str) -> None:
        """Spans as JSON: names table plus one row per span (times in ns)."""
        s = self._spans
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],\n')
            fh.write(f' "names": {json.dumps(self.names)},\n "spans": [\n')
            for k in range(0, len(s), 6):
                sep = ",\n" if k + 6 < len(s) else "\n"
                fh.write(f"  [{s[k]},{s[k + 1]},{s[k + 2]},{s[k + 3]},"
                         f"{s[k + 4]},{s[k + 5]}]{sep}")
            fh.write("]}\n")
