"""The package's exported names, the repository's CI workflow and the
functions its benchmark times."""
import importlib
import json
import os
import re
import types

import yaml

import stiffcal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_names_resolve_and_none_is_a_module():
    """``from stiffcal import *`` binds the package's classes, functions and
    constants, not its submodules, which stay reachable as attributes."""
    exec("from stiffcal import *", {})    # raises on an entry that does not resolve
    modules = [name for name in stiffcal.__all__
               if isinstance(getattr(stiffcal, name), types.ModuleType)]
    assert modules == []
    assert isinstance(stiffcal.robot, types.ModuleType)


def test_every_script_the_workflow_runs_exists():
    """Each ``scripts/...`` or ``bench/...`` path named in a workflow step's
    ``run:`` is a file of the repository."""
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        workflow = yaml.safe_load(fh)
    runs = [step["run"] for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]
    paths = {path for run in runs
             for path in re.findall(r"(?<![\w/.-])(?:scripts|bench)/[\w./-]+", run)}
    assert {"scripts/ci_summary.sh", "scripts/readme_block.sh"} <= paths
    missing = sorted(p for p in paths if not os.path.isfile(os.path.join(ROOT, p)))
    assert missing == []


def test_bench_layer_functions_exist():
    """Each per-layer metric of ``BENCHMARK.json`` that times a function
    (``<module>.<function>.calls``, ``.total_s`` or ``.self_s``) names a
    function of ``stiffcal``: the traced bench run looks each one up by name,
    so a function that is gone would stop it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        layers = [m["name"] for m in json.load(fh)["per_layer"]]
    timed = sorted({name.rpartition(".")[0] for name in layers
                    if name.rpartition(".")[2] in ("calls", "total_s", "self_s")})
    assert timed
    missing = []
    for name in timed:
        module, _, function = name.rpartition(".")
        fn = getattr(importlib.import_module(f"stiffcal.{module}"), function, None)
        if not isinstance(fn, types.FunctionType):
            missing.append(name)
    assert missing == []
