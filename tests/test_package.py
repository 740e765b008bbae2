"""The package's exported names and the repository's CI workflow."""
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
