import dataclasses
import pathlib

import numpy as np
import pytest

from stiffcal import load_model

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def model_path():
    return ROOT / "configs" / "kr270_like.yaml"


@pytest.fixture(scope="session")
def model(model_path):
    return load_model(model_path)


@pytest.fixture(scope="session")
def mirrored_model_path(model_path, tmp_path_factory):
    """The reference model file with ``q2_sign: -1``: a controller that
    counts joint 2 opposite to the compensator linkage."""
    path = tmp_path_factory.mktemp("mirrored") / "kr270_mirrored.yaml"
    path.write_text(model_path.read_text() + "  q2_sign: -1\n")
    return path


@pytest.fixture(scope="session")
def mirrored(mirrored_model_path):
    return load_model(mirrored_model_path)


@pytest.fixture(scope="session")
def weightless(model):
    """The model with ``gravity: [0, 0, 0]``: a weightless arm, whose only
    load is the tool wrench."""
    return dataclasses.replace(model, gravity=np.zeros(3))


@pytest.fixture(scope="session")
def table1_path():
    return ROOT / "data" / "table1.csv"


@pytest.fixture
def rng_calls(monkeypatch):
    """The arguments of each ``np.random.default_rng`` call made from here on."""
    calls, real = [], np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines even under capture."""
    lines = getattr(config, "_criterion_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
