"""Start-up cost: importing bridgelab, training, verifying and scoring load no scipy.

bridgelab needs numpy alone at run time. Importing its CLI loads neither
concurrent.futures, which no command uses, nor the statistics module, which
only `verify` uses. The checks run in a fresh interpreter, because the test
modules import scipy themselves. Every name in `bridgelab.__all__` must also
be bound on the package.
"""

import json
import os
import subprocess
import sys

import pytest

import bridgelab

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(bridgelab.__file__)))

_SCRIPT = """
import contextlib, io, json, sys, tempfile

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {}
import bridgelab
loaded["import bridgelab"] = scipy_modules()
from bridgelab.cli import main
loaded["import bridgelab.cli"] = scipy_modules()
executor = [name for name in ("concurrent.futures", "logging") if name in sys.modules]
statistics = [name for name in ("statistics", "fractions", "decimal") if name in sys.modules]
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    train = main(["train", "--steps", "5", "--batch-size", "4", "--hidden", "4",
                  "--seed", "0", "--out-dir", out])
    loaded["train"] = scipy_modules()
    verify = main(["verify", "--suite", "all", "--mc", "1000"])
    loaded["verify --suite all"] = scipy_modules()
    sample = main(["sample", "--oracle", "--N", "4", "--runs", "8", "--seed", "0",
                   "--out-dir", out])
    loaded["sample"] = scipy_modules()
import numpy as np
from bridgelab.tasks import energy_distance
distance = energy_distance(np.array([[0.0], [1.0]]), np.array([[0.0], [3.0]]))
loaded["energy_distance"] = scipy_modules()
print(json.dumps({"loaded": loaded, "executor": executor, "statistics": statistics,
                  "exits": [train, verify, sample], "distance": distance}))
"""


@pytest.fixture(scope="module")
def fresh_process() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "stage",
    [
        "import bridgelab",
        "import bridgelab.cli",
        "train",
        "verify --suite all",
        "sample",
        "energy_distance",
    ],
)
def test_stage_loads_no_scipy(fresh_process, stage):
    assert fresh_process["loaded"][stage] == []


def test_cli_import_loads_no_executor(fresh_process):
    """Importing the CLI loads neither concurrent.futures nor the logging it
    imports: `verify` runs its worker on a plain thread."""
    assert fresh_process["executor"] == []


def test_cli_import_loads_no_statistics(fresh_process):
    """`verify`'s bridge suite imports statistics (and with it fractions and
    decimal) for its goodness-of-fit bin edges, on first use."""
    assert fresh_process["statistics"] == []


def test_commands_succeeded(fresh_process):
    assert fresh_process["exits"] == [0, 0, 0]


def test_energy_distance_exact_without_scipy(fresh_process):
    """2 E|a-b| - E|a-a'| - E|b-b'| for a = {0, 1}, b = {0, 3}: 2*1.5 - 0.5 - 1.5."""
    assert fresh_process["distance"] == 1.0


@pytest.mark.parametrize("name", bridgelab.__all__)
def test_public_name_resolves(name):
    """Every exported name is bound on the package, so a stale export fails here."""
    assert hasattr(bridgelab, name)
