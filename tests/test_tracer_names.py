"""The names perfbench/tracer.py wraps must exist on spt, and count what runs.

The tracer replaces each listed function by name, so a renamed or deleted one
would stop a traced benchmark run (``--trace 1``) with an AttributeError.  The
lists are read from the tracer's source; nothing is installed.  One smoke test
installs the tracer in a subprocess and checks that it still sees every
trajectory and the exact norm evaluations, which it would not if an ensemble
stopped calling run_trajectory through the montecarlo module, or the jump loop
stopped calling EigenPropagator.norm_sq.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

import spt.cli  # noqa: F401  (the tracer wraps after importing spt.cli)
import spt.dynamics
import spt.hilbert
import spt.montecarlo

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _literal(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


_FUNCTIONS = [(layer, name) for layer, names in _literal("_FUNCTIONS").items()
              for name in names]


@pytest.mark.parametrize("layer, name", _FUNCTIONS, ids=[f"{l}.{n}" for l, n in _FUNCTIONS])
def test_wrapped_function_exists(layer, name):
    assert callable(getattr(sys.modules[f"spt.{layer}"], name))


@pytest.mark.parametrize("name", _literal("_HILBERT_METHODS"))
def test_wrapped_hilbert_method_exists(name):
    assert callable(getattr(spt.hilbert.HilbertSpace, name))


@pytest.mark.parametrize("name", _literal("_LU_FUNCTIONS"))
def test_wrapped_lu_function_exists(name):
    assert callable(getattr(spla, name))


def test_ode_and_norm_hooks_exist():
    assert callable(spt.dynamics.solve_ivp)
    assert callable(spt.montecarlo.solve_ivp)
    assert callable(spt.montecarlo.EigenPropagator.norm_sq)


# one metrics line after each command: a 3-trajectory avalanche ensemble, then a
# 2-trajectory dark-count ensemble at A/g2 = 10, where bursts open and close
_SMOKE = """
import json
import spt.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
for argv in (
        ["trajectories", "--g1", "0.25", "--omega", "2", "--kappa2", "1", "--n1", "1",
         "--n2", "6", "--n-traj", "3", "--duration", "200", "--seed", "1", "--threads", "1",
         "-o", "traj.json"],
        ["dark-counts", "--g1", "0.2", "--omega", "2", "--kappa2", "0.1",
         "--anharmonicity", "10", "--trajectories", "2", "--duration", "2000",
         "--t-end", "300", "--seed", "1", "--threads", "1", "-o", "dark.csv"]):
    assert spt.cli.main(argv) == 0
    print(json.dumps(tracer.metrics(1, 0)))
"""


def test_traced_run_counts_every_trajectory(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", _SMOKE], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    after_traj, after_dark = (json.loads(line) for line in run.stdout.splitlines())
    assert after_traj["montecarlo.trajectories"] == 3
    assert after_traj["montecarlo.jumps"] > 0
    assert after_dark["montecarlo.trajectories"] == 3 + 2
    assert after_dark["montecarlo.jumps"] > after_traj["montecarlo.jumps"]
    # every jump that the eigen path finds takes at least one exact evaluation, counted
    # only while the jump loop calls EigenPropagator.norm_sq
    for after in (after_traj, after_dark):
        assert after["montecarlo.norm_evals"] >= after["montecarlo.jumps"] > 0
