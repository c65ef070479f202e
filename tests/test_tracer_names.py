"""The names perfbench/tracer.py wraps must exist on spt.

The tracer replaces each listed function by name, so a renamed or deleted one
would stop a traced benchmark run (``--trace 1``) with an AttributeError.  The
lists are read from the tracer's source; nothing is installed.
"""

import ast
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

import spt.cli  # noqa: F401  (the tracer wraps after importing spt.cli)
import spt.dynamics
import spt.hilbert
import spt.montecarlo

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
