"""spt.ode against scipy, bit for bit: DOP853 (scipy.integrate._ivp.rk.DOP853)
on complex states stepped forward, with and without a compact layout, and
brentq (scipy.optimize.brentq).  scipy is the oracle here and nowhere in spt."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import DOP853 as ScipyDOP853

from spt import ode


def test_tableau_is_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        ours, theirs = getattr(ode, name), getattr(dop853_coefficients, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(ode, name) == getattr(dop853_coefficients, name)


def _linear(n, complex_state, seed):
    """dy/dt = M y + sin(t) b: a random stable linear system with a source."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
    b = rng.normal(size=n)
    y0 = rng.normal(size=n)
    if complex_state:
        m = m + 1j * rng.normal(size=(n, n))
        y0 = y0 + 1j * rng.normal(size=n)
    return (lambda t, y: m @ y + np.sin(t) * b), y0


def _replay(ours, theirs, to_theirs=lambda y: y):
    """Step both solvers to the end; compare every step, the RHS calls and
    the dense output at a scalar and at an array of times.  Returns scipy's
    (accepted, rejected) tries, inferred from its RHS calls (12 a try)."""
    accepted = rejected = 0
    while theirs.status == "running":
        nfev = theirs.nfev
        assert ours.step() == theirs.step()
        tries = (theirs.nfev - nfev) // 12
        accepted += tries > 0
        rejected += max(tries - 1, 0)
        assert ours.status == theirs.status
        assert (ours.t_old, ours.t) == (theirs.t_old, theirs.t)
        assert to_theirs(ours.y).tobytes() == theirs.y.tobytes()
        ts = np.linspace(theirs.t_old, theirs.t, 7)
        dense_ours, dense_theirs = ours.dense_output(), theirs.dense_output()
        assert ours.nfev == theirs.nfev
        assert to_theirs(dense_ours(ts)).tobytes() == dense_theirs(ts).tobytes()
        assert to_theirs(dense_ours(ts[3])).tobytes() == dense_theirs(ts[3]).tobytes()
    assert (ours.accepted, ours.rejected) == (accepted, rejected)
    return accepted, rejected


@pytest.mark.parametrize("complex_state", [False, True])
@pytest.mark.parametrize("rtol, atol", [(1e-3, 1e-6), (1e-9, 1e-12)])
def test_dop853_equals_scipys(complex_state, rtol, atol):
    # a real y0 is stepped as the complex state y0 + 0j
    fun, y0 = _linear(24, complex_state, seed=7)
    ours = ode.DOP853(fun, 0.0, y0, 12.0, rtol, atol)
    theirs = ScipyDOP853(fun, 0.0, y0.astype(complex), 12.0, rtol=rtol, atol=atol)
    assert ours.nfev == theirs.nfev == 2 and ours.y.dtype == theirs.y.dtype == complex
    accepted, rejected = _replay(ours, theirs)
    assert accepted > 5 and ours.status == "finished"


def test_dop853_rejects_steps_as_scipy_does():
    # a stiff direction makes the first steps fail and shrink
    fun, y0 = _linear(16, True, seed=3)
    stiff = lambda t, y: fun(t, y) - 400.0 * y   # noqa: E731
    ours = ode.DOP853(stiff, 0.0, y0, 2.0, 1e-6, 1e-9)
    theirs = ScipyDOP853(stiff, 0.0, y0, 2.0, rtol=1e-6, atol=1e-9)
    _, rejected = _replay(ours, theirs)
    assert rejected > 0


@pytest.mark.parametrize("complex_state", [False, True])
@pytest.mark.parametrize("n", [160, 170])   # 0 and 10 (mod 16)
def test_compact_dop853_equals_scipys_on_the_full_state(complex_state, n):
    """dy/dt = A y + exp(-4 (t - 5)^2) b, where a third of the entries (none
    of the last four) have zero rows of A, zero b and start at zero, so they
    stay zero: the compact solver steps the rest with the bits of scipy's on
    all n (on y0 + 0j for a real y0)."""
    rng = np.random.default_rng(n)
    keep = np.sort(np.concatenate([rng.choice(n - 4, size=2 * (n - 4) // 3, replace=False),
                                   np.arange(n - 4, n)]))
    held = np.zeros(n, dtype=bool)
    held[keep] = True

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_state else x

    a = 0.3 * (rng.random((n, n)) < 0.05) * draw(n, n) - np.eye(n)
    a[~held] = 0.0
    b = np.where(held, draw(n), 0.0)
    y0 = np.where(held, draw(n), 0.0)

    def full(t, y):
        return a @ y + np.exp(-4.0 * (t - 5.0) ** 2) * b

    layout = ode._CompactLayout.of(keep, n)
    ours = ode.DOP853(lambda t, y: layout.compact(full(t, layout.full(y))), 0.0,
                      layout.compact(y0), 10.0, 1e-9, 1e-13, layout)
    theirs = ScipyDOP853(full, 0.0, y0.astype(complex), 10.0, rtol=1e-9, atol=1e-13)
    assert len(ours.y) < n

    def to_full(y):
        # the compact state, or each column of a dense output, scattered
        if y.ndim == 1:
            return layout.full(y)
        return np.stack([layout.full(column) for column in y.T], axis=1)

    accepted, _ = _replay(ours, theirs, to_full)
    assert accepted > 10


def test_too_small_step_fails_as_scipy_does():
    # a NaN right-hand side after t = 0.5 rejects every try until the step
    # falls below the spacing of the floats around t
    def fun(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    y0 = np.array([1.0 + 0.5j, 2.0 - 1.0j])
    ours = ode.DOP853(fun, 0.0, y0, 3.0, 1e-6, 1e-9)
    theirs = ScipyDOP853(fun, 0.0, y0, 3.0, rtol=1e-6, atol=1e-9)
    while ours.status == "running":
        message = ours.step()
        assert message == theirs.step()
        assert (ours.status, ours.t, ours.nfev) == (theirs.status, theirs.t, theirs.nfev)
    assert ours.status == "failed" and message == ode.TOO_SMALL_STEP
    assert ours.rejected > 10
    with pytest.raises(RuntimeError, match="failed or finished"):
        ours.step()


@pytest.mark.parametrize("rtol", [1e-15, 0.5 * ode.MIN_RTOL, 0.0])
def test_rtol_below_100_eps_is_refused(rtol):
    # scipy warns and runs at 100 eps instead
    with pytest.raises(ValueError, match="rtol must be at least 100 eps"):
        ode.DOP853(lambda t, y: -y, 0.0, np.ones(3), 1.0, rtol, 1e-12)


@pytest.mark.parametrize("y0, match", [
    (np.ones((2, 2)), "1-dimensional"),
    (np.array([1.0, np.inf]), "finite"),
])
def test_bad_initial_state_is_refused(y0, match):
    with pytest.raises(ValueError, match=match):
        ode.DOP853(lambda t, y: -y, 0.0, y0, 1.0, 1e-6, 1e-9)


@pytest.mark.parametrize("t_bound", [2.0, 1.0, np.nan])
def test_span_that_does_not_go_forward_is_refused(t_bound):
    # a zero-length or backward span, which scipy would step
    calls = []
    with pytest.raises(ValueError, match="t_bound must be after t0"):
        ode.DOP853(lambda t, y: calls.append(t) or -y, 2.0, np.ones(2, dtype=complex),
                   t_bound, 1e-6, 1e-9)
    assert calls == []


def test_dense_output_before_a_step_is_refused():
    with pytest.raises(RuntimeError, match="after a successful step"):
        ode.DOP853(lambda t, y: -y, 0.0, np.ones(2), 1.0, 1e-6, 1e-9).dense_output()


def _brackets(n):
    """n seeded (f, a, b, xtol, rtol) cases: smooth functions with a simple,
    a triple or an oscillating root, and some brackets whose end is the root."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(n):
        r = rng.normal()
        a, b = r - 3 * rng.random(), r + 3 * rng.random()
        kind = k % 4
        if kind == 0:
            f = (lambda r, s: lambda x: s * (x - r) * np.exp(0.3 * x))(r, rng.choice([-1, 1]))
        elif kind == 1:
            f = (lambda r: lambda x: (x - r) ** 3 + 0.01 * (x - r))(r)
        elif kind == 2:
            f = (lambda r: lambda x: np.tanh(5 * (x - r)) + 0.1 * np.sin(7 * x) * (x - r))(r)
        else:
            f = (lambda r: lambda x: float(x - r))(r)
            a, b = (r, b) if rng.random() < 0.5 else (a, r)   # an exact zero at one end
        xtol, rtol = ((2e-12, 4 * ode.EPS), (4 * ode.EPS, 4 * ode.EPS), (1e-6, 1e-10))[k % 3]
        cases.append((f, a, b, xtol, rtol))
    return cases


def test_brentq_equals_scipys_on_random_brackets():
    exact_ends = 0
    for f, a, b, xtol, rtol in _brackets(1200):
        theirs = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
        ours = ode.brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert type(ours) is float and ours == theirs
        assert np.float64(ours).tobytes() == np.float64(theirs).tobytes()
        exact_ends += ours in (a, b) and f(ours) == 0
    assert exact_ends > 100


def test_brentq_same_sign_bracket():
    for brentq in (scipy.optimize.brentq, ode.brentq):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 2.0)


def test_brentq_nan_value():
    for brentq in (scipy.optimize.brentq, ode.brentq):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: np.nan if x > 0.3 else x - 1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: np.nan, 0.0, 2.0)


def test_brentq_not_converging():
    for brentq in (scipy.optimize.brentq, ode.brentq):
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            brentq(lambda x: (x - 0.3) ** 3, 0.0, 2.0, maxiter=3)


@pytest.mark.parametrize("kwargs, match", [({"xtol": 0.0}, "xtol too small"),
                                           ({"rtol": ode.EPS}, "rtol too small")])
def test_brentq_tolerances(kwargs, match):
    for brentq in (scipy.optimize.brentq, ode.brentq):
        with pytest.raises(ValueError, match=match):
            brentq(lambda x: x - 0.3, 0.0, 2.0, **kwargs)


_SCIPY_ODE = ("scipy.integrate", "scipy.optimize")


def _scipy_ode_imports(tree, path):
    """(path, line, enclosing function) of each import of scipy.integrate or
    scipy.optimize, or a submodule, in ``tree``, by statement or by a call
    with the module's name (importlib.import_module, __import__)."""
    found = []

    def named(module):
        return any(module == m or module.startswith(m + ".") for m in _SCIPY_ODE)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = False
        if isinstance(node, ast.Import):
            hit = any(named(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            hit = named(node.module) or (node.module == "scipy" and any(
                named(f"scipy.{alias.name}") for alias in node.names))
        elif isinstance(node, ast.Call):
            hit = any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                      and named(arg.value) for arg in node.args)
        if hit:
            found.append((path.name, node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_spt_imports_scipy_ode_modules_only_in_the_solve_ivp_shims():
    # spt.dynamics.solve_ivp imports scipy's on its first call, and stays
    # while perfbench/tracer.py wraps it by name; spt.montecarlo re-exports it
    src = Path(__file__).resolve().parents[1] / "src" / "spt"
    found = [hit for path in sorted(src.glob("*.py"))
             for hit in _scipy_ode_imports(ast.parse(path.read_text()), path)]
    assert [hit for hit in found if hit[::2] != ("dynamics.py", "solve_ivp")] == []
    assert len(found) == 1


def test_the_import_guard_sees_each_form():
    sources = ["import scipy.integrate", "from scipy.optimize import brentq",
               "from scipy import integrate", "import scipy.integrate._ivp.rk as rk",
               "importlib.import_module('scipy.optimize')",
               "def f():\n    from scipy.integrate import DOP853"]
    for source in sources:
        assert len(_scipy_ode_imports(ast.parse(source), Path("x.py"))) == 1, source
    for source in ["import scipy.sparse", "from scipy import sparse", "from .ode import DOP853"]:
        assert _scipy_ode_imports(ast.parse(source), Path("x.py")) == [], source


def _unread_parameters(tree, path):
    """(path, line, function, parameter) of each parameter of a function or
    lambda in ``tree`` that its body never reads.  A name that starts with an
    underscore is unread by design (a callback's fixed signature)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and not p.arg.startswith("_")]
        body = node.body if isinstance(node.body, list) else [node.body]
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in nodes   # x += 1 reads x
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found += [(path.name, node.lineno, getattr(node, "name", "<lambda>"), p)
                  for p in params if p not in read]
    return found


def test_spt_reads_every_parameter_it_takes():
    # an argument that is accepted and then ignored is refused by design
    src = Path(__file__).resolve().parents[1] / "src" / "spt"
    assert [hit for path in sorted(src.glob("*.py"))
            for hit in _unread_parameters(ast.parse(path.read_text()), path)] == []


def test_the_unread_parameter_guard_sees_each_form():
    sources = ["def f(x):\n    return 1", "def f(x, *, y):\n    return x",
               "def f(*args):\n    pass", "def f(**kw):\n    pass",
               "def f(x):\n    x: int = 1", "g = lambda t: 0",
               "class C:\n    def m(self, x):\n        return self",
               "async def f(x, /):\n    pass"]
    for source in sources:
        assert len(_unread_parameters(ast.parse(source), Path("x.py"))) == 1, source
    for source in ["def f(x, *a, y, **k):\n    return x, a, y, k", "g = lambda _t: 0",
                   "def f(x):\n    def h():\n        return x\n    return h",
                   "def f(x, y=None):\n    x += y"]:
        assert _unread_parameters(ast.parse(source), Path("x.py")) == [], source
