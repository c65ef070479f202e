"""Deterministic open-system propagation.

Lindblad master equation with adaptive integration; steady states and exact
time-integrated observables by one factorized trace-fixed solver of the
Liouvillian (one LU, many solves); steady-state reflection under weak
coherent drive, its kappa1 points over a fork pool; the single-photon-input
matrix-element hierarchy, its absorbed fraction solved in a forked child
alongside; and the gain and bandwidth, the gain as one resolvent solve with
no time integration.

Vectorization is row-major: vec(A rho B) = (A kron B^T) vec(rho).

Every ODE is stepped by ``ode.DOP853``, scipy's DOP853 bit for bit, so no
route of this module loads scipy.integrate.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import ode
from .effective import UndefinedRateError, setting_rate
from .hilbert import HilbertSpec, HilbertSpace, build_space
from .model import (DecoherenceParams, SystemParams, collapse_set, hamiltonian_ideal,
                    nonhermitian)
from .ode import _CompactLayout


class SteadyStateError(RuntimeError):
    """Raised when the Liouvillian null-space solve fails."""


# ---------------------------------------------------------------------------
# independent points over a fork pool
# ---------------------------------------------------------------------------

_FORK_FN = None   # the mapped function, set in each pool worker by _fork_init
# the plain OpenBLAS name, then those of the copies scipy's and numpy's wheels bundle
_BLAS_THREAD_GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                        "scipy_openblas_get_num_threads64_")


def _fork_init(fn) -> None:
    global _FORK_FN
    _FORK_FN = fn


def _fork_call(index: int):
    return _FORK_FN(index)


def _blas_threads() -> int:
    """The most threads any OpenBLAS loaded in this process runs, 1 if none.

    numpy and scipy each bundle a copy of their own, found here through
    /proc/self/maps; where that file does not exist this returns 1.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return 1
    most = 1
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                most = max(most, getter())
                break
    return most


def pool_workers(threads: int | None) -> int:
    """``threads``; when None, the CPUs this process may run on over the BLAS
    threads each worker would start, at least 1 and at most 8.

    A worker per CPU, each with a BLAS thread per CPU (OpenBLAS's default),
    loses most of its time to the BLAS threads' spin-waits: on 2 cores, five
    (2,8) reflection points took 56 s over two such workers against 8 s in
    one process.  ValueError when ``threads`` is below 1.
    """
    if threads is None:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:   # no affinity call on this platform
            usable = os.cpu_count() or 1
        return min(max(1, usable // _blas_threads()), 8)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


def _in_pool_worker() -> bool:
    """True in a daemonic process, such as a pool worker, which may not fork."""
    process = sys.modules.get("multiprocessing.process")   # not imported: not a worker
    return process is not None and process.current_process().daemon


def _fork_pool(workers: int, fn):
    """The fork pool of ``fork_map`` and ``fork_call``: ``workers`` processes
    that inherit ``fn`` and everything it refers to, so only the indices and
    the results are pickled.  Leaving its ``with`` block ends the workers."""
    import multiprocessing as mp

    return mp.get_context("fork").Pool(workers, _fork_init, (fn,))


def fork_map(fn, n: int, threads: int | None = None) -> list:
    """[fn(0), ..., fn(n - 1)], in index order.

    Serial at one worker (``pool_workers(threads)``) and in a pool worker;
    otherwise over ``_fork_pool``.  A worker's exception reaches the caller
    with its type unchanged.
    """
    workers = pool_workers(threads)
    if workers == 1 or n < 2 or _in_pool_worker():
        return [fn(i) for i in range(n)]
    with _fork_pool(min(workers, n), fn) as pool:
        return pool.map(_fork_call, range(n), chunksize=max(1, n // (4 * workers)))


@contextlib.contextmanager
def fork_call(fn):
    """Run ``fn()`` in one forked child while the ``with`` block runs here.

    Yields ``collect``: ``collect()`` waits for and returns ``fn()``'s value,
    and re-raises its exception with the type unchanged.  Serial, ``fn()``
    called by ``collect``, when ``pool_workers(None)`` is 1 or in a pool
    worker.  The child has ended when the block is left, by a return or a
    raise.
    """
    if pool_workers(None) < 2 or _in_pool_worker():
        yield fn
        return
    with _fork_pool(1, lambda _: fn()) as pool:
        yield pool.apply_async(_fork_call, (0,)).get


# ---------------------------------------------------------------------------
# pulses and time series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseSpec:
    """L2-normalized Gaussian single-photon envelope.

    sigma is the spectral width; the temporal width is tau = 1/(2 sigma).
    """

    sigma: float
    center_time: float = 0.0

    def __post_init__(self):
        for name in ("sigma", "center_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        # below the normal floats the envelope underflows while remaining_norm does
        # not; a float's ** would raise where the square overflows, so * checks it
        if not np.finfo(float).tiny <= self.sigma * self.sigma < math.inf:
            raise ValueError(f"sigma^2 must be finite and a normal float, got sigma = {self.sigma}")
        # gaussian_pulse's prefactor and exponent factor, computed as it did per call
        object.__setattr__(self, "_amplitude", (2.0 * self.sigma**2 / np.pi) ** 0.25)
        object.__setattr__(self, "_rate", -(self.sigma**2))

    @property
    def tau(self) -> float:
        return 1.0 / (2.0 * self.sigma)

    @classmethod
    def from_tau(cls, tau: float, center_time: float = 0.0) -> "PulseSpec":
        return cls(sigma=1.0 / (2.0 * tau), center_time=center_time)

    def remaining_norm(self, t: float) -> float:
        """Integral of |amplitude|^2 from t to infinity."""
        u = self.sigma * (t - self.center_time)
        return 0.5 * math.erfc(u * math.sqrt(2.0))


def gaussian_pulse(spec: PulseSpec, t) -> np.ndarray:
    """alpha_in(t) = (2 sigma^2 / pi)^(1/4) exp(-sigma^2 (t - t0)^2).

    A float ``t``, as an ODE right-hand side passes, skips the array
    conversion: the same operations on the same scalar types, so the same
    bits as a 0-d array.  On an array, numpy squares by x*x, and a scalar's
    ``** 2`` is C ``pow``, which rounds differently for about 1 t in 1000.
    """
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
    return spec._amplitude * np.exp(spec._rate * (t - spec.center_time) ** 2)


@dataclass
class TimeSeries:
    times: np.ndarray
    channels: dict = field(default_factory=dict)   # name -> ndarray


# ---------------------------------------------------------------------------
# Liouvillian machinery
# ---------------------------------------------------------------------------

def liouvillian(h: np.ndarray, collapses: dict) -> sparse.csr_matrix:
    """Sparse Lindblad generator acting on row-major vectorized density matrices."""
    dim = h.shape[0]
    eye = sparse.identity(dim, format="csr")
    hs = sparse.csr_matrix(h)
    lv = -1j * (sparse.kron(hs, eye) - sparse.kron(eye, hs.T))
    for c in collapses.values():
        cs = sparse.csr_matrix(c)
        cdc = (cs.conj().T @ cs).tocsr()
        lv = lv + sparse.kron(cs, cs.conj())
        lv = lv - 0.5 * (sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T))
    return lv.tocsr()


class TraceFixedSolver:
    """One sparse LU of the trace-fixed Liouvillian, shared by many solves.

    The first row of L is replaced by the trace functional, which makes the
    matrix regular when zero is a simple eigenvalue of L (unique steady
    state).  The factorization is made once; every solve reuses it.

    The matrix is assembled on a canonical CSR copy of ``lv`` (any sparse
    format): its row 0 becomes the ``dim`` trace entries, rows 1... stay as
    they are.  ValueError unless ``lv`` is (dim^2, dim^2).

    With ``keep``, sorted vec indices holding entry 0 (else ValueError), it
    factors L[keep][:, keep], row 0 the trace over the kept diagonal.  That is
    exact when ``keep`` is closed under L's sparsity graph (L is then
    block-triangular on keep and the rest) and holds the right-hand sides.
    Residuals are taken with the full ``lv``, so weight off ``keep`` is refused.

    ``resolvent`` raises SteadyStateError when ||A^-1 1||_inf max|A_ij|, a
    lower bound on A's condition (at most 1.7e6 in the tests, scripts and
    benchmark), exceeds 1e12: the steady state is not unique.  ``steady_state``
    then returns one member, enough for what all share (the g1 = 0 reflection).
    """

    def __init__(self, lv: sparse.spmatrix, dim: int, keep: np.ndarray | None = None):
        n = dim * dim
        if lv.shape != (n, n):
            raise ValueError(f"a dim-{dim} Liouvillian is {n} x {n}, got {lv.shape}")
        csr = sparse.csr_matrix(lv, copy=True)
        csr.sum_duplicates()
        self._keep, diag = slice(None), np.arange(dim) * (dim + 1)   # the entries solved for
        if keep is not None:
            if not (len(keep) and keep[0] == 0 and np.all(np.diff(keep) > 0)):
                raise ValueError("keep must be sorted vec indices that hold entry 0")
            csr, self._keep = csr[keep][:, keep], keep
            diag = np.flatnonzero(keep % (dim + 1) == 0)   # r dim + c = c - r mod (dim + 1)
        start = csr.indptr[1]
        a = sparse.csr_matrix(
            (np.concatenate([np.ones(len(diag), dtype=csr.dtype), csr.data[start:]]),
             np.concatenate([diag, csr.indices[start:]]),
             np.concatenate([[0], csr.indptr[1:] - start + len(diag)])), shape=csr.shape)
        self._scale = abs(a.data).max()   # max|A_ij|, taken before the LU's memory
        try:
            self._lu = spla.splu(a.tocsc())
        except RuntimeError as exc:  # singular factorization
            raise SteadyStateError(f"trace-fixed factorization failed: {exc}") from exc
        self.lv = lv
        self.dim = dim

    def steady_state(self) -> np.ndarray:
        """Trace-one null vector of L, symmetrized; residual at most 1e-8."""
        b = np.zeros(self.dim * self.dim, dtype=complex)
        b[0] = 1.0
        x = np.zeros_like(b)
        x[self._keep] = self._lu.solve(b[self._keep])
        resid = np.linalg.norm(self.lv @ x)
        if not np.isfinite(resid) or resid > 1e-8:
            raise SteadyStateError(f"steady-state residual {resid:.3g} too large")
        rho = x.reshape(self.dim, self.dim)
        return 0.5 * (rho + rho.conj().T)

    def resolvent(self, rhs: np.ndarray) -> np.ndarray:
        """Vectorized X with L X = rhs and tr X = 0; relative residual at most 1e-7.

        rhs must be traceless (it lies in the range of L).
        """
        rhs = np.asarray(rhs).reshape(-1)
        b = rhs.astype(complex)
        b[0] = 0.0
        x = np.zeros_like(b)
        x[self._keep] = self._lu.solve(b[self._keep])
        resid = np.linalg.norm(self.lv @ x - rhs)
        scale = max(np.linalg.norm(b), 1.0)
        if not np.isfinite(resid) or resid / scale > 1e-7:
            raise SteadyStateError(f"resolvent residual {resid / scale:.3g} too large")
        cond = abs(self._lu.solve(np.ones_like(b[self._keep]))).max() * self._scale
        if not cond <= 1e12:
            raise SteadyStateError(f"condition >= {cond:.3g}: the steady state is not unique")
        return x


def _expectation(observable: np.ndarray, x: np.ndarray) -> float:
    return float(np.real(np.vdot(observable.conj().reshape(-1), x)))


def steady_state(lv: sparse.csr_matrix, dim: int) -> np.ndarray:
    """Trace-one null vector of the Liouvillian via a direct sparse solve."""
    return TraceFixedSolver(lv, dim).steady_state()


def integrated_observable(
    lv: sparse.csr_matrix,
    rho0: np.ndarray,
    rho_inf: np.ndarray,
    observable: np.ndarray,
    keep: np.ndarray,
) -> float:
    """Exact integral_0^inf tr[O (rho(t) - rho_inf)] dt by a resolvent solve.

    Solves L X = rho_inf - rho0 with tr X = 0; requires zero to be a simple
    eigenvalue of L (unique steady state).  It factors L only on ``keep``,
    sorted vec indices holding entry 0, closed under L's sparsity graph and
    holding rho0 and rho_inf (``TraceFixedSolver``): for the pulse tail the
    (0,0) and (1,1) blocks of the excitation number Q (``_hierarchy_support``),
    1210 of 4356 at (1,10).
    """
    x = TraceFixedSolver(lv, rho0.shape[0], keep).resolvent(rho_inf - rho0)
    return _expectation(observable, x)


# ---------------------------------------------------------------------------
# Lindblad propagation
# ---------------------------------------------------------------------------

def _top_layer_projectors(space: HilbertSpace):
    """Diagonals of the projectors onto n1 = N1 and onto n2 = N2 (zero for a
    cavity truncated at 0)."""
    n1, n2 = space.spec.n1_max, space.spec.n2_max
    top1 = np.kron(np.ones(3), np.kron(np.eye(n1 + 1)[n1] * (n1 > 0), np.ones(n2 + 1)))
    top2 = np.kron(np.ones(3 * (n1 + 1)), np.eye(n2 + 1)[n2] * (n2 > 0))
    return top1, top2


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call; unused, kept
    while perfbench/tracer.py wraps it by name."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _check_grid(t_grid: np.ndarray, tol: float) -> None:
    """ValueError unless ``t_grid`` holds at least two points, finite and
    strictly increasing, and 100 eps <= ``tol`` < 1."""
    if t_grid.size < 2 or not np.all(np.isfinite(t_grid)):
        # one point is refused too: a zero-length span takes no step
        raise ValueError("t_grid must hold at least two points, all finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if not ode.MIN_RTOL <= tol < 1:
        raise ValueError(f"tol must be in [100 eps, 1) = [{ode.MIN_RTOL:.4g}, 1), got {tol!r}")


def _grid_solve(fun, t_grid: np.ndarray, y0: np.ndarray, rtol: float, atol: float, take,
                rows=slice(None), what: str = "ODE", layout: _CompactLayout | None = None,
                ) -> tuple[int, tuple[int, int]]:
    """``solve_ivp(fun, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid, method="DOP853")``
    replayed step for step, handing ``rows`` of y on the grid to ``take`` as
    they are reached; returns (nfev, (accepted, rejected) steps).  After each
    step the grid points i..j-1 up to its end (side="right") are read from its
    dense output, as solve_ivp does, and ``take(i, ys)`` gets them, with
    ys[:, m] = y(t_grid[i + m])[rows]: every bit is solve_ivp's.  Nothing of
    the grid is kept here; the caller keeps or reduces what it needs.

    With a ``layout``, ``fun`` and ``y0`` live on its compact state and
    ``rows`` index it; ``ode.DOP853`` steps it with the bits of the full
    state's solve_ivp (at one BLAS thread; see ``single_photon_response``).

    ValueError unless the grid holds at least two points, finite and strictly
    increasing, and 100 eps <= ``rtol`` < 1 (the ``tol`` of the callers).
    """
    _check_grid(t_grid, rtol)
    solver = ode.DOP853(fun, float(t_grid[0]), y0, float(t_grid[-1]), rtol, atol, layout)
    i = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"{what} integration failed: {message}")
        j = np.searchsorted(t_grid, solver.t, side="right")
        if j > i:
            take(i, solver.dense_output()(t_grid[i:j])[rows])
            i = j
    return solver.nfev, (solver.accepted, solver.rejected)


def lindblad_propagate(
    h: np.ndarray,
    collapses: dict,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    tol: float = 1e-8,
    expectations: dict | None = None,
    space: HilbertSpace | None = None,
) -> tuple[TimeSeries, np.ndarray]:
    """Integrate the Lindblad master equation and return expectation channels.

    Adaptive explicit Runge-Kutta (DOP853) with relative tolerance ``tol``.
    The density matrix is symmetrized at every output time; trace drift and
    top-Fock-layer population are monitored.  ValueError for a ``t_grid`` of
    fewer than two points, non-finite or not strictly increasing, or ``tol``
    outside [100 eps, 1).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dim = rho0.shape[0]
    lv = liouvillian(h, collapses)
    y0 = rho0.reshape(-1).astype(complex)
    ys = np.empty((len(y0), len(t_grid)), dtype=complex)

    def take(i, values):
        ys[:, i:i + values.shape[1]] = values

    _grid_solve(lambda _t, y: lv @ y, t_grid, y0, tol, tol * 1e-4, take, what="Lindblad")

    rhos = ys.T.reshape(len(t_grid), dim, dim)
    rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))

    traces = np.einsum("tii->t", rhos).real
    if np.max(np.abs(traces - traces[0])) > 1e-6:
        warnings.warn(f"trace drift {np.max(np.abs(traces - traces[0])):.3g} exceeds 1e-6",
                      stacklevel=2)

    channels = {"trace": traces}
    if expectations:
        for name, op in expectations.items():
            channels[name] = np.einsum("ij,tji->t", op, rhos).real
    if space is not None:
        top1, top2 = _top_layer_projectors(space)
        pops = np.einsum("tii->ti", rhos).real
        channels["top_layer_n1"] = pops @ top1
        channels["top_layer_n2"] = pops @ top2
        if channels["top_layer_n2"].max() > 1e-3 or channels["top_layer_n1"].max() > 1e-3:
            warnings.warn("top Fock layer population exceeds 1e-3: increase truncation",
                          stacklevel=2)
    ts = TimeSeries(times=t_grid, channels=channels)
    return ts, rhos[-1]


# ---------------------------------------------------------------------------
# steady-state reflection
# ---------------------------------------------------------------------------

def steady_state_reflection(
    params: SystemParams,
    spec: HilbertSpec = HilbertSpec(2, 8),
    decoherence: DecoherenceParams | None = None,
) -> float:
    """|r1|^2 at the input port for a weak cw coherent drive.

    The drive enters as H_d = eps (a1^dag + a1); with the input-output
    convention a_out = -a_in + sqrt(kappa1) a1 the matching input amplitude is
    a_in = -i eps / sqrt(kappa1), so an empty cavity reflects unity.  One
    solve at eps = 0.01 kappa1 is inside the linear-response regime, where
    the n1 truncation error stays negligible.  No coupling, jump or dephasing
    term raises n1 + P(qutrit not in g), so in the steady state the drive
    replaces what kappa1 removes: kappa1 n1 <= 2 eps |<a1>| <= 2 eps sqrt(n1),
    hence n1 <= 4 (eps / kappa1)^2 = 4e-4 at every kappa1 and decoherence.
    """
    if params.kappa1 <= 0:
        raise ValueError("steady_state_reflection requires kappa1 > 0")
    space = build_space(spec)
    a1 = space.annihilation("cavity1")
    amp = 0.01 * params.kappa1
    lv = liouvillian(hamiltonian_ideal(params, space) + amp * (a1 + a1.conj().T),
                     collapse_set(params, decoherence, space))
    rho = steady_state(lv, space.dim)

    a_in = -1j * amp / np.sqrt(params.kappa1)
    a_out = -a_in + np.sqrt(params.kappa1) * np.trace(a1 @ rho)
    return float(np.abs(a_out / a_in) ** 2)


def reflection_sweep(
    params: SystemParams,
    kappa1_grid,
    spec: HilbertSpec = HilbertSpec(2, 8),
    decoherence: DecoherenceParams | None = None,
    threads: int | None = None,
) -> np.ndarray:
    """``steady_state_reflection`` at each kappa1 of the grid.

    The points are independent, one LU each, and run over ``fork_map``'s pool
    of ``threads`` workers; each does the arithmetic of a serial call, so the
    values are the same for any worker count.
    """
    grid = [float(k1) for k1 in kappa1_grid]
    return np.array(fork_map(
        lambda i: steady_state_reflection(params.replace(kappa1=grid[i]), spec=spec,
                                          decoherence=decoherence),
        len(grid), threads))


# ---------------------------------------------------------------------------
# single-photon response (Fock-input master-equation hierarchy)
# ---------------------------------------------------------------------------

@dataclass
class SinglePhotonResult:
    series: TimeSeries
    absorbed_fraction: float
    gain: float                  # total N_out,2 including the resolvent tail
    n_out1: float                # photons returned to port 1 on the grid
    final_rho: np.ndarray
    rhs_evals: int = 0           # right-hand-side calls of the hierarchy and absorption solves
    steps: tuple = (0, 0)        # accepted and rejected steps of the hierarchy solve
    top_layer_peak: float = 0.0  # largest rho_11 population in the top n2 layer on the grid


def _first_click_absorption(
    h_nh: np.ndarray,
    c1: np.ndarray,
    sqrt_k1: float,
    g00: np.ndarray,
    i_g10: int,
    pulse: PulseSpec,
    t_span: tuple,
    tol: float,
) -> tuple[float, int]:
    """(absorbed fraction, RHS calls); absorbed = 1 - P(first quantum click is
    a port-1 photon).

    The unnormalized no-jump state under the pulse source feeds the
    first-click channel probabilities; the port-1 jump operator carries the
    not-yet-arrived photon displacement xi(t)|g,0,0>, so prompt reflection
    interferes away at impedance matching.
    """
    dim = h_nh.shape[0]

    def rhs(t, y):
        psi = y[:dim]
        xi = float(gaussian_pulse(pulse, t))
        dpsi = -1j * (h_nh @ psi)
        dpsi[i_g10] -= sqrt_k1 * xi
        v1 = c1 @ psi + xi * g00
        return np.concatenate([dpsi, [np.real(np.vdot(v1, v1))]])

    solver = ode.DOP853(rhs, float(t_span[0]), np.zeros(dim + 1, dtype=complex),
                        float(t_span[1]), tol, tol * 1e-3)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"no-jump absorption integration failed: {message}")
    return 1.0 - float(np.real(solver.y[dim])), solver.nfev


def _hierarchy_support(space: HilbertSpace):
    """(col, src, sup): the |g,0,0> column of rho_10 as indices into vec rho_10,
    the places where the rho_11 source can be nonzero (dim x dim, boolean),
    and the rho_11 support as sorted indices into vec rho_11; every other
    entry of the hierarchy state stays exactly zero.  The ideal H keeps the
    excitation number Q (``HilbertSpace.excitations``) and no jump raises it,
    so the column x lives at Q = 1, the source s + s^dag, s = [a1^dag,
    |g,0,0><x|], on row g,1,0 at Q = 1, row g,0,0 at Q = 0 and their
    transposes, and rho_11 on the (0,0) and (1,1) blocks of Q (where g1 or
    omega is 0, some of those entries are never reached and stay zero)."""
    dim = space.dim
    q = space.excitations()
    i_g00 = space.index("g", 0, 0)
    src = np.zeros((dim, dim), dtype=bool)
    src[space.index("g", 1, 0), q == 1] = True
    src[i_g00, q == 0] = True
    src |= src.T
    return np.arange(dim) * dim + i_g00, src, space.sector_blocks()


def _hierarchy_rhs(lv: sparse.csr_matrix, space: HilbertSpace, kappa1: float,
                   pulse: PulseSpec, support: tuple, layout: _CompactLayout):
    """Hierarchy right-hand side on the compact ``layout`` of the state
    [vec rho_10, vec rho_11] (see ``single_photon_response``).

    Evolves only the |g,0,0> column of rho_10, and rho_11 only on its support,
    both from ``_hierarchy_support``, by one block-diagonal CSR product
    lv_col + lv_sup whose rows keep the per-row entry order of ``lv``; the
    sources are added only at their places, each a gather of x times a real
    weight that rounds as the dense commutator's one nonzero term does, so
    each sum matches the full-block product bit for bit.  The product holds
    no -0.0 (CSR sums start at +0.0), so the zeros no longer added leave
    every bit as it was.
    """
    dim = space.dim
    nf = dim * dim
    i_g00 = space.index("g", 0, 0)
    i_g10 = space.index("g", 1, 0)
    a1d = space.annihilation("cavity1").conj().T
    col, src, sup = support
    lv_col = lv[col][:, col]
    lv_sup = lv[sup][:, sup]
    # compact places of the evolved entries; increasing, so lv_held's rows
    # take the data of lv_col and lv_sup in order
    held = layout.positions(np.concatenate([col, nf + sup]))
    at_col, at_sup = held[:dim], held[dim:]
    lengths = np.zeros(len(layout.slots), dtype=np.intp)
    lengths[held] = np.concatenate([np.diff(lv_col.indptr), np.diff(lv_sup.indptr)])
    lv_held = sparse.csr_matrix(
        (np.concatenate([lv_col.data, lv_sup.data]),
         held[np.concatenate([lv_col.indices, dim + lv_sup.indices])],
         np.concatenate([[0], np.cumsum(lengths)])), shape=(len(lengths),) * 2)
    msk = -np.sqrt(kappa1)
    # the rho_10 source -sqrt(kappa1) [a1^dag, rho_00] = -sqrt(kappa1) |g,1,0><g,0,0|
    at_g10 = at_col[i_g10]
    a, b = np.nonzero(src)
    at = at_sup[np.searchsorted(sup, a * dim + b)]   # the source's places
    # rho_01 = |g,0,0><x|, so s = [a1^dag, rho_01] has row g,1,0 = xbar, row
    # g,0,0 = -xbar a1^dag, and s + s^dag at (a, b) is s[a, b] + conj(s[b, a]).
    # a1^dag has at most one entry c_k in column k, at row r_k, so
    # (-xbar a1^dag)_k = conj(x_{r_k}) (-c_k), rounded as the dense product
    # rounds its one nonzero term.  Each place then reads x at one entry
    # times a real weight: 1, -c_k, or 0 off both rows.
    r = np.abs(a1d).argmax(axis=0)
    c = a1d[r, np.arange(dim)].real

    def weighted(p, q):
        """(compact place of x, weight) of s[p, q]."""
        row = np.where(p == i_g10, q, r[q])
        w = np.where(p == i_g10, 1.0, np.where(p == i_g00, -c[q], 0.0))
        return at_col[row], w

    from_ab, w_ab = weighted(a, b)
    from_ba, w_ba = weighted(b, a)

    def rhs(t, y):
        xi = float(gaussian_pulse(pulse, t))
        dy = lv_held @ y
        dy[at_g10] += xi * msk
        v = y[from_ab].conj()
        v *= w_ab
        v += y[from_ba] * w_ba
        dy[at] += msk * xi * v
        return dy

    return rhs


def single_photon_response(
    params: SystemParams,
    pulse: PulseSpec,
    t_grid: np.ndarray,
    spec: HilbertSpec = HilbertSpec(1, 10),
    decoherence: DecoherenceParams | None = None,
    tol: float = 1e-8,
) -> SinglePhotonResult:
    """Propagate the single-photon-input matrix-element system.

    The standard Lindblad superoperator acts on the two-block hierarchy
    (rho_11, rho_10); the prescribed input enters only through source terms
    proportional to the pulse amplitude:

        d rho_10 = L rho_10 - sqrt(kappa1) xi(t) [a1^dag, rho_00]
        d rho_11 = L rho_11 - sqrt(kappa1) (xi(t) [a1^dag, rho_01] + h.c.)

    with rho_00 = |g,0,0><g,0,0| stationary.  Outputs: I_in1 = |xi|^2,
    I_out2 = kappa2 <n2>, port-1 flux, and the total gain N_out2 (the
    post-grid emission tail is added by an exact resolvent solve).

    |g,0,0> is dark: H and every collapse operator annihilate it (checked;
    ValueError otherwise).  So rho_00 is stationary and rho_10 = |x(t)><g,0,0|
    exactly, and the right-hand side evolves only that column (dim entries,
    not dim^2), and rho_11 only on the (0,0) and (1,1) blocks of the
    excitation number Q (1210 of 4356 at (1,10); ``_hierarchy_support``).
    ``ode.DOP853`` steps only those 1276 of the 2 dim^2 = 8712 entries, as a
    compact state (its ``_CompactLayout``).  No grid of states is stored:
    the points each step reaches are rebuilt into full rho_10 and rho_11
    blocks and reduced at once, by per-time-point einsums whose bits do not
    depend on how many points a step hands over, into output channels
    allocated once for the whole grid.  Three rules
    give the compact state the bits, steps and RHS calls of stepping all
    2 dim^2 entries:

    * the error norm is taken over the full length: the compact err5/scale
      and err3/scale are scattered into full-length zeros, because numpy's
      norm sums by position;
    * the initial step is chosen from the full y0 and the scattered f0, and
      its RHS call is counted as before;
    * the layout (``_CompactLayout``) keeps OpenBLAS's zgemv tail rows: the
      evolved entries in full-index order, zero-padded to a multiple of 16,
      then the last (2 dim^2 mod 16) full entries.

    Bit identity with the full-length route holds at one BLAS thread.  With
    two, OpenBLAS splits the stage sums' rows in half, and at odd dim the
    halves' tails fall on different entries: (2,6) then differs by about
    5e-15 relative (same steps).  Every CLI spec is (1, N2), whose dim 6 (N2 + 1)
    is even; each one checked also matched at two threads.

    ValueError for a ``t_grid`` of fewer than two points, non-finite or not
    strictly increasing, or ``tol`` outside [100 eps, 1).

    Diagnostics (written to no artifact): ``rhs_evals``, the right-hand-side
    calls of the hierarchy and absorption solves, wherever the absorption
    ran; ``steps``, the accepted and rejected hierarchy steps; and
    ``top_layer_peak``, the largest rho_11 population of the top n2 layer on
    the grid.  Above 1e-3 the truncation is too small for the outputs, and a
    UserWarning says so.

    The absorbed fraction is the probability that the first quantum click is
    not a port-1 photon, computed from the deterministic no-jump evolution
    (``_first_click_absorption``); windowed port-1 flux cannot be used because
    the recovery stage of each completed duty cycle re-emits one photon
    through port 1 during the pulse.  That solve reads only H_NH, the port-1
    operator and the pulse, and the hierarchy reads nothing of it, so it runs
    in one forked child (``fork_call``) from as soon as its inputs exist,
    while this process builds the Liouvillian and steps the hierarchy; its
    value and RHS count are collected at the end.  It runs here instead,
    after the hierarchy, when ``pool_workers(None)`` is 1 (OpenBLAS at its
    default thread count on 2 cores) or in a pool worker.  Either way every
    output bit is the same: each solve is the same arithmetic in one process
    or two.
    """
    if pulse.tau * params.kappa1 < 1.0:
        warnings.warn("pulse shorter than 1/kappa1: absorption will be inefficient",
                      stacklevel=2)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_grid(t_grid, tol)
    space = build_space(spec)
    h = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    i_g00 = space.index("g", 0, 0)
    if np.any(h[:, i_g00]) or any(np.any(c[:, i_g00]) for c in cols.values()):
        raise ValueError("single_photon_response needs a dark |g,0,0>: "
                         "H or a collapse operator does not annihilate it")
    absorption = functools.partial(
        _first_click_absorption, nonhermitian(h, cols), cols["kappa1"],
        np.sqrt(params.kappa1), space.basis_state("g", 0, 0), space.index("g", 1, 0),
        pulse, (t_grid[0], t_grid[-1]), max(tol, 1e-9))
    with fork_call(absorption) as collect_absorption:
        lv = liouvillian(h, cols)
        dim = space.dim
        a1 = space.annihilation("cavity1")
        a2 = space.annihilation("cavity2")
        n2op = a2.conj().T @ a2
        rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
        nf = dim * dim
        support = _hierarchy_support(space)
        keep = np.concatenate([support[0], nf + support[2]])   # every other entry stays 0
        layout = _CompactLayout.of(keep, 2 * nf)
        rhs = _hierarchy_rhs(lv, space, params.kappa1, pulse, support, layout)

        obs = {"n2": n2op, "n1": a1.conj().T @ a1,
               "top": np.diag(_top_layer_projectors(space)[1]),
               **{f"pop_{level}": space.qutrit_projector(level) for level in ("g", "e", "f")}}
        out = {name: np.empty(len(t_grid)) for name in ("trace", *obs)}
        out["a1_rho10"] = np.empty(len(t_grid), dtype=complex)
        last = None

        def take(i, ys):
            """Reduce grid points i, i+1, ... into ``out`` at [i:i + points]."""
            nonlocal last
            at = slice(i, i + ys.shape[1])
            rho10 = np.zeros((ys.shape[1], nf), dtype=complex)
            rho10[:, support[0]] = ys[:len(support[0])].T
            out["a1_rho10"][at] = np.einsum("ij,tji->t", a1, rho10.reshape(-1, dim, dim))
            raw = np.zeros((ys.shape[1], nf), dtype=complex)
            raw[:, support[2]] = ys[len(support[0]):].T
            raw = raw.reshape(-1, dim, dim)
            rho11 = np.conj(np.swapaxes(raw, 1, 2), order="C")
            rho11 += raw
            rho11 *= 0.5
            out["trace"][at] = np.einsum("tii->t", rho11).real
            for name, op in obs.items():
                out[name][at] = np.einsum("ij,tji->t", op, rho11).real
            last = rho11[-1]

        y0 = np.zeros(2 * nf, dtype=complex)
        y0[nf:] = rho00.reshape(-1)
        nfev, steps = _grid_solve(rhs, t_grid, layout.compact(y0), tol, tol * 1e-4, take,
                                  layout.positions(keep), "single-photon", layout)
        final_rho = last.copy()

        drift = np.max(np.abs(out["trace"] - 1.0))
        if drift > 1e-3:
            raise RuntimeError(f"single-photon norm bookkeeping drift {drift:.3g} > 1e-3")
        if out["top"].max() > 1e-3:
            warnings.warn("top Fock layer population exceeds 1e-3: increase truncation",
                          stacklevel=2)

        xi_t = gaussian_pulse(pulse, t_grid)
        i_in1 = xi_t**2
        i_out2 = params.kappa2 * out["n2"]
        i_out1 = i_in1 + params.kappa1 * out["n1"] + 2.0 * np.sqrt(params.kappa1) * np.real(
            xi_t * np.conj(out["a1_rho10"])
        )
        i_out1 = np.clip(i_out1, 0.0, None)

        gain_grid = float(np.trapezoid(i_out2, t_grid))
        gain_tail = params.kappa2 * integrated_observable(lv, final_rho, rho00, n2op, support[2])
        absorbed, absorption_evals = collect_absorption()

    series = TimeSeries(
        times=t_grid,
        channels={
            "I_in1": i_in1,
            "I_out1": i_out1,
            "I_out2": i_out2,
            "n1": out["n1"],
            **{name: out[name] for name in ("pop_g", "pop_e", "pop_f")},
        },
    )
    return SinglePhotonResult(
        series=series,
        absorbed_fraction=absorbed,
        gain=gain_grid + gain_tail,
        n_out1=float(np.trapezoid(i_out1, t_grid)),
        final_rho=final_rho,
        rhs_evals=nfev + absorption_evals,
        steps=steps,
        top_layer_peak=float(out["top"].max()),
    )


# ---------------------------------------------------------------------------
# gain and bandwidth
# ---------------------------------------------------------------------------

@dataclass
class GainResult:
    gain: float
    bandwidth: float             # impedance-matched kappa1 = Gamma_set
    refinement: float            # ||dx|| / ||x|| of the refinement step


def gain_and_bandwidth(
    params: SystemParams,
    decoherence: DecoherenceParams | None = None,
    n2_trunc: int = 10,
) -> GainResult:
    """Gain and detection bandwidth of the transistor.

    Bandwidth is the impedance-matched input coupling kappa1 = Gamma_set
    (numeric inversion at the same cavity-2 truncation).  Gain is
    N_out2 = integral_0^inf kappa2 <n2> dt for the master equation started in
    |e,0,0> with the kappa1 recovery channel open.  It is exact, with no time
    integration: one trace-fixed LU of the Liouvillian gives the steady state
    rho_inf and the resolvent X with L X = rho_inf - rho0, and
    N_out2 = kappa2 tr[n2 X] (the steady state holds no cavity-2 photon).
    The space is (1, n2_trunc): |e,0,0> has excitation number Q = 1, which no
    term raises, so a larger N1 adds only states the gain never reaches, and
    L is factored on the (0,0) and (1,1) blocks of Q only (``sector_blocks``).
    One refinement step, its residual from the full L, takes the gain to
    within 5e-13 of exact (``refinement`` = ||dx|| / ||x||).  UndefinedRateError
    when Gamma_set is undefined or 0: with kappa1 = 0 nothing brings the
    qutrit back to g, and the steady state is not unique.
    """
    gamma_set = setting_rate(params, n2_trunc=n2_trunc).value
    if gamma_set == 0:
        raise UndefinedRateError("the gain is taken at kappa1 = Gamma_set, and Gamma_set = 0 here")
    p = params.replace(kappa1=gamma_set)
    space = build_space(HilbertSpec(1, n2_trunc))
    h = hamiltonian_ideal(p, space)
    cols = collapse_set(p, decoherence, space)
    solver = TraceFixedSolver(liouvillian(h, cols), space.dim, space.sector_blocks())
    a2 = space.annihilation("cavity2")
    psi0 = space.basis_state("e", 0, 0)
    rhs = (solver.steady_state() - np.outer(psi0, psi0.conj())).reshape(-1)
    x = solver.resolvent(rhs)
    dx = solver.resolvent(solver.lv @ x - rhs)
    x -= dx
    return GainResult(gain=params.kappa2 * _expectation(a2.conj().T @ a2, x), bandwidth=gamma_set,
                      refinement=float(np.linalg.norm(dx) / np.linalg.norm(x)))


def gain_resolvent(
    params: SystemParams,
    decoherence: DecoherenceParams | None = None,
    n2_trunc: int = 10,
) -> float:
    """The gain alone: ``gain_and_bandwidth(...).gain``; unused, kept while
    perfbench/tracer.py wraps it by name."""
    return gain_and_bandwidth(params, decoherence, n2_trunc).gain
