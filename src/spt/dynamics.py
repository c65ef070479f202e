"""Deterministic open-system propagation.

Lindblad master equation with adaptive integration; steady states and exact
time-integrated observables by one factorized trace-fixed solver of the
Liouvillian (one LU, many solves); steady-state reflection under weak
coherent drive; the single-photon-input matrix-element hierarchy; and the
gain and bandwidth, the gain as one resolvent solve with no time integration.

Vectorization is row-major: vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.integrate import DOP853, solve_ivp

from .effective import setting_rate
from .hilbert import HilbertSpec, HilbertSpace, build_space
from .model import CollapseSet, DecoherenceParams, SystemParams, collapse_set, hamiltonian_ideal


class SteadyStateError(RuntimeError):
    """Raised when the Liouvillian null-space solve fails."""


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
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")

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
    """alpha_in(t) = (2 sigma^2 / pi)^(1/4) exp(-sigma^2 (t - t0)^2)."""
    t = np.asarray(t, dtype=float)
    return (2.0 * spec.sigma**2 / np.pi) ** 0.25 * np.exp(
        -(spec.sigma**2) * (t - spec.center_time) ** 2
    )


@dataclass
class TimeSeries:
    times: np.ndarray
    channels: dict = field(default_factory=dict)   # name -> ndarray
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Write the series to ``path``, or to stdout when it is None or '-'."""
        names = list(self.channels)
        with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
              else open(path, "w", encoding="utf-8", newline="\n")) as fh:
            for key, val in self.metadata.items():
                fh.write(f"# {key}={val}\n")
            fh.write(",".join(["time"] + names) + "\n")
            cols = [self.times] + [np.asarray(self.channels[n]) for n in names]
            for row in zip(*cols):
                fh.write(",".join("%.12g" % float(np.real(x)) for x in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        metadata, rows, names = {}, [], None
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    metadata[key.strip()] = val
                elif names is None:
                    names = line.split(",")
                else:
                    rows.append([float(x) for x in line.split(",")])
        data = np.array(rows)
        channels = {n: data[:, i + 1] for i, n in enumerate(names[1:])}
        return cls(times=data[:, 0], channels=channels, metadata=metadata)


# ---------------------------------------------------------------------------
# Liouvillian machinery
# ---------------------------------------------------------------------------

def liouvillian(h: np.ndarray, collapses: CollapseSet) -> sparse.csr_matrix:
    """Sparse Lindblad generator acting on row-major vectorized density matrices."""
    dim = h.shape[0]
    eye = sparse.identity(dim, format="csr")
    hs = sparse.csr_matrix(h)
    lv = -1j * (sparse.kron(hs, eye) - sparse.kron(eye, hs.T))
    for c in collapses.matrices():
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
    """

    def __init__(self, lv: sparse.csr_matrix, dim: int):
        a = lv.tolil(copy=True)
        trace_row = np.zeros(dim * dim)
        trace_row[:: dim + 1] = 1.0
        a[0, :] = trace_row
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
        x = self._lu.solve(b)
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
        x = self._lu.solve(b)
        resid = np.linalg.norm(self.lv @ x - rhs)
        scale = max(np.linalg.norm(b), 1.0)
        if not np.isfinite(resid) or resid / scale > 1e-7:
            raise SteadyStateError(f"resolvent residual {resid / scale:.3g} too large")
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
) -> float:
    """Exact integral_0^inf tr[O (rho(t) - rho_inf)] dt by a resolvent solve.

    Solves L X = rho_inf - rho0 with tr X = 0; requires zero to be a simple
    eigenvalue of L (unique steady state).
    """
    x = TraceFixedSolver(lv, rho0.shape[0]).resolvent(rho_inf - rho0)
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


def _grid_solve(fun, t_grid: np.ndarray, y0: np.ndarray, rtol: float, atol: float,
                rows=slice(None), what: str = "ODE") -> tuple[np.ndarray, int, tuple[int, int]]:
    """``solve_ivp(fun, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid, method="DOP853")``
    replayed step for step, storing only ``rows`` of y: (ys, nfev, (accepted,
    rejected) steps) with ys[:, k] = y(t_grid[k])[rows].  After each step the
    grid points up to its end (side="right") are read from its dense output, as
    solve_ivp does, so every stored bit is solve_ivp's.
    """
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    solver = DOP853(fun, float(t_grid[0]), y0, float(t_grid[-1]), rtol=rtol, atol=atol)
    ys = np.empty((len(solver.y[rows]), len(t_grid)), dtype=solver.y.dtype)
    i = accepted = rejected = 0
    while solver.status == "running":
        nfev = solver.nfev
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"{what} integration failed: {message}")
        tries = (solver.nfev - nfev) // solver.n_stages   # DOP853 calls the RHS 12 times a try
        accepted += tries > 0
        rejected += max(tries - 1, 0)
        j = np.searchsorted(t_grid, solver.t, side="right")
        if j > i:
            ys[:, i:j] = solver.dense_output()(t_grid[i:j])[rows]
            i = j
    return ys, solver.nfev, (accepted, rejected)


def lindblad_propagate(
    h: np.ndarray,
    collapses: CollapseSet,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    tol: float = 1e-8,
    expectations: dict | None = None,
    space: HilbertSpace | None = None,
) -> tuple[TimeSeries, np.ndarray]:
    """Integrate the Lindblad master equation and return expectation channels.

    Adaptive explicit Runge-Kutta (DOP853) with relative tolerance ``tol``.
    The density matrix is symmetrized at every output time; trace drift and
    top-Fock-layer population are monitored.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dim = rho0.shape[0]
    lv = liouvillian(h, collapses)
    y0 = rho0.reshape(-1).astype(complex)
    ys, _, _ = _grid_solve(lambda _t, y: lv @ y, t_grid, y0, tol, tol * 1e-4, what="Lindblad")

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
    drive_amp: float | None = None,
    spec: HilbertSpec = HilbertSpec(2, 8),
    decoherence: DecoherenceParams | None = None,
) -> float:
    """|r1|^2 at the input port for a weak cw coherent drive.

    The drive enters as H_d = drive_amp (a1^dag + a1); with the input-output
    convention a_out = -a_in + sqrt(kappa1) a1 the matching input amplitude is
    a_in = -i drive_amp / sqrt(kappa1), so an empty cavity reflects unity.
    The drive is halved automatically until the steady cavity-1 occupation is
    below 1e-2 (linear-response regime); the default amplitude sits well below
    that bound so the n1 truncation error stays negligible.
    """
    if params.kappa1 <= 0:
        raise ValueError("steady_state_reflection requires kappa1 > 0")
    space = build_space(spec)
    h0 = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    a1 = space.annihilation("cavity1")
    n1 = a1.conj().T @ a1

    amp = drive_amp if drive_amp is not None else 0.01 * params.kappa1
    for _ in range(40):
        lv = liouvillian(h0 + amp * (a1 + a1.conj().T), cols)
        rho = steady_state(lv, space.dim)
        if np.real(np.trace(n1 @ rho)) < 1e-2:
            break
        amp *= 0.5
    else:
        raise SteadyStateError("could not reach the weak-drive regime")

    a_in = -1j * amp / np.sqrt(params.kappa1)
    a_out = -a_in + np.sqrt(params.kappa1) * np.trace(a1 @ rho)
    return float(np.abs(a_out / a_in) ** 2)


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

    y0 = np.zeros(dim + 1, dtype=complex)
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tol, atol=tol * 1e-3)
    if not sol.success:
        raise RuntimeError(f"no-jump absorption integration failed: {sol.message}")
    return 1.0 - float(np.real(sol.y[dim, -1])), sol.nfev


def _support(lv: sparse.csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the boolean ``seeds`` in the sparsity
    graph of ``lv`` (j -> i where lv[i, j] is stored)."""
    pattern = sparse.csr_matrix((np.ones(lv.nnz), lv.indices, lv.indptr), shape=lv.shape)
    reach = seeds.copy()
    while True:
        grown = reach | (pattern @ reach.astype(float) > 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _hierarchy_support(lv: sparse.csr_matrix, space: HilbertSpace):
    """(col, src, sup): the |g,0,0> column of rho_10 as indices into vec rho_10,
    the places where the rho_11 source can be nonzero (dim x dim, boolean) on
    the rows and columns g,1,0 and g,0,0, and the rho_11 support: the sorted
    indices into vec rho_11 reachable from rho_00 and those places in the
    sparsity graph of L (jump terms included).  Every other entry of the
    hierarchy state stays exactly zero."""
    dim = space.dim
    i_g00 = space.index("g", 0, 0)
    i_g10 = space.index("g", 1, 0)
    a1d = space.annihilation("cavity1").conj().T
    col = np.arange(dim) * dim + i_g00
    # x = the rho_10 column lives on the states reachable from g,1,0, and
    # s = [a1^dag, rho_01] with rho_01 = |g,0,0><x| on rows g,1,0 (x's states)
    # and g,0,0 (a1 x's states); the source s + s^dag sits there and on the
    # transposed places, rho_00 at (g,0,0; g,0,0)
    on_x = _support(lv[col][:, col], np.arange(dim) == i_g10)
    src = np.zeros((dim, dim), dtype=bool)
    src[i_g10, on_x] = True
    src[i_g00, np.abs(a1d[on_x]).sum(axis=0) > 0] = True
    src[i_g00, i_g00] = True
    src |= src.T
    return col, src, _support(lv, src.reshape(-1))


def _hierarchy_rhs(lv: sparse.csr_matrix, space: HilbertSpace, kappa1: float,
                   pulse: PulseSpec, support: tuple):
    """Hierarchy right-hand side on the state [vec rho_10, vec rho_11].

    Evolves only the |g,0,0> column of rho_10 (see ``single_photon_response``),
    and rho_11 only on its support, both from ``_hierarchy_support``.
    ``lv_col`` and ``lv_sup`` keep the per-row entry order of ``lv``, and the
    source is added only at its places, with the same per-element operations,
    so each sum matches the full-block product bit for bit.
    """
    dim = space.dim
    nf = dim * dim
    i_g00 = space.index("g", 0, 0)
    i_g10 = space.index("g", 1, 0)
    a1d = space.annihilation("cavity1").conj().T
    col, src, sup = support
    lv_col = lv[col][:, col]
    msk = -np.sqrt(kappa1)
    # the rho_10 source -sqrt(kappa1) [a1^dag, rho_00] = -sqrt(kappa1) |g,1,0><g,0,0|
    k10_col = np.zeros(dim, dtype=complex)
    k10_col[i_g10] = msk
    lv_sup = lv[sup][:, sup]
    a, b = np.nonzero(src)
    at = np.searchsorted(sup, a * dim + b)          # the source's places in the support
    # s[a, b] and s[b, a] as indices into [row g,1,0; row g,0,0; 0]
    pad = 2 * dim
    s_ab = np.where(a == i_g10, b, np.where(a == i_g00, dim + b, pad))
    s_ba = np.where(b == i_g10, a, np.where(b == i_g00, dim + a, pad))
    sup = nf + sup

    def rhs(t, y):
        x = y[col]
        xi = float(gaussian_pulse(pulse, t))
        dy = np.zeros_like(y)
        dy[col] = lv_col @ x + xi * k10_col
        xbar = x.conj()
        s = np.concatenate([xbar, -(xbar @ a1d), [0.0]])
        d11 = lv_sup @ y[sup]
        d11[at] = d11[at] + msk * xi * (s[s_ab] + s[s_ba].conj())
        dy[sup] = d11
        return dy

    return rhs


_CHUNK = 16   # grid points per assembled block in single_photon_response


def single_photon_response(
    params: SystemParams,
    pulse: PulseSpec,
    t_grid: np.ndarray,
    spec: HilbertSpec = HilbertSpec(1, 10),
    decoherence: DecoherenceParams | None = None,
    tol: float = 1e-8,
    tail: bool = True,
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
    not dim^2), and rho_11 only on the entries that L and the source can reach
    (1210 of 4356 at (1,10)).  Only those entries are kept on the grid (1276
    of 8712); the full blocks are rebuilt _CHUNK time points at a time for the
    per-time-point einsums.  The ODE state keeps its full length 2 dim^2: the
    error norm is an RMS over the whole vector, and DOP853's stage sums depend
    on each entry's place in it, so a shorter state would change output bits.

    Diagnostics (written to no artifact): ``rhs_evals``, the right-hand-side
    calls of the hierarchy and absorption solves; ``steps``, the accepted and
    rejected hierarchy steps; and ``top_layer_peak``, the largest rho_11
    population of the top n2 layer on the grid.

    The absorbed fraction is the probability that the first quantum click is
    not a port-1 photon, computed from the deterministic no-jump evolution;
    windowed port-1 flux cannot be used because the recovery stage of each
    completed duty cycle re-emits one photon through port 1 during the pulse.
    """
    if pulse.tau * params.kappa1 < 1.0:
        warnings.warn("pulse shorter than 1/kappa1: absorption will be inefficient",
                      stacklevel=2)
    t_grid = np.asarray(t_grid, dtype=float)
    space = build_space(spec)
    h = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    i_g00 = space.index("g", 0, 0)
    if np.any(h[:, i_g00]) or any(np.any(c[:, i_g00]) for c in cols.matrices()):
        raise ValueError("single_photon_response needs a dark |g,0,0>: "
                         "H or a collapse operator does not annihilate it")
    lv = liouvillian(h, cols)
    dim = space.dim
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n2op = a2.conj().T @ a2
    rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
    nf = dim * dim
    support = _hierarchy_support(lv, space)
    rhs = _hierarchy_rhs(lv, space, params.kappa1, pulse, support)
    keep = np.concatenate([support[0], nf + support[2]])   # every other entry stays 0

    y0 = np.zeros(2 * nf, dtype=complex)
    y0[nf:] = rho00.reshape(-1)
    ys, nfev, steps = _grid_solve(rhs, t_grid, y0, tol, tol * 1e-4, keep, "single-photon")

    obs = {"n2": n2op, "n1": a1.conj().T @ a1,
           **{f"pop_{level}": space.qutrit_projector(level) for level in ("g", "e", "f")}}
    top2 = _top_layer_projectors(space)[1]
    parts = {name: [] for name in ("trace", "a1_rho10", "top", *obs)}
    for k in range(0, len(t_grid), _CHUNK):
        chunk = ys[:, k:k + _CHUNK]
        blk = np.zeros((2 * nf, chunk.shape[1]), dtype=complex)
        blk[keep] = chunk
        rho10 = blk[:nf].T.reshape(-1, dim, dim)
        rho11 = blk[nf:].T.reshape(-1, dim, dim)
        rho11 = 0.5 * (rho11 + np.conj(np.swapaxes(rho11, 1, 2)))
        parts["trace"].append(np.einsum("tii->t", rho11).real)
        parts["a1_rho10"].append(np.einsum("ij,tji->t", a1, rho10))
        parts["top"].append(np.einsum("tii->ti", rho11).real @ top2)
        for name, op in obs.items():
            parts[name].append(np.einsum("ij,tji->t", op, rho11).real)
    out = {name: np.concatenate(v) for name, v in parts.items()}
    final_rho = rho11[-1].copy()

    drift = np.max(np.abs(out["trace"] - 1.0))
    if drift > 1e-3:
        raise RuntimeError(f"single-photon norm bookkeeping drift {drift:.3g} > 1e-3")

    xi_t = gaussian_pulse(pulse, t_grid)
    i_in1 = xi_t**2
    i_out2 = params.kappa2 * out["n2"]
    i_out1 = i_in1 + params.kappa1 * out["n1"] + 2.0 * np.sqrt(params.kappa1) * np.real(
        xi_t * np.conj(out["a1_rho10"])
    )
    i_out1 = np.clip(i_out1, 0.0, None)

    from .model import nonhermitian

    h_nh = nonhermitian(h, cols)
    absorbed, absorption_evals = _first_click_absorption(
        h_nh, cols.get("kappa1"), np.sqrt(params.kappa1),
        space.basis_state("g", 0, 0), space.index("g", 1, 0),
        pulse, (t_grid[0], t_grid[-1]), max(tol, 1e-9),
    )

    gain_grid = float(np.trapezoid(i_out2, t_grid))
    if tail:
        gain_tail = params.kappa2 * integrated_observable(lv, final_rho, rho00, n2op)
    else:
        gain_tail = 0.0

    series = TimeSeries(
        times=t_grid,
        channels={
            "I_in1": i_in1,
            "I_out1": i_out1,
            "I_out2": i_out2,
            "n1": out["n1"],
            **{name: out[name] for name in ("pop_g", "pop_e", "pop_f")},
        },
        metadata={"absorbed_fraction": absorbed, "gain": gain_grid + gain_tail},
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
    truncation: int


def gain_and_bandwidth(
    params: SystemParams,
    decoherence: DecoherenceParams | None = None,
    n2_trunc: int = 10,
    n1_trunc: int = 1,
) -> GainResult:
    """Gain and detection bandwidth of the transistor.

    Bandwidth is the impedance-matched input coupling kappa1 = Gamma_set
    (numeric inversion at the same cavity-2 truncation).  Gain is
    N_out2 = integral_0^inf kappa2 <n2> dt for the master equation started in
    |e,0,0> with the kappa1 recovery channel open.  It is exact, with no time
    integration: one trace-fixed LU of the Liouvillian gives the steady state
    rho_inf and the resolvent X with L X = rho_inf - rho0, and
    N_out2 = kappa2 tr[n2 X] (the steady state holds no cavity-2 photon).
    """
    gamma_set = setting_rate(params, n2_trunc=n2_trunc).value
    p = params.replace(kappa1=gamma_set)
    space = build_space(HilbertSpec(n1_trunc, n2_trunc))
    h = hamiltonian_ideal(p, space)
    cols = collapse_set(p, decoherence, space)
    solver = TraceFixedSolver(liouvillian(h, cols), space.dim)
    a2 = space.annihilation("cavity2")
    psi0 = space.basis_state("e", 0, 0)
    x = solver.resolvent(solver.steady_state() - np.outer(psi0, psi0.conj()))
    return GainResult(
        gain=params.kappa2 * _expectation(a2.conj().T @ a2, x),
        bandwidth=gamma_set,
        truncation=n2_trunc,
    )


def gain_resolvent(
    params: SystemParams,
    decoherence: DecoherenceParams | None = None,
    n2_trunc: int = 10,
    n1_trunc: int = 1,
) -> float:
    """The gain alone: ``gain_and_bandwidth(...).gain``; unused, kept while
    perfbench/tracer.py wraps it by name."""
    return gain_and_bandwidth(params, decoherence, n2_trunc, n1_trunc).gain
