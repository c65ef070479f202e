"""Wave-function Monte-Carlo trajectories and counting statistics.

Between jumps the state evolves under the non-Hermitian Hamiltonian; a jump
comes when the squared norm of the (exact) eigendecomposition propagator falls
through a uniform threshold u.  Its time is the one a bisection to 1e-10
relative width returns, bit for bit, found with a fifth of the norm
evaluations: bracketed Newton on log ||psi||^2 - log u, one Gram-matrix
product a step on the state's live eigencomponents alone (|z_k| above 1e-13 of
the largest; the rest are the rounding of the coefficients), then a bisection
replay that evaluates the norm only inside a window around the root that a few
evaluations certify (`_jump_time`).  Jump channels are drawn with probabilities
<psi|C_j^dag C_j|psi>, by Generator.choice's own steps (`_channel`).

Single-photon input follows the wavepacket-norm bookkeeping: the total norm is
the internal amplitude norm plus the remaining input-tail integral.  The
not-yet-arrived photon amplitude q*sqrt(w(t)) is carried in closed form
(q = 1 until the first jump, 0 after: every collapse operator annihilates the
system ground state, so any click resolves the photon's fate), the source term
-sqrt(kappa1) xi(t) q feeds |g,1,0>, and the port-1 jump operator acquires the
displacement q xi(t)|g,0,0> whose interference with sqrt(kappa1) a1 produces
perfect absorption at impedance matching.  Until that first click every
trajectory follows the same no-jump state under the pulse source (Dalibard,
Castin & Molmer, PRL 68, 580 (1992)), so an ensemble integrates it once
(`PulsePath`) and each trajectory only finds where the norm falls through its
own threshold, bit for bit as a solve_ivp event run of its own would.

RNG streams are counter-based (Philox) keyed by (base_seed, trajectory index),
so ensembles are reproducible for any worker count.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import ode
from .artifacts import write_csv
from .dynamics import PulseSpec, fork_map, gaussian_pulse, pool_workers
# unused, kept while perfbench/tracer.py wraps it by name
from .dynamics import solve_ivp  # noqa: F401
from .effective import setting_rate
from .hilbert import HilbertSpec, HilbertSpace, build_space
from .model import (DecoherenceParams, SystemParams, collapse_set, hamiltonian_finite_A,
                    hamiltonian_ideal, nonhermitian)

_TIME_REFINE = 1e-10     # relative bracket width at which the jump-time bisection stops
_MARGIN_SAFETY = 2.0     # factor on the rounding and norm-growth bound of the margin
_NEWTON_STEPS = 60       # Newton steps after which every midpoint is evaluated
_NEWTON_TOL = 1e-6       # |log(norm / u)| below which a Newton step may be the root
_WIDENINGS = 4           # window sizes tried, each 4 times the last
_LIVE = 1e-13            # |z_k| / max|z| above which Newton keeps an eigencomponent
_PULSE_TAIL_CUTOFF = 1e-12
_EPS = np.finfo(float).eps


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream; independent of worker scheduling.

    (base_seed, index) are Philox's two 64-bit key words.  ValueError for a seed
    outside [-2**63, 2**63): numpy refuses one below with an OverflowError, and
    builds the key of one from 2**63 up through a float64 array, so that
    neighbouring seeds share a stream.
    """
    base_seed, index = int(base_seed), int(index)
    if not -2**63 <= base_seed < 2**63:
        raise ValueError(f"seed must be in [-2**63, 2**63), got {base_seed}")
    return np.random.Generator(np.random.Philox(key=[base_seed, index]))


class EigenPropagator:
    """Exact no-jump propagator exp(-i H_NH t) via eigendecomposition.

    Valid for time-independent segments; when the eigenbasis is ill-conditioned
    (``ok`` False) ``run_trajectory`` steps the segment with DOP853 instead, on
    the replay ``PulsePath`` runs with no pulse source.
    """

    def __init__(self, h_nh: np.ndarray):
        self.dim = h_nh.shape[0]
        self.evals, self.evecs = np.linalg.eig(h_nh)
        self.inv = np.linalg.inv(self.evecs)
        self.gram = self.evecs.conj().T @ self.evecs
        resid = self.evecs @ (self.evals[:, None] * self.inv) - h_nh
        resid_norm = np.linalg.norm(resid)
        scale = max(np.linalg.norm(h_nh), 1.0)
        self.ok = np.isfinite(resid_norm) and resid_norm / scale < 1e-9
        # norm_sq at time s rounds by about 2 eps cond(V) (dim + 4 + |lambda| s),
        # relative to the squared norm at 0, the |lambda| s from the phases; and
        # it can rise over a span only by 2 span eta, eta the anti-Hermitian part
        # of V Lambda V^-1 - H_NH, computed inverse included (H_NH's own part,
        # -sum C^dag C / 2, lets it only fall)
        rounding = 2 * np.finfo(float).eps * np.linalg.cond(self.evecs)
        eta = (np.linalg.norm(resid - resid.conj().T, 2) / 2 + np.linalg.norm(h_nh, 2)
               * np.linalg.norm(np.eye(self.dim) - self.evecs @ self.inv, 2))
        self._margin = (_MARGIN_SAFETY * 2 * (self.dim + 4) * rounding,
                        _MARGIN_SAFETY * 2 * (np.abs(self.evals).max() * rounding + eta))
        self._rot = -1j * self.evals    # each eigencomponent's rate, d z_k / dt = -i lambda_k z_k

    # the jump loop writes its matrix-vector products M.dot(x): the same BLAS
    # gemv call as M @ x, so the same bits, with less dispatch per call
    def coeffs(self, psi: np.ndarray) -> np.ndarray:
        return self.inv.dot(psi)

    def state(self, z0: np.ndarray, dt: float) -> np.ndarray:
        return self.evecs.dot(np.exp(self._rot * dt) * z0)

    def norm_sq(self, z0: np.ndarray, dt: float) -> float:
        v = self.evecs.dot(np.exp(self._rot * dt) * z0)
        return float(np.vdot(v, v).real)

    def live(self, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, -i lambda, Gram block) on the components with |z_k| > 1e-13 max|z|.

        The others are 0 or the rounding of ``coeffs``: after a jump at (2,16)
        about 100 of the 153, at 1e-13 to 1e-18 of the largest or exactly 0.
        """
        mag = np.abs(z0)
        keep = np.flatnonzero(mag > _LIVE * mag.max())
        if len(keep) == self.dim:
            return z0, self._rot, self.gram
        # rows, then columns: one gather through np.ix_ costs more than both
        return z0[keep], self._rot[keep], self.gram.take(keep, 0).take(keep, 1)

    def margin(self, span: float) -> float:
        """Twice the most by which norm_sq on [0, span], relative to the squared
        norm at 0, can miss a function of time that never rises."""
        return self._margin[0] + self._margin[1] * span


def _photon_port(collapses: dict, space: HilbertSpace | None, pulse: PulseSpec | None):
    """(sqrt(kappa1), index of |g,1,0>, |g,0,0>) for a single-photon input.

    ValueError when there is no pulse or space, or the photon cannot couple in.
    """
    if pulse is None or space is None:
        raise ValueError("single-photon-input requires pulse and space")
    if "kappa1" not in collapses:
        raise ValueError("single-photon-input requires a kappa1 channel")
    g10 = space.basis_state("g", 1, 0)
    sqrt_k1 = float(np.linalg.norm(collapses["kappa1"] @ g10))
    if sqrt_k1 <= 0:
        raise ValueError("kappa1 channel has zero amplitude; photon cannot couple in")
    return sqrt_k1, int(np.argmax(np.abs(g10))), space.basis_state("g", 0, 0)


class PulsePath:
    """A no-jump state stepped by ``ode.DOP853``, on which thresholds find their jump.

    For a single-photon input it is the pre-click state, shared by an ensemble:
    before the first jump every trajectory follows the same unnormalized state,
    d psi = -i H_NH psi - sqrt(kappa1) xi(t)|g,1,0> from psi = 0 at t_start, and
    draws only its own threshold u on the total norm ||psi||^2 + remaining_norm(t).
    With ``pulse`` None it is one time-independent segment whose eigenbasis is
    ill-conditioned: d psi = -i H_NH psi from ``psi0``, the norm ||psi||^2.
    The input is checked and the DOP853 solver (rtol 1e-10, atol 1e-12) is set
    up here, so a bad input raises where the path is built: an ensemble builds
    its path once, in the calling process, and pool workers inherit it.  The
    solver then steps only as far as the thresholds asked so far reach, keeping
    each step's end-point norm and dense output.  ``crossing(u)`` replays
    solve_ivp's terminal event (direction -1) on those steps: the first step
    whose norm falls through u, and ``ode.brentq`` to 4 eps on its interpolant.  The
    steps never depend on u or on the dense output, so every jump time and
    pre-jump state is bit for bit that of a solve_ivp event run of its own.
    """

    def __init__(self, h_nh: np.ndarray, collapses: dict, space: HilbertSpace | None,
                 pulse: PulseSpec | None, t_start: float, t_end: float,
                 psi0: np.ndarray | None = None):
        self.pulse = pulse
        self.t_start, self.t_end = float(t_start), float(t_end)
        if pulse is not None:
            sqrt_k1, i_g10, _ = _photon_port(collapses, space, pulse)

        def rhs(tt, y):
            dy = -1j * (h_nh @ y)
            if pulse is not None:
                dy[i_g10] -= sqrt_k1 * float(gaussian_pulse(pulse, tt))
            return dy

        y0 = np.zeros(len(h_nh), dtype=complex) if psi0 is None else psi0
        self._solver = ode.DOP853(rhs, self.t_start, y0, self.t_end, rtol=1e-10, atol=1e-12)
        self._norms = [self._norm(self.t_start, y0)]   # event base at t_start and each step end
        self._steps: list = []                          # (t_old, t, dense output) of each step

    def _norm(self, t, y) -> float:
        # operand order of the per-trajectory event, q = 1 before the first click
        n = float(np.real(np.vdot(y, y)))
        return n if self.pulse is None else n + self.pulse.remaining_norm(t)

    def _step(self) -> None:
        solver = self._solver
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"trajectory integration failed: {message}")
        self._steps.append((solver.t_old, solver.t, solver.dense_output()))
        self._norms.append(self._norm(solver.t, solver.y))

    def crossing(self, u: float):
        """(time, state, True) where the norm first falls through u, the state
        the pre-jump one; (t_end, final state, False) when it never does."""
        k = 0
        while True:
            if k + 1 == len(self._norms):
                if self._solver.status == "finished":
                    return self.t_end, self._solver.y, False
                self._step()
            if self._norms[k] - u >= 0 and self._norms[k + 1] - u <= 0:
                t_old, t_new, dense = self._steps[k]
                root = ode.brentq(lambda tt: self._norm(tt, dense(tt)) - u, t_old, t_new,
                                  xtol=4 * _EPS, rtol=4 * _EPS)
                return root, dense(root), True
            k += 1


@dataclass
class Trajectory:
    jumps: list                      # [(time, channel_label)]
    duration: float
    final_norm_accounting: float     # total squared norm at the last event
    norm_evals: int = 0              # EigenPropagator.norm_sq calls
    newton_steps: int = 0            # Gram-matrix steps of the jump-time root search
    search_fallbacks: int = 0        # searches that evaluated every bisection midpoint

    def count(self, label_prefix: str) -> int:
        return sum(1 for _, lab in self.jumps if lab.startswith(label_prefix))


def _jump_time(prop: EigenPropagator, z0: np.ndarray, span: float, u: float,
               stats: Counter) -> float:
    """Elapsed time of the jump, given norm_sq(span) < u.

    Bit for bit the 0.5 (lo + hi) of a bisection of [0, span] on norm_sq(s) >= u,
    but norm_sq is called only for midpoints inside a window [a, b] around the
    root: norm_sq(a) >= u + m and norm_sq(b) < u - m with m = prop.margin(c), and
    norm_sq(c) < u - prop.margin(span) at a far point c >= b.  The exact norm
    never rises, so a midpoint outside the window decides as a call would.
    Newton only places the window, so it runs on the live eigencomponents
    alone (``prop.live``).
    """
    norm_evals = newton_steps = 0

    def norm_sq(s):
        nonlocal norm_evals
        norm_evals += 1
        return prop.norm_sq(z0, s)

    # Newton on log norm - log u from s = 0, bisecting [lo, hi] when a step leaves
    # it; the norm and its slope from one Gram-matrix product on the live block
    z, rot, gram = prop.live(z0)
    lo, hi, s, n0, root = 0.0, span, 0.0, None, None
    s_prev = dn_prev = math.nan
    for _ in range(_NEWTON_STEPS):
        newton_steps += 1
        w = np.exp(rot * s) * z
        gw = gram.dot(w)
        n, dn = float(np.vdot(w, gw).real), 2.0 * float(np.vdot(gw, rot * w).real)
        n0 = n if n0 is None else n0          # margins are relative to the norm at 0
        lo, hi = (s, hi) if n >= u else (lo, s)
        log_ratio = math.log(n / u) if n > 0 else -math.inf
        nxt = s - log_ratio * n / dn if dn < 0 else math.nan
        # the step is the root once its second-order error, curvature from the last
        # two slopes, is well inside the margin: a flat norm needs more steps
        if (abs(log_ratio) <= _NEWTON_TOL and lo <= nxt <= hi and abs(dn - dn_prev) * (nxt - s)**2
                <= n0 * prop.margin(s) / 4 * abs(s - s_prev)):
            root = nxt
            break
        s_prev, dn_prev = s, dn
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    a, b = -math.inf, math.inf
    for widening in range(_WIDENINGS if root is not None else 0):
        scale = 2.0 * 4.0**widening * n0 / -dn
        far = scale * prop.margin(span)
        m = n0 * prop.margin(root + far)
        delta = scale * m / n0
        if ((root - delta <= 0 or norm_sq(root - delta) >= u + m)
                and (root + delta >= span or norm_sq(root + delta) < u - m)
                and (root + far >= span or norm_sq(root + far) < u - n0 * prop.margin(span))):
            a, b = root - delta, root + delta
            break
    else:
        stats["search_fallbacks"] += 1
    lo, hi = 0.0, span
    while hi - lo > _TIME_REFINE * (hi if hi > 1e-6 else 1e-6):   # max(hi, 1e-6), no call
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and norm_sq(mid) >= u):
            lo = mid
        else:
            hi = mid
    stats["norm_evals"] += norm_evals
    stats["newton_steps"] += newton_steps
    return 0.5 * (lo + hi)


def _channel(rates: np.ndarray, rng: np.random.Generator) -> int | None:
    """Index drawn with probabilities rates / sum(rates), None when they sum to 0.

    Generator.choice(len(rates), p=rates / sum)'s own steps: the same index from
    the same one draw of the stream, without its checks.  ValueError on rates
    that are not finite, as choice raises on them.
    """
    tot = rates.sum()
    if tot <= 0:
        return None
    if not math.isfinite(tot):
        raise ValueError(f"jump rates must be finite, got {rates}")
    cdf = (rates / tot).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _photon_input(init, pulse: PulseSpec | None) -> bool:
    """Whether ``init`` is the single-photon input; ValueError for a pulse with another init."""
    photon = isinstance(init, str) and init == "single-photon-input"
    if pulse is not None and not photon:
        raise ValueError(f"a pulse is read only by init='single-photon-input', got {init!r}")
    return photon


def _parse_init(init, space: HilbertSpace) -> np.ndarray:
    if isinstance(init, np.ndarray):
        return init.astype(complex)
    parts = init.replace("|", "").replace(">", "").split(",") if isinstance(init, str) else []
    if len(parts) != 3:
        raise ValueError(f"cannot interpret initial state {init!r}")
    m, n1, n2 = parts[0].strip(), int(parts[1]), int(parts[2])
    return space.basis_state(m, n1, n2)


def run_trajectory(
    h_nh: np.ndarray,
    collapses: dict,
    init,
    duration: float,
    seed,
    pulse: PulseSpec | None = None,
    space: HilbertSpace | None = None,
    propagator: EigenPropagator | None = None,
    on_jump=None,
    pulse_path: PulsePath | None = None,
) -> Trajectory:
    """One stochastic realization; deterministic given (operators, seed).

    ``init`` is a state vector, a basis label like "e,0,0", or
    "single-photon-input" (then ``pulse`` and ``space`` are required and the
    wavepacket-norm bookkeeping applies).  ``on_jump(time, label, state)``, if
    given, sees each jump with its normalized post-jump state.
    ``pulse_path``, for a single-photon input, is the pre-click path shared by
    the trajectories of one ensemble: it must be built from the same H_NH,
    collapses, space and pulse over [0, duration].  One is built when none is
    given.  ValueError unless ``duration`` is finite and > 0, and for a
    ``pulse`` with any other ``init``.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"a trajectory needs a finite duration > 0, got {duration}")
    rng = trajectory_rng(*seed) if isinstance(seed, tuple) else trajectory_rng(seed, 0)
    labels, mats = list(collapses), list(collapses.values())

    t, t_end = 0.0, float(duration)
    pulse_mode = _photon_input(init, pulse)
    if pulse_mode:
        _, _, g00 = _photon_port(collapses, space, pulse)
        if pulse_path is None:
            pulse_path = PulsePath(h_nh, collapses, space, pulse, t, t_end)
        elif (pulse_path.t_start, pulse_path.t_end) != (t, t_end):
            raise ValueError("pulse_path spans another time interval")
        psi = np.zeros(space.dim, dtype=complex)
        k1_idx = labels.index("kappa1")
        q = 1.0
    else:
        psi = (_parse_init(init, space) if space is not None
               else np.asarray(init, dtype=complex))
        q = 0.0

    prop = propagator
    if prop is None:
        prop = EigenPropagator(h_nh)
    if not prop.ok:
        warnings.warn("ill-conditioned eigendecomposition: using ODE stepping", stacklevel=2)

    jumps: list = []
    stats: Counter = Counter()

    def total_norm_sq(vec, q_, time_):
        n = float(np.vdot(vec, vec).real)
        if q_ > 0:
            n += q_ * q_ * pulse.remaining_norm(time_)
        return n

    def do_jump(vec, q_, time_):
        jumped = [c.dot(vec) for c in mats]
        if q_ > 0:
            jumped[k1_idx] = jumped[k1_idx] + q_ * float(gaussian_pulse(pulse, time_)) * g00
        k = _channel(np.array([np.vdot(cv, cv).real for cv in jumped]), rng)
        if k is None:
            return None
        cv = jumped[k] / np.linalg.norm(jumped[k])
        jumps.append((time_, labels[k]))
        if on_jump is not None:
            on_jump(time_, labels[k], cv)
        return cv

    while t < t_end:
        start_norm = total_norm_sq(psi, q, t)
        if start_norm <= 0:
            break
        u = rng.random() * start_norm

        in_pulse = q > 0 and pulse.remaining_norm(t) > _PULSE_TAIL_CUTOFF
        if in_pulse or not prop.ok:
            # DOP853 until the norm falls through u: the shared path under the
            # time-dependent source, or this segment's own with no source
            path = pulse_path if in_pulse else PulsePath(h_nh, collapses, space, None, t, t_end,
                                                         psi0=psi)
            t_jump, psi_pre, crossed = path.crossing(u)
            if not crossed:
                psi, t = psi_pre, t_end
                if in_pulse and total_norm_sq(psi, q, t) > start_norm + 1e-4:
                    raise RuntimeError("norm accounting drift exceeds 1e-4 during the pulse")
                break
        else:
            # time-independent segment: exact eigen propagation
            z0 = prop.coeffs(psi)
            remaining = t_end - t
            stats["norm_evals"] += 1
            if prop.norm_sq(z0, remaining) >= u:
                psi = prop.state(z0, remaining)
                t = t_end
                break
            elapsed = _jump_time(prop, z0, remaining, u, stats)
            t_jump = t + elapsed
            psi_pre = prop.state(z0, elapsed)

        new = do_jump(psi_pre, q, t_jump)
        if new is None:
            if in_pulse:
                raise RuntimeError("norm threshold crossed with zero jump rate")
            # stationary dark state: nothing can ever jump again
            t = t_end
            break
        # every collapse operator annihilates the ground state: a click resolves the photon
        psi, q, t = new, 0.0, t_jump

    return Trajectory(
        jumps=jumps,
        duration=duration,
        final_norm_accounting=total_norm_sq(psi, q, t),
        **stats,
    )


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def run_ensemble(
    h_nh: np.ndarray,
    collapses: dict,
    init,
    duration: float,
    n_traj: int,
    base_seed: int,
    pulse: PulseSpec | None = None,
    space: HilbertSpace | None = None,
    threads: int | None = None,
) -> list:
    """Independent trajectories indexed 0..n_traj-1; order-stable aggregation."""
    return _map_ensemble(lambda run, i: run(i), h_nh, collapses, init, duration, n_traj,
                         base_seed, pulse, space, threads)


def _map_ensemble(fn, h_nh, collapses, init, duration, n_traj, base_seed, pulse, space,
                  threads) -> list:
    """[fn(run, 0), ..., fn(run, n_traj - 1)] over one ensemble.

    ``run(index, on_jump=None)`` is trajectory ``index`` of the ensemble: the
    run_trajectory inputs with the seed (base_seed, index).  The eigenbasis of
    H_NH and, for a single-photon input, the shared ``PulsePath`` are built
    once, here in the calling process, so a bad input raises here.  The
    trajectories then run in this process, or, from 8 trajectories on, over
    ``fork_map``'s pool of ``pool_workers(threads)`` workers that inherit
    ``run``; results come back in index order.  A path bound for the pool is
    first stepped as far as any trajectory will ask.
    """
    if n_traj < 1 or not (math.isfinite(duration) and duration > 0):
        raise ValueError("an ensemble needs n_traj >= 1 and a finite duration > 0, "
                         f"got n_traj={n_traj}, duration={duration}")
    workers = pool_workers(threads)
    if n_traj < 8:   # too few trajectories to pay for a pool
        workers = 1
    pulse_path = None
    if _photon_input(init, pulse):
        pulse_path = PulsePath(h_nh, collapses, space, pulse, 0.0, duration)
        if workers > 1:
            # step as far as the smallest first threshold (each trajectory's first
            # draw, on the norm at 0) crosses: the workers replay these steps
            first = min(trajectory_rng(base_seed, i).random() for i in range(n_traj))
            pulse_path.crossing(first * pulse.remaining_norm(0.0))
    prop = EigenPropagator(h_nh)

    def run(index: int, on_jump=None) -> Trajectory:
        # run_trajectory is looked up at call time, where a tracer may have wrapped it
        return run_trajectory(h_nh, collapses, init, duration, (base_seed, index), pulse=pulse,
                              space=space, propagator=prop, on_jump=on_jump,
                              pulse_path=pulse_path)

    return fork_map(lambda i: fn(run, i), n_traj, workers)


# ---------------------------------------------------------------------------
# gain statistics
# ---------------------------------------------------------------------------

@dataclass
class CountStatistics:
    n_traj: int
    mean: float
    variance: float
    histogram: dict                 # count -> frequency
    g2_zero: float                  # Mandel form 1 + (Var - N)/N^2
    g2_zero_paper_sign: float       # 1 + (Var + N)/N^2, reported alongside
    statistical_error: float        # standard error of the mean

    def to_json_dict(self) -> dict:
        return {
            "n_traj": self.n_traj,
            "mean": self.mean,
            "variance": self.variance,
            "g2_zero_mandel": self.g2_zero,
            "g2_zero_paper_sign": self.g2_zero_paper_sign,
            "statistical_error": self.statistical_error,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def counts_to_statistics(counts: np.ndarray) -> CountStatistics:
    counts = np.asarray(counts, dtype=float)
    n = len(counts)
    mean = float(counts.mean())
    var = float(counts.var(ddof=1)) if n > 1 else math.nan   # undefined for one count
    hist: dict = {}
    for c in counts.astype(int):
        hist[int(c)] = hist.get(int(c), 0) + 1
    g2 = 1.0 + (var - mean) / mean**2 if mean > 0 else math.nan
    g2p = 1.0 + (var + mean) / mean**2 if mean > 0 else math.nan
    return CountStatistics(
        n_traj=n, mean=mean, variance=var, histogram=hist,
        g2_zero=g2, g2_zero_paper_sign=g2p,
        statistical_error=float(np.sqrt(var / n)) if n > 0 else math.nan,
    )


def gain_statistics(
    params: SystemParams,
    n_traj: int,
    duration: float,
    base_seed: int,
    spec: HilbertSpec = HilbertSpec(2, 16),
    decoherence: DecoherenceParams | None = None,
    init="e,0,0",
    pulse: PulseSpec | None = None,
    threads: int | None = None,
    return_trajectories: bool = False,
):
    """Output-photon counting statistics over a trajectory ensemble.

    Counts are the number of kappa2-channel jumps per trajectory, starting
    from |e,0,0> (setting stage completed) or from a single-photon input.
    kappa1 is the numeric setting rate (impedance matching).
    """
    p = params.replace(kappa1=setting_rate(params, n2_trunc=10).value)
    space = build_space(spec)
    h = hamiltonian_ideal(p, space)
    cols = collapse_set(p, decoherence, space)
    h_nh = nonhermitian(h, cols)
    trajs = run_ensemble(h_nh, cols, init, duration, n_traj, base_seed,
                         pulse=pulse, space=space, threads=threads)
    counts = np.array([tr.count("kappa2") for tr in trajs])
    stats = counts_to_statistics(counts)
    if return_trajectories:
        return stats, trajs
    return stats


# ---------------------------------------------------------------------------
# dark counts
# ---------------------------------------------------------------------------

@dataclass
class DarkRateEstimate:
    single_rate: float
    single_error: float
    enhanced_rate: float
    enhanced_error: float
    n_events_single: int
    n_events_enhanced: int
    total_time: float
    excited_dwell_time: float
    single_is_upper_bound: bool = False
    enhanced_is_upper_bound: bool = False


_DARK_SPEC = HilbertSpec(1, 2)   # the truncation of both dark-count routes


def _dark_model(params: SystemParams, spec: HilbertSpec):
    """(space, collapses, H_NH) of the finite-anharmonicity model with split
    cavity-2 jumps; kappa1 is the impedance-matched setting rate when unset."""
    if not math.isfinite(params.anharmonicity):
        raise ValueError("the dark-count model requires finite anharmonicity")
    p = params
    if p.kappa1 == 0:
        p = p.replace(kappa1=setting_rate(params, n2_trunc=10).value)
    space = build_space(spec)
    h = hamiltonian_finite_A(p, space)
    cols = collapse_set(p, None, space, split=True)
    return space, cols, nonhermitian(h, cols)


def dark_count_trajectories(
    params: SystemParams,
    n_traj: int,
    duration: float,
    base_seed: int,
    threads: int | None = None,
) -> DarkRateEstimate:
    """Trajectory estimate of the single and enhanced dark-count rates.

    Starts every trajectory in |g,0,0> under the finite-anharmonicity model
    with the split cavity-2 jumps active.  Singles are kappa2_G events outside
    bursts; a kappa2_E event opens a burst (only the first event counts) and
    the burst closes at the first subsequent jump whose renormalized post-jump
    state is more than 99% ground.  Rates use the ground-exposure time; with zero
    events the rate reported is the 1/T upper bound.

    kappa1 defaults to the impedance-matched setting rate when unset, so the
    trajectory shows the recovery jumps of the duty cycle.
    """
    space, cols, h_nh = _dark_model(params, _DARK_SPEC)
    # the basis lists every |g, n1, n2> first; sums run in index order
    tallies = _map_ensemble(functools.partial(_dark_one, n_ground=space.index("e", 0, 0)),
                            h_nh, cols, "g,0,0", duration, n_traj, base_seed, None, space,
                            threads)
    singles = 0
    bursts = 0
    dwell = 0.0
    total_time = n_traj * duration
    for s, b, d in tallies:
        singles += s
        bursts += b
        dwell += d

    exposure = total_time - dwell
    if dwell > 0.2 * total_time:
        warnings.warn(
            f"excited-subspace dwell is {dwell / total_time:.1%} of the sampled time; "
            "interval rate estimates are unreliable", stacklevel=2)

    def rate_err(n_events, time_):
        if n_events == 0:
            return 1.0 / time_, 1.0 / time_, True
        return n_events / time_, math.sqrt(n_events) / time_, False

    s_rate, s_err, s_ub = rate_err(singles, total_time)
    e_rate, e_err, e_ub = rate_err(bursts, exposure if exposure > 0 else total_time)
    return DarkRateEstimate(
        single_rate=s_rate, single_error=s_err,
        enhanced_rate=e_rate, enhanced_error=e_err,
        n_events_single=singles, n_events_enhanced=bursts,
        total_time=total_time, excited_dwell_time=dwell,
        single_is_upper_bound=s_ub, enhanced_is_upper_bound=e_ub,
    )


def _dark_one(run, index: int, n_ground: int) -> tuple:
    """(singles, bursts, burst dwell) of one dark-count trajectory, classified
    jump by jump from the post-jump states."""
    singles = bursts = 0
    dwell, burst_start = 0.0, None

    def on_jump(t, label, psi):
        nonlocal singles, bursts, dwell, burst_start
        if label == "kappa2_E" and burst_start is None:
            bursts += 1
            burst_start = t
        elif burst_start is not None and (np.vdot(psi[:n_ground], psi[:n_ground]).real
                                          / np.vdot(psi, psi).real > 0.99):
            dwell += t - burst_start
            burst_start = None
        if label == "kappa2_G" and burst_start is None:
            singles += 1

    tr = run(index, on_jump)
    if burst_start is not None:
        dwell += tr.duration - burst_start
    return singles, bursts, dwell


# ---------------------------------------------------------------------------
# no-jump evolution analysis
# ---------------------------------------------------------------------------

@dataclass
class NoJumpRates:
    steady: float            # late-time normalized kappa2_E rate (enhanced)
    dynamical: float         # window-integrated kappa2_E rate (post-dark-count)
    steady_single: float     # late-time normalized kappa2_G rate
    converged: bool          # the late-time rate is one eigenmode's (see no_jump_rates)


def no_jump_rates(params: SystemParams) -> NoJumpRates:
    """Dark-count rates from pure non-Hermitian (no-jump) evolution of |g,0,0>.

    Steady rates are the t -> infinity limits of
    Gamma_j(t) = <psi|C_j^dag C_j|psi> / <psi|psi>, read from the
    slowest-decaying eigenvector reached from the ground state; the dynamical
    enhanced rate is the time-integrated ratio over the initial oscillation
    window of 10 periods of 2 pi / sqrt(g2^2 + omega^2), on 4000 points.
    That limit is one mode's, and ``converged`` True, when the eigenbasis is
    well conditioned (``EigenPropagator.ok``) and the next-slowest reached mode
    decays faster by more than 1e-9 max|lambda|, the relative tolerance of
    ``ok``: the ratio then approaches the limit as exp(-gap t).
    """
    space, cols, h_nh = _dark_model(params, _DARK_SPEC)
    c_g, c_e = cols["kappa2_G"], cols["kappa2_E"]

    prop = EigenPropagator(h_nh)
    z0 = prop.coeffs(space.basis_state("g", 0, 0))

    # late-time limit: slowest-decaying eigenvector with ground-state overlap
    reached = np.abs(z0) > 1e-12
    decays = -prop.evals.imag
    i0 = int(np.argmax(np.where(reached, -decays, -np.inf)))
    v0 = prop.evecs[:, i0]
    v0 = v0 / np.linalg.norm(v0)
    steady_e = float(np.linalg.norm(c_e @ v0) ** 2)
    steady_g = float(np.linalg.norm(c_g @ v0) ** 2)

    gap = np.diff(np.sort(decays[reached])[:2])   # empty when one mode is reached
    converged = bool(prop.ok and np.all(gap > 1e-9 * np.abs(prop.evals).max()))
    if not converged:
        warnings.warn("no-jump late-time rate is not a single mode's: the slowest reached "
                      "modes decay alike, or the eigenbasis is ill-conditioned", stacklevel=2)

    window = 10.0 * 2.0 * np.pi / math.hypot(params.g2, params.omega)
    tg = np.linspace(0.0, window, 4000)
    num = np.empty_like(tg)
    den = np.empty_like(tg)
    for k, t in enumerate(tg):
        v = prop.state(z0, t)
        num[k] = np.linalg.norm(c_e @ v) ** 2
        den[k] = np.real(np.vdot(v, v))
    dynamical = float(np.trapezoid(num, tg) / np.trapezoid(den, tg))

    return NoJumpRates(steady=steady_e, dynamical=dynamical,
                       steady_single=steady_g, converged=converged)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def trajectories_to_csv(trajectories: list, path, metadata: dict | None = None) -> None:
    write_csv(path, (metadata or {}).items(), ["trajectory_id", "jump_time", "channel"],
              ((i, t, lab) for i, tr in enumerate(trajectories) for t, lab in tr.jumps))
