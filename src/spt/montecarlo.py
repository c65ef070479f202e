"""Wave-function Monte-Carlo trajectories and counting statistics.

Between jumps the state evolves under the non-Hermitian Hamiltonian; jump
times are located by sampling a uniform threshold on the squared norm and
bisecting the (exact) eigendecomposition propagator to 1e-10 relative time
accuracy.  Jump channels are drawn with probabilities <psi|C_j^dag C_j|psi>.

Single-photon input follows the wavepacket-norm bookkeeping: the total norm is
the internal amplitude norm plus the remaining input-tail integral.  The
not-yet-arrived photon amplitude q*sqrt(w(t)) is carried in closed form
(q = 1 until the first jump, 0 after: every collapse operator annihilates the
system ground state, so any click resolves the photon's fate), the source term
-sqrt(kappa1) xi(t) q feeds |g,1,0>, and the port-1 jump operator acquires the
displacement q xi(t)|g,0,0> whose interference with sqrt(kappa1) a1 produces
perfect absorption at impedance matching.

RNG streams are counter-based (Philox) keyed by (base_seed, trajectory index),
so ensembles are reproducible for any worker count.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import PulseSpec, gaussian_pulse
from .effective import setting_rate
from .hilbert import HilbertSpec, HilbertSpace, build_space
from .model import (CollapseSet, DecoherenceParams, SystemParams, collapse_set,
                    hamiltonian_finite_A, hamiltonian_ideal, nonhermitian)

_TIME_REFINE = 1e-10     # relative jump-time bisection accuracy
_PULSE_TAIL_CUTOFF = 1e-12


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream; independent of worker scheduling."""
    return np.random.Generator(np.random.Philox(key=[int(base_seed), int(index)]))


class EigenPropagator:
    """Exact no-jump propagator exp(-i H_NH t) via eigendecomposition.

    Valid for time-independent segments; callers fall back to ODE stepping if
    the eigenbasis is ill-conditioned.
    """

    def __init__(self, h_nh: np.ndarray):
        self.dim = h_nh.shape[0]
        self.evals, self.evecs = np.linalg.eig(h_nh)
        self.inv = np.linalg.inv(self.evecs)
        resid = np.linalg.norm(
            self.evecs @ (self.evals[:, None] * self.inv) - h_nh
        )
        scale = max(np.linalg.norm(h_nh), 1.0)
        self.ok = np.isfinite(resid) and resid / scale < 1e-9

    def coeffs(self, psi: np.ndarray) -> np.ndarray:
        return self.inv @ psi

    def state(self, z0: np.ndarray, dt: float) -> np.ndarray:
        return self.evecs @ (np.exp(-1j * self.evals * dt) * z0)

    def norm_sq(self, z0: np.ndarray, dt: float) -> float:
        v = self.state(z0, dt)
        return float(np.real(np.vdot(v, v)))


@dataclass
class Trajectory:
    jumps: list                      # [(time, channel_label)]
    initial_state_label: str
    duration: float
    seed: tuple
    final_norm_accounting: float     # total squared norm at the last event
    channel_counts: dict = field(default_factory=dict)

    def count(self, label_prefix: str) -> int:
        return sum(1 for _, lab in self.jumps if lab.startswith(label_prefix))


def _parse_init(init, space: HilbertSpace):
    if isinstance(init, np.ndarray):
        return init.astype(complex), "custom"
    if isinstance(init, str) and init != "single-photon-input":
        parts = init.replace("|", "").replace(">", "").split(",")
        m, n1, n2 = parts[0].strip(), int(parts[1]), int(parts[2])
        return space.basis_state(m, n1, n2), f"|{m},{n1},{n2}>"
    raise ValueError(f"cannot interpret initial state {init!r}")


def run_trajectory(
    h_nh: np.ndarray,
    collapses: CollapseSet,
    init,
    duration: float,
    seed,
    pulse: PulseSpec | None = None,
    space: HilbertSpace | None = None,
    propagator: EigenPropagator | None = None,
    t_start: float = 0.0,
) -> Trajectory:
    """One stochastic realization; deterministic given (operators, seed).

    ``init`` is a state vector, a basis label like "e,0,0", or
    "single-photon-input" (then ``pulse`` and ``space`` are required and the
    wavepacket-norm bookkeeping applies).
    """
    if isinstance(seed, tuple):
        rng = trajectory_rng(*seed)
        seed_rec = seed
    else:
        rng = trajectory_rng(seed, 0)
        seed_rec = (int(seed), 0)

    labels = collapses.labels()
    mats = collapses.matrices()

    pulse_mode = isinstance(init, str) and init == "single-photon-input"
    if pulse_mode:
        if pulse is None or space is None:
            raise ValueError("single-photon-input requires pulse and space")
        psi = np.zeros(space.dim, dtype=complex)
        init_label = "single-photon-input"
        if "kappa1" not in labels:
            raise ValueError("single-photon-input requires a kappa1 channel")
        c1 = collapses.get("kappa1")
        g10 = space.basis_state("g", 1, 0)
        g00 = space.basis_state("g", 0, 0)
        sqrt_k1 = float(np.linalg.norm(c1 @ g10))
        if sqrt_k1 <= 0:
            raise ValueError("kappa1 channel has zero amplitude; photon cannot couple in")
        i_g10 = int(np.argmax(np.abs(g10)))
        i_g00 = int(np.argmax(np.abs(g00)))
        k1_idx = labels.index("kappa1")
        q = 1.0
    else:
        psi, init_label = _parse_init(init, space) if space is not None else (
            np.asarray(init, dtype=complex), "custom")
        q = 0.0

    prop = propagator
    if prop is None:
        prop = EigenPropagator(h_nh)
    use_eigen = prop.ok
    if not use_eigen:
        warnings.warn("ill-conditioned eigendecomposition: using ODE stepping", stacklevel=2)

    jumps: list = []
    t = t_start
    t_end = t_start + duration

    def total_norm_sq(vec, q_, time_):
        n = float(np.real(np.vdot(vec, vec)))
        if q_ > 0:
            n += q_ * q_ * pulse.remaining_norm(time_)
        return n

    def channel_rates(vec, q_, time_):
        rates = []
        for k, c in enumerate(mats):
            cv = c @ vec
            if q_ > 0 and k == k1_idx:
                cv = cv + q_ * float(gaussian_pulse(pulse, time_)) * g00
            rates.append(float(np.real(np.vdot(cv, cv))))
        return np.array(rates)

    def do_jump(vec, q_, time_):
        rates = channel_rates(vec, q_, time_)
        tot = rates.sum()
        if tot <= 0:
            return None
        k = int(rng.choice(len(rates), p=rates / tot))
        cv = mats[k] @ vec
        if q_ > 0 and k == k1_idx:
            cv = cv + q_ * float(gaussian_pulse(pulse, time_)) * g00
        cv /= np.linalg.norm(cv)
        jumps.append((time_, labels[k]))
        return cv

    while t < t_end:
        start_norm = total_norm_sq(psi, q, t)
        if start_norm <= 0:
            break
        u = rng.random() * start_norm

        in_pulse = q > 0 and pulse.remaining_norm(t) > _PULSE_TAIL_CUTOFF
        if in_pulse:
            # time-dependent source: ODE with a terminal norm-threshold event
            def rhs(tt, y):
                dy = -1j * (h_nh @ y)
                dy[i_g10] -= sqrt_k1 * q * float(gaussian_pulse(pulse, tt))
                return dy

            def event(tt, y):
                return float(np.real(np.vdot(y, y))) + q * q * pulse.remaining_norm(tt) - u

            event.terminal = True
            event.direction = -1
            sol = solve_ivp(rhs, (t, t_end), psi, method="DOP853",
                            rtol=1e-10, atol=1e-12, events=event)
            if not sol.success:
                raise RuntimeError(f"trajectory integration failed: {sol.message}")
            if sol.t_events[0].size:
                t_jump = float(sol.t_events[0][0])
                psi_pre = sol.y_events[0][0]
                new = do_jump(psi_pre, q, t_jump)
                if new is None:
                    raise RuntimeError("norm threshold crossed with zero jump rate")
                psi, q, t = new, 0.0, t_jump
                continue
            psi = sol.y[:, -1]
            if total_norm_sq(psi, q, t_end) > start_norm + 1e-4:
                raise RuntimeError("norm accounting drift exceeds 1e-4 during the pulse")
            t = t_end
            break

        # time-independent segment: exact eigen propagation
        if use_eigen:
            z0 = prop.coeffs(psi)
            remaining = t_end - t
            if prop.norm_sq(z0, remaining) >= u:
                psi = prop.state(z0, remaining)
                t = t_end
                break
            lo, hi = 0.0, remaining
            while hi - lo > _TIME_REFINE * max(hi, 1e-6):
                mid = 0.5 * (lo + hi)
                if prop.norm_sq(z0, mid) >= u:
                    lo = mid
                else:
                    hi = mid
            t_jump = t + 0.5 * (lo + hi)
            psi_pre = prop.state(z0, 0.5 * (lo + hi))
        else:
            def event(tt, y):
                return float(np.real(np.vdot(y, y))) - u

            event.terminal = True
            event.direction = -1
            sol = solve_ivp(lambda _tt, y: -1j * (h_nh @ y), (t, t_end), psi,
                            method="DOP853", rtol=1e-10, atol=1e-12, events=event)
            if not sol.success:
                raise RuntimeError(f"trajectory integration failed: {sol.message}")
            if not sol.t_events[0].size:
                psi = sol.y[:, -1]
                t = t_end
                break
            t_jump = float(sol.t_events[0][0])
            psi_pre = sol.y_events[0][0]

        new = do_jump(psi_pre, q, t_jump)
        if new is None:
            # stationary dark state: nothing can ever jump again
            t = t_end
            break
        psi, t = new, t_jump

    counts: dict = {}
    for _, lab in jumps:
        counts[lab] = counts.get(lab, 0) + 1
    return Trajectory(
        jumps=jumps,
        initial_state_label=init_label,
        duration=duration,
        seed=seed_rec,
        final_norm_accounting=total_norm_sq(psi, q, t),
        channel_counts=counts,
    )


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

_WORKER = {}


def _ensemble_init(h_nh, collapses, duration, pulse, space, base_seed, init, t_start):
    _WORKER.update(
        h_nh=h_nh, collapses=collapses, duration=duration, pulse=pulse,
        space=space, base_seed=base_seed, init=init, t_start=t_start,
        prop=EigenPropagator(h_nh),
    )


def _ensemble_one(index: int) -> Trajectory:
    w = _WORKER
    return run_trajectory(
        w["h_nh"], w["collapses"], w["init"], w["duration"],
        (w["base_seed"], index), pulse=w["pulse"], space=w["space"],
        propagator=w["prop"], t_start=w["t_start"],
    )


def run_ensemble(
    h_nh: np.ndarray,
    collapses: CollapseSet,
    init,
    duration: float,
    n_traj: int,
    base_seed: int,
    pulse: PulseSpec | None = None,
    space: HilbertSpace | None = None,
    threads: int | None = None,
    t_start: float = 0.0,
) -> list:
    """Independent trajectories indexed 0..n_traj-1; order-stable aggregation."""
    return _map_ensemble(_ensemble_one, n_traj, threads,
                         (h_nh, collapses, duration, pulse, space, base_seed, init, t_start))


def _map_ensemble(fn, n_traj: int, threads: int | None, init_args: tuple) -> list:
    """[fn(0), ..., fn(n_traj - 1)] over the worker state set by _ensemble_init.

    Runs in the calling process, or over a fork pool of ``threads`` workers
    (default: the CPU count, at most 8); results come back in index order.
    """
    threads = threads if threads is not None else min(os.cpu_count() or 1, 8)
    if threads <= 1 or n_traj < 8:
        _ensemble_init(*init_args)
        return [fn(i) for i in range(n_traj)]
    import multiprocessing as mp

    with mp.get_context("fork").Pool(threads, initializer=_ensemble_init,
                                     initargs=init_args) as pool:
        return pool.map(fn, range(n_traj), chunksize=max(1, n_traj // (4 * threads)))


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
    var = float(counts.var(ddof=1)) if n > 1 else 0.0
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
    impedance_match: bool = True,
    return_trajectories: bool = False,
):
    """Output-photon counting statistics over a trajectory ensemble.

    Counts are the number of kappa2-channel jumps per trajectory, starting
    from |e,0,0> (setting stage completed) or from a single-photon input.
    kappa1 is set to the numeric setting rate when impedance_match is True.
    """
    p = params
    if impedance_match:
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
    single_rate_dwell_excised: float
    single_is_upper_bound: bool = False
    enhanced_is_upper_bound: bool = False

    @property
    def dwell_fraction(self) -> float:
        return self.excited_dwell_time / self.total_time if self.total_time else math.nan


def _ground_population(psi: np.ndarray, space: HilbertSpace) -> float:
    pg = 0.0
    for i in range(space.dim):
        m, _, _ = space.labels(i)
        if m == "g":
            pg += abs(psi[i]) ** 2
    return pg / float(np.real(np.vdot(psi, psi)))


def dark_count_trajectories(
    params: SystemParams,
    n_traj: int,
    duration: float,
    base_seed: int,
    spec: HilbertSpec = HilbertSpec(1, 2),
    threads: int | None = None,
    burst_close_threshold: float = 0.99,
) -> DarkRateEstimate:
    """Trajectory estimate of the single and enhanced dark-count rates.

    Starts every trajectory in |g,0,0> under the finite-anharmonicity model
    with the split cavity-2 jumps active.  Singles are kappa2_G events outside
    bursts; a kappa2_E event opens a burst (only the first event counts) and
    the burst closes at the first subsequent jump whose renormalized post-jump
    state is ground-dominated.  Rates use the ground-exposure time; with zero
    events the rate reported is the 1/T upper bound.

    kappa1 defaults to the impedance-matched setting rate when unset, so the
    trajectory shows the recovery jumps of the duty cycle.
    """
    if not math.isfinite(params.anharmonicity):
        raise ValueError("dark counts require finite anharmonicity")
    p = params
    if p.kappa1 == 0:
        p = p.replace(kappa1=setting_rate(params, n2_trunc=10).value)
    space = build_space(spec)
    h = hamiltonian_finite_A(p, space)
    cols = collapse_set(p, None, space, split=True)
    h_nh = nonhermitian(h, cols)

    # burst segmentation needs post-jump states: rerun each trajectory and
    # walk its jumps with the deterministic propagator; sums in index order
    replays = _map_ensemble(
        functools.partial(_replay_with_states, close_threshold=burst_close_threshold),
        n_traj, threads, (h_nh, cols, duration, None, space, base_seed, "g,0,0", 0.0))
    singles = 0
    bursts = 0
    dwell = 0.0
    total_time = n_traj * duration
    for tr in replays:
        singles += tr["singles"]
        bursts += tr["bursts"]
        dwell += tr["dwell"]

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
    s_rate_x = singles / exposure if exposure > 0 else math.nan
    e_rate, e_err, e_ub = rate_err(bursts, exposure if exposure > 0 else total_time)
    return DarkRateEstimate(
        single_rate=s_rate, single_error=s_err,
        enhanced_rate=e_rate, enhanced_error=e_err,
        n_events_single=singles, n_events_enhanced=bursts,
        total_time=total_time, excited_dwell_time=dwell,
        single_rate_dwell_excised=s_rate_x,
        single_is_upper_bound=s_ub, enhanced_is_upper_bound=e_ub,
    )


def _replay_with_states(index: int, close_threshold: float) -> dict:
    """Run one dark-count trajectory, tracking burst opening/closing."""
    w = _WORKER
    tr = _ensemble_one(index)
    # walk the jump record again to classify events; recompute post-jump states
    cols, prop, space = w["collapses"], w["prop"], w["space"]
    mats = {lab: m for lab, m in cols.jumps}
    psi = space.basis_state("g", 0, 0)
    t_prev = 0.0
    in_burst = False
    burst_start = 0.0
    singles = bursts = 0
    dwell = 0.0
    for t_jump, lab in tr.jumps:
        z0 = prop.coeffs(psi)
        psi = prop.state(z0, t_jump - t_prev)
        psi = mats[lab] @ psi
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise RuntimeError("replay produced a zero post-jump state")
        psi /= nrm
        t_prev = t_jump
        if lab == "kappa2_E" and not in_burst:
            bursts += 1
            in_burst = True
            burst_start = t_jump
        elif in_burst and _ground_population(psi, space) > close_threshold:
            dwell += t_jump - burst_start
            in_burst = False
        if lab == "kappa2_G" and not in_burst:
            singles += 1
    if in_burst:
        dwell += tr.duration - burst_start
    return {"singles": singles, "bursts": bursts, "dwell": dwell}


# ---------------------------------------------------------------------------
# no-jump evolution analysis
# ---------------------------------------------------------------------------

@dataclass
class NoJumpRates:
    steady: float            # late-time normalized kappa2_E rate (enhanced)
    dynamical: float         # window-integrated kappa2_E rate (post-dark-count)
    steady_single: float     # late-time normalized kappa2_G rate
    window: float
    converged: bool


def no_jump_rates(
    params: SystemParams,
    t_end: float = 2000.0,
    window: float | None = None,
    spec: HilbertSpec = HilbertSpec(1, 2),
    n_grid: int = 4000,
) -> NoJumpRates:
    """Dark-count rates from pure non-Hermitian (no-jump) evolution of |g,0,0>.

    Steady rates are the t -> infinity limits of
    Gamma_j(t) = <psi|C_j^dag C_j|psi> / <psi|psi> (evaluated from the
    slowest-decaying eigenvector reached from the ground state); the dynamical
    enhanced rate is the time-integrated ratio over the initial oscillation
    window, default 10 periods of 2 pi / sqrt(g2^2 + omega^2).
    """
    if not math.isfinite(params.anharmonicity):
        raise ValueError("no-jump analysis requires finite anharmonicity")
    p = params
    if p.kappa1 == 0:
        p = p.replace(kappa1=setting_rate(params, n2_trunc=10).value)
    space = build_space(spec)
    h = hamiltonian_finite_A(p, space)
    cols = collapse_set(p, None, space, split=True)
    h_nh = nonhermitian(h, cols)
    c_g = cols.get("kappa2_G")
    c_e = cols.get("kappa2_E")

    prop = EigenPropagator(h_nh)
    psi0 = space.basis_state("g", 0, 0)

    # late-time limit: slowest-decaying eigenvector with ground-state overlap
    ov = np.abs(prop.inv @ psi0)
    decays = -prop.evals.imag
    i0 = int(np.argmax(np.where(ov > 1e-12, -decays, -np.inf)))
    v0 = prop.evecs[:, i0]
    v0 = v0 / np.linalg.norm(v0)
    steady_e = float(np.linalg.norm(c_e @ v0) ** 2)
    steady_g = float(np.linalg.norm(c_g @ v0) ** 2)

    # convergence of the instantaneous rate over the last decade of time
    z0 = prop.coeffs(psi0)
    ts = np.geomspace(max(t_end / 100.0, 1e-3), t_end, 60)
    rates_e = []
    for t in ts:
        v = prop.state(z0, t)
        rates_e.append(np.linalg.norm(c_e @ v) ** 2 / np.real(np.vdot(v, v)))
    last = np.array(rates_e[-20:])
    converged = bool(np.max(np.abs(last - last[-1])) <= 0.01 * abs(last[-1]))
    if not converged:
        warnings.warn("no-jump enhanced rate not converged over the last decade",
                      stacklevel=2)

    if window is None:
        window = 10.0 * 2.0 * np.pi / math.hypot(params.g2, params.omega)
    tg = np.linspace(0.0, window, n_grid)
    num = np.empty_like(tg)
    den = np.empty_like(tg)
    for k, t in enumerate(tg):
        v = prop.state(z0, t)
        num[k] = np.linalg.norm(c_e @ v) ** 2
        den[k] = np.real(np.vdot(v, v))
    dynamical = float(np.trapezoid(num, tg) / np.trapezoid(den, tg))

    return NoJumpRates(steady=steady_e, dynamical=dynamical,
                       steady_single=steady_g, window=window, converged=converged)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def trajectories_to_csv(trajectories: list, path, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("trajectory_id,jump_time,channel\n")
        for i, tr in enumerate(trajectories):
            for t, lab in tr.jumps:
                fh.write("%d,%.12g,%s\n" % (i, t, lab))
