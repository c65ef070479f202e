import math
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import scipy.linalg
from scipy import stats
from scipy.integrate import solve_ivp

import frozen_trajectory
import spt.montecarlo as mc
import spt.ode
from graph_reach import tail_keep
from spt.hilbert import HilbertSpec, build_space
from spt.model import (SystemParams, collapse_set, hamiltonian_finite_A, hamiltonian_ideal,
                       nonhermitian)
from spt.dynamics import PulseSpec, gain_and_bandwidth, gaussian_pulse
from spt.effective import dark_rates_steady, setting_rate
from spt.montecarlo import (EigenPropagator, counts_to_statistics, dark_count_trajectories,
                            gain_statistics, no_jump_rates, run_ensemble, run_trajectory,
                            trajectories_to_csv, trajectory_rng)


@pytest.fixture
def decaying_level():
    space = build_space(HilbertSpec(0, 1))
    k2 = 0.7
    cols = {"kappa2": np.sqrt(k2) * space.annihilation("cavity2")}
    h_nh = nonhermitian(np.zeros((space.dim,) * 2, dtype=complex), cols)
    return space, cols, h_nh, k2


class TestRunTrajectory:
    def test_single_decay_exponential_times(self, decaying_level):
        space, cols, h_nh, k2 = decaying_level
        trajs = run_ensemble(h_nh, cols, "e,0,1", 80.0, 4000, 42, space=space, threads=1)
        assert all(len(tr.jumps) == 1 for tr in trajs)
        times = [tr.jumps[0][0] for tr in trajs]
        assert stats.kstest(times, "expon", args=(0, 1 / k2)).pvalue > 0.01

    def test_no_collapses_no_jumps(self):
        space = build_space(HilbertSpec(0, 1))
        cols = {}
        h = np.zeros((space.dim,) * 2, dtype=complex)
        tr = run_trajectory(h, cols, "e,0,1", 50.0, (1, 0), space=space)
        assert tr.jumps == []
        assert tr.final_norm_accounting == pytest.approx(1.0)

    @pytest.mark.parametrize("duration", [math.nan, -5.0, 0.0, math.inf])
    def test_bad_duration_is_value_error(self, decaying_level, duration):
        # it once returned an empty Trajectory echoing the duration (inf: NaN warnings)
        space, cols, h_nh, _ = decaying_level
        with pytest.raises(ValueError, match="finite duration > 0"):
            run_trajectory(h_nh, cols, "e,0,1", duration, (1, 0), space=space)

    def test_deterministic_given_seed(self, decaying_level):
        space, cols, h_nh, _ = decaying_level
        t1 = run_trajectory(h_nh, cols, "e,0,1", 80.0, (7, 3), space=space)
        t2 = run_trajectory(h_nh, cols, "e,0,1", 80.0, (7, 3), space=space)
        assert t1.jumps == t2.jumps

    def test_thread_count_invariance(self, decaying_level):
        space, cols, h_nh, _ = decaying_level
        serial = run_ensemble(h_nh, cols, "e,0,1", 80.0, 16, 5, space=space, threads=1)
        pooled = run_ensemble(h_nh, cols, "e,0,1", 80.0, 16, 5, space=space, threads=2)
        assert [t.jumps for t in serial] == [t.jumps for t in pooled]

    def test_post_jump_norm_unity(self):
        space = build_space(HilbertSpec(1, 2))
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa1=0.05, kappa2=1)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, None, space)
        h_nh = nonhermitian(h, cols)
        prop = EigenPropagator(h_nh)
        tr = run_trajectory(h_nh, cols, "e,0,0", 50.0, (11, 0), space=space)
        # replay: between jumps the norm decreases; after each jump it is 1
        psi = space.basis_state("e", 0, 0)
        t_prev = 0.0
        for t_jump, lab in tr.jumps:
            z0 = prop.coeffs(psi)
            assert prop.norm_sq(z0, t_jump - t_prev) <= 1.0 + 1e-9
            psi = cols[lab] @ prop.state(z0, t_jump - t_prev)
            psi /= np.linalg.norm(psi)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
            t_prev = t_jump

    @pytest.mark.parametrize("init", ["e,0", "e,0,0,0", 3])
    def test_malformed_init_is_value_error(self, init):
        with pytest.raises(ValueError, match=re.escape(repr(init))):
            mc._parse_init(init, build_space(HilbertSpec(0, 1)))

    def test_rng_streams_are_counter_based(self):
        a = trajectory_rng(123, 0).random(4)
        b = trajectory_rng(123, 1).random(4)
        c = trajectory_rng(123, 0).random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
    def test_seed_outside_64_bits_is_value_error(self, seed):
        # below -2**63 numpy raised OverflowError; from 2**63 up it built the key
        # through a float64 array, so 2**63 and 2**63 + 1 shared a stream
        with pytest.raises(ValueError, match=r"seed must be in \[-2\*\*63, 2\*\*63\)"):
            trajectory_rng(seed, 0)

    @pytest.mark.parametrize("seed, neighbour", [(-2**63, -2**63 + 1), (-1, 0),
                                                 (2**63 - 1, 2**63 - 2)])
    def test_seeds_at_the_ends_of_the_range(self, seed, neighbour):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy warned when it cast a key through a float
            assert trajectory_rng(seed, 0).random() != trajectory_rng(neighbour, 0).random()


def _plain_bisection(prop, z0, span, u, stats):
    """The jump-time search as a bisection that evaluates every midpoint: the oracle."""
    lo, hi = 0.0, span
    while hi - lo > mc._TIME_REFINE * max(hi, 1e-6):
        mid = 0.5 * (lo + hi)
        stats["norm_evals"] += 1
        if prop.norm_sq(z0, mid) >= u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ideal(spec, g1=0.25):
    p0 = SystemParams(g1=g1, g2=1, omega=2, kappa2=1)
    p = p0.replace(kappa1=setting_rate(p0, 10).value)
    space = build_space(spec)
    cols = collapse_set(p, None, space)
    return space, cols, nonhermitian(hamiltonian_ideal(p, space), cols)


def _finite_a(anharmonicity=40.0, spec=HilbertSpec(1, 2)):
    p0 = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=anharmonicity)
    p = p0.replace(kappa1=setting_rate(p0, 10).value)
    space = build_space(spec)
    cols = collapse_set(p, None, space, split=True)
    return space, cols, nonhermitian(hamiltonian_finite_A(p, space), cols)


def _custom_state():
    space, cols, h_nh = _ideal(HilbertSpec(1, 6))
    rng = np.random.default_rng(4)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return space, cols, h_nh, psi / np.linalg.norm(psi)


def _pulse_input():
    space, cols, h_nh = _ideal(HilbertSpec(1, 10))
    tau = 6.0 / setting_rate(SystemParams(g1=0.25, g2=1, omega=2, kappa2=1), 10).value
    pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
    return space, cols, h_nh, "single-photon-input", 9 * tau + 400.0, 8, pulse


# name -> (space, collapses, H_NH, init, duration, trajectories, pulse)
_SEARCH_CASES = {
    "e00": lambda: (*_ideal(HilbertSpec(2, 16)), "e,0,0", 700.0, 12, None),
    "custom": lambda: (*_custom_state(), 300.0, 12, None),
    "pulse-input": _pulse_input,
    "dark-finite-A": lambda: (*_finite_a(), "g,0,0", 10000.0, 8, None),
    # a flat |g,0,0> start under a large detuned |lambda|: the widest windows
    "dark-large-A": lambda: (*_finite_a(100.0, HilbertSpec(2, 2)), "g,0,0", 40000.0, 32, None),
}


class TestJumpTimeSearch:
    """The Newton-certified search returns the plain bisection's jump times bit for bit."""

    @staticmethod
    def _ensemble(case, seed):
        space, cols, h_nh, init, duration, n_traj, pulse = case
        return run_ensemble(h_nh, cols, init, duration, n_traj, seed, pulse=pulse,
                            space=space, threads=1)

    @pytest.mark.parametrize("name", sorted(_SEARCH_CASES))
    def test_jumps_equal_plain_bisection(self, name, monkeypatch):
        case = _SEARCH_CASES[name]()
        for seed in (3, 17, 2024):
            fast = self._ensemble(case, seed)
            with monkeypatch.context() as m:
                m.setattr(mc, "_jump_time", _plain_bisection)
                oracle = self._ensemble(case, seed)
            assert [t.jumps for t in fast] == [t.jumps for t in oracle]
            n_jumps = sum(len(t.jumps) for t in fast)
            assert n_jumps > 0
            assert sum(t.search_fallbacks for t in fast) == 0
            assert sum(t.newton_steps for t in fast) > 0
            assert sum(t.norm_evals for t in fast) < 0.5 * sum(t.norm_evals for t in oracle)

    @pytest.mark.parametrize("patch", ["no-newton", "huge-margin"])
    def test_without_a_window_every_midpoint_is_evaluated(self, patch, monkeypatch):
        case = _SEARCH_CASES["e00"]()
        fast = self._ensemble(case, 5)
        with monkeypatch.context() as m:
            m.setattr(mc, "_jump_time", _plain_bisection)
            oracle = self._ensemble(case, 5)
        if patch == "no-newton":
            monkeypatch.setattr(mc, "_NEWTON_STEPS", 0)
        else:
            monkeypatch.setattr(EigenPropagator, "margin", lambda self, span: 1e6)
        forced = self._ensemble(case, 5)
        assert [t.jumps for t in forced] == [t.jumps for t in oracle] == [
            t.jumps for t in fast]
        # every midpoint is evaluated, plus at most the certification calls
        assert sum(t.norm_evals for t in forced) >= sum(t.norm_evals for t in oracle)
        searches = sum(len(t.jumps) for t in forced)
        assert sum(t.search_fallbacks for t in forced) == (searches if patch == "no-newton" else 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(_SEARCH_CASES))
    def test_jumps_and_norms_equal_the_frozen_loop(self, name, threads):
        space, cols, h_nh, init, duration, n_traj, pulse = _SEARCH_CASES[name]()
        prop = EigenPropagator(h_nh)
        for seed in (3, 17, 2024):
            fast = run_ensemble(h_nh, cols, init, duration, n_traj, seed, pulse=pulse,
                                space=space, threads=threads)
            path = None if pulse is None else mc.PulsePath(h_nh, cols, space, pulse, 0.0,
                                                           duration)
            frozen = [frozen_trajectory.run_trajectory(h_nh, cols, init, duration, (seed, i),
                                                       pulse=pulse, space=space,
                                                       propagator=prop, pulse_path=path)
                      for i in range(n_traj)]
            assert [t.jumps for t in fast] == [t.jumps for t in frozen]
            assert ([t.final_norm_accounting for t in fast]
                    == [t.final_norm_accounting for t in frozen])
            assert sum(len(t.jumps) for t in fast) > 0
            assert sum(t.search_fallbacks for t in fast) == 0

    def test_trajectory_built_without_diagnostics(self):
        tr = mc.Trajectory(jumps=[], duration=1.0, final_norm_accounting=1.0)
        assert (tr.norm_evals, tr.newton_steps, tr.search_fallbacks) == (0, 0, 0)


def _generator_position(rng):
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"]


# a rate vector mixes zeros, tiny (subnormal) rates and ordinary ones
_RATE = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e3))


class TestChannelDraw:
    """The inline channel draw is Generator.choice(len(p), p=p) step for step."""

    @given(st.lists(_RATE, min_size=1, max_size=8).filter(lambda r: sum(r) > 0),
           st.integers(0, 2**63 - 1))
    @example([0.0, 0.0, 2.5, 0.0], 7)             # one channel open
    @example([5e-324, 0.0, 1e-310, 5e-324], 3)    # subnormal rates only
    @example([1e-300, 1e3], 11)
    def test_same_index_and_stream_position_as_choice(self, rates, seed):
        rates = np.array(rates)
        mine, ref = trajectory_rng(seed, 0), trajectory_rng(seed, 0)
        k = mc._channel(rates, mine)
        assert k == ref.choice(len(rates), p=rates / rates.sum())
        assert rates[k] > 0
        assert _generator_position(mine) == _generator_position(ref)

    def test_no_rate_draws_nothing(self):
        rng = trajectory_rng(5, 0)
        before = _generator_position(rng)
        assert mc._channel(np.zeros(3), rng) is None
        assert _generator_position(rng) == before

    @pytest.mark.parametrize("rates", [[math.nan, 1.0], [math.inf, 1.0], [1.0, math.inf, math.inf],
                                       [1e308, 1e308]])
    def test_rates_that_are_not_finite_raise(self, rates):
        rates = np.array(rates)
        with np.errstate(over="ignore", invalid="ignore"):   # the sum overflows; inf / inf
            with pytest.raises(ValueError, match="jump rates must be finite"):
                mc._channel(rates, trajectory_rng(5, 0))
            with pytest.raises(ValueError):
                trajectory_rng(5, 0).choice(len(rates), p=rates / rates.sum())


class _SolveIvpPath:
    """The oracle: one solve_ivp per crossing, with a terminal norm-threshold event.

    With a pulse it is the in-pulse step of one trajectory, from psi = 0 at
    t_start; with ``pulse`` None it is the source-free segment from ``psi0`` that
    an ill-conditioned eigenbasis falls back to, its event on ||psi||^2 alone.
    """

    def __init__(self, h_nh, collapses, space, pulse, t_start, t_end, psi0=None):
        self.h_nh, self.pulse = h_nh, pulse
        self.t_start, self.t_end = float(t_start), float(t_end)
        self.psi0 = np.zeros(h_nh.shape[0], dtype=complex) if psi0 is None else psi0
        if pulse is not None:
            g10 = space.basis_state("g", 1, 0)
            self.sqrt_k1 = float(np.linalg.norm(collapses["kappa1"] @ g10))
            self.i_g10 = int(np.argmax(np.abs(g10)))

    def crossing(self, u):
        h_nh, pulse = self.h_nh, self.pulse
        if pulse is None:
            def rhs(_tt, y):
                return -1j * (h_nh @ y)

            def event(tt, y):
                return float(np.real(np.vdot(y, y))) - u
        else:
            sqrt_k1, i_g10, q = self.sqrt_k1, self.i_g10, 1.0

            def rhs(tt, y):
                dy = -1j * (h_nh @ y)
                dy[i_g10] -= sqrt_k1 * q * float(gaussian_pulse(pulse, tt))
                return dy

            def event(tt, y):
                return float(np.real(np.vdot(y, y))) + q * q * pulse.remaining_norm(tt) - u

        event.terminal = True
        event.direction = -1
        sol = solve_ivp(rhs, (self.t_start, self.t_end), self.psi0,
                        method="DOP853", rtol=1e-10, atol=1e-12, events=event)
        assert sol.success
        if sol.t_events[0].size:
            return float(sol.t_events[0][0]), sol.y_events[0][0], True
        return self.t_end, sol.y[:, -1], False


class TestPulsePath:
    """Single-photon-input trajectories share one pre-click path, and get the
    jump times of a solve_ivp event run per trajectory bit for bit."""

    @staticmethod
    def _both(monkeypatch, n2=10, seeds=(3, 17, 2024), threads=1, duration=None):
        """Shared-path ensembles over ``threads`` workers, and the oracle's in one."""
        space, cols, h_nh, init, full, n_traj, pulse = _pulse_input()
        if n2 != 10:
            space, cols, h_nh = _ideal(HilbertSpec(1, n2))

        def ensembles(workers):
            return [run_ensemble(h_nh, cols, init, duration or full, n_traj, seed, pulse=pulse,
                                 space=space, threads=workers)
                    for seed in seeds]

        shared = ensembles(threads)
        with monkeypatch.context() as m:
            m.setattr(mc, "PulsePath", _SolveIvpPath)
            oracle = ensembles(1)
        for fast, ref in zip(shared, oracle):
            assert [t.jumps for t in fast] == [t.jumps for t in ref]
            assert ([t.final_norm_accounting for t in fast]
                    == [t.final_norm_accounting for t in ref])
        return shared

    @pytest.mark.parametrize("n2, threads", [(10, 1), (10, 2), (12, 1), (12, 2)])
    def test_jumps_equal_solve_ivp_per_trajectory(self, n2, threads, monkeypatch):
        # one seed over the pool: with multithreaded BLAS its workers oversubscribe
        # the cores, and a pool ensemble costs several times a serial one
        seeds = (3, 17, 2024) if threads == 1 else (17,)
        shared = self._both(monkeypatch, n2=n2, seeds=seeds, threads=threads)
        assert sum(len(t.jumps) for ens in shared for t in ens) > 0

    def test_path_that_reaches_the_end_without_a_crossing(self, monkeypatch):
        # up to 4 tau of the 4.5 tau pulse centre most thresholds are not met
        tau = _pulse_input()[-1].tau
        (shared,) = self._both(monkeypatch, seeds=(5,), duration=4.0 * tau)
        assert sum(not t.jumps for t in shared) >= len(shared) // 2
        assert any(t.jumps for t in shared)

    def test_one_pulse_ode_per_ensemble(self, monkeypatch):
        space, cols, h_nh, init, duration, n_traj, pulse = _pulse_input()
        built = []

        class CountedDOP853(spt.ode.DOP853):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        def no_solve_ivp(*args, **kwargs):
            raise AssertionError("solve_ivp called on the eigen path")

        monkeypatch.setattr(spt.ode, "DOP853", CountedDOP853)
        monkeypatch.setattr(mc, "solve_ivp", no_solve_ivp)
        trajs = run_ensemble(h_nh, cols, init, duration, n_traj, 9, pulse=pulse, space=space,
                             threads=1)
        assert len(trajs) == n_traj and built == [0.0]
        # a caller without an ensemble gets a path of its own
        run_trajectory(h_nh, cols, init, duration, (9, 0), pulse=pulse, space=space)
        assert built == [0.0, 0.0]

    def test_pool_workers_replay_the_callers_steps(self, monkeypatch):
        space, cols, h_nh, init, duration, n_traj, pulse = _pulse_input()
        ctx, caller = multiprocessing.get_context("fork"), os.getpid()
        steps = {"caller": ctx.Value("i", 0), "workers": ctx.Value("i", 0)}

        class CountedDOP853(spt.ode.DOP853):
            def step(self):
                count = steps["caller" if os.getpid() == caller else "workers"]
                with count.get_lock():
                    count.value += 1
                return super().step()

        monkeypatch.setattr(spt.ode, "DOP853", CountedDOP853)
        runs = {}
        for threads in (1, 2):
            for count in steps.values():
                count.value = 0
            runs[threads] = (run_ensemble(h_nh, cols, init, duration, n_traj, 17, pulse=pulse,
                                          space=space, threads=threads),
                             steps["caller"].value, steps["workers"].value)
        (serial, serial_steps, _), (pooled, pooled_steps, worker_steps) = runs[1], runs[2]
        assert [t.jumps for t in pooled] == [t.jumps for t in serial]
        assert ([t.final_norm_accounting for t in pooled]
                == [t.final_norm_accounting for t in serial])
        # over the pool the caller takes the steps a serial run takes, as far as
        # the smallest threshold reaches, and no worker steps at all
        assert worker_steps == 0 and pooled_steps == serial_steps > 0

    def test_path_over_another_interval_is_refused(self):
        space, cols, h_nh, init, duration, _, pulse = _pulse_input()
        path = mc.PulsePath(h_nh, cols, space, pulse, 0.0, duration)
        with pytest.raises(ValueError, match="another time interval"):
            run_trajectory(h_nh, cols, init, duration - 1.0, (1, 0), pulse=pulse, space=space,
                           pulse_path=path)

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_path_that_does_not_go_forward_is_refused(self, duration):
        space, cols, h_nh, init, _, _, pulse = _pulse_input()
        with pytest.raises(ValueError, match="t_bound must be after t0"):
            mc.PulsePath(h_nh, cols, space, pulse, 0.0, duration)
        with pytest.raises(ValueError, match="finite duration > 0"):
            run_trajectory(h_nh, cols, init, duration, (1, 0), pulse=pulse, space=space)


def _pulse_input_short():
    space, cols, h_nh, init, duration, _, pulse = _pulse_input()
    return space, cols, h_nh, init, duration - 300.0, 3, pulse


# the _SEARCH_CASES cut short, since DOP853 steps every segment: one A = 40
# dark-count trajectory over 1500 takes about 24 s, at A = 10 over 100 about 0.7 s
_FALLBACK_CASES = {
    "e00": lambda: (*_ideal(HilbertSpec(2, 8)), "e,0,0", 150.0, 3, None),
    "custom": lambda: (*_custom_state(), 200.0, 4, None),
    "pulse-input": _pulse_input_short,
    "dark-finite-A": lambda: (*_finite_a(10.0), "g,0,0", 100.0, 2, None),
}


@pytest.fixture
def ill_conditioned(monkeypatch):
    """Every ``EigenPropagator`` built in the test reports ``ok`` False."""
    init = EigenPropagator.__init__

    def forced(self, h_nh):
        init(self, h_nh)
        self.ok = False

    monkeypatch.setattr(EigenPropagator, "__init__", forced)


class TestIllConditionedFallback:
    """With ``EigenPropagator.ok`` False every time-independent segment is stepped
    by DOP853 through a source-free ``PulsePath``, and gets the jumps of the
    per-segment solve_ivp event search it replaced, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_FALLBACK_CASES))
    def test_jumps_equal_solve_ivp_per_segment(self, name, ill_conditioned, monkeypatch):
        space, cols, h_nh, init, duration, n_traj, pulse = _FALLBACK_CASES[name]()

        def ensemble(seed):
            with pytest.warns(UserWarning, match="ill-conditioned eigendecomposition"):
                return run_ensemble(h_nh, cols, init, duration, n_traj, seed, pulse=pulse,
                                    space=space, threads=1)

        for seed in (3, 17):
            fast = ensemble(seed)
            with monkeypatch.context() as m:
                m.setattr(mc, "PulsePath", _SolveIvpPath)
                oracle = ensemble(seed)
            assert [t.jumps for t in fast] == [t.jumps for t in oracle]
            assert ([t.final_norm_accounting for t in fast]
                    == [t.final_norm_accounting for t in oracle])
            assert sum(len(t.jumps) for t in fast) > 0
            assert sum(t.norm_evals for t in fast) == 0   # the eigenbasis is never used

    def test_custom_state_without_space(self, ill_conditioned):
        space, cols, h_nh, psi, duration, _, _ = _FALLBACK_CASES["custom"]()
        with pytest.warns(UserWarning, match="ill-conditioned eigendecomposition"):
            tr = run_trajectory(h_nh, cols, psi, duration, (5, 0))
        assert tr.jumps


class TestEnsembleSetUp:
    """An ensemble's eigenbasis and pulse path are built once, in the calling
    process, whether its trajectories run there or over a fork pool."""

    def test_one_eigenbasis_in_the_caller_over_a_pool(self, decaying_level, monkeypatch):
        space, cols, h_nh, _ = decaying_level
        init, built = EigenPropagator.__init__, []

        def counted(self, h):
            built.append(os.getpid())
            init(self, h)

        monkeypatch.setattr(EigenPropagator, "__init__", counted)
        trajs = run_ensemble(h_nh, cols, "e,0,1", 80.0, 16, 5, space=space, threads=2)
        assert len(trajs) == 16 and all(len(t.jumps) == 1 for t in trajs)
        # the workers inherit the caller's eigenbasis; a build in one would not show here
        assert built == [os.getpid()]

    def test_bad_pulse_input_raises_before_the_pool(self, monkeypatch):
        space, cols, h_nh, init, duration, _, pulse = _pulse_input()
        no_kappa1 = {lab: c for lab, c in cols.items() if lab != "kappa1"}
        contexts, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: contexts.append(method) or get_context(method))
        with pytest.raises(ValueError, match="kappa1 channel"):
            run_ensemble(h_nh, no_kappa1, init, duration, 8, 1, pulse=pulse, space=space,
                         threads=2)
        assert contexts == []

    @pytest.mark.parametrize("as_vector", [False, True])
    def test_pulse_with_another_init_is_refused_before_the_pool(self, monkeypatch, as_vector):
        # such a pulse was never read: at (1,4), 3 trajectories, seed 1 the
        # counts were the same with and without it
        space, cols, h_nh, _, duration, _, pulse = _pulse_input()
        init = space.basis_state("e", 0, 0) if as_vector else "e,0,0"
        contexts, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: contexts.append(method) or get_context(method))
        refused = "a pulse is read only by init='single-photon-input'"
        with pytest.raises(ValueError, match=refused):
            run_ensemble(h_nh, cols, init, duration, 8, 1, pulse=pulse, space=space, threads=2)
        with pytest.raises(ValueError, match=refused):
            run_trajectory(h_nh, cols, init, duration, 1, pulse=pulse, space=space)
        with pytest.raises(ValueError, match=refused):
            gain_statistics(SystemParams(g1=0.25, g2=1, omega=2, kappa2=1), 3, 100.0, 1,
                            spec=HilbertSpec(1, 4), init=init,
                            pulse=PulseSpec.from_tau(20.0, 60.0), threads=1)
        assert contexts == []

    @pytest.mark.parametrize("n_traj, duration", [
        (0, 100.0), (-1, 100.0), (2, 0.0), (2, -5.0), (2, math.inf), (2, math.nan)])
    @pytest.mark.parametrize("engine", ["gain", "dark"])
    def test_empty_ensemble_is_value_error(self, engine, n_traj, duration):
        with pytest.raises(ValueError, match="n_traj >= 1 and a finite duration > 0"):
            if engine == "gain":
                gain_statistics(SystemParams(g1=0.05, g2=1, omega=2, kappa2=1), n_traj,
                                duration, 1, spec=HilbertSpec(1, 2), threads=1)
            else:
                dark_count_trajectories(
                    SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=40),
                    n_traj, duration, 1, threads=1)


class TestCountStatistics:
    def test_mandel_forms(self):
        counts = np.array([10, 12, 8, 14, 6, 20, 2, 12])
        st_ = counts_to_statistics(counts)
        mean, var = counts.mean(), counts.var(ddof=1)
        assert st_.mean == pytest.approx(mean)
        assert st_.variance == pytest.approx(var)
        assert st_.g2_zero == pytest.approx(1 + (var - mean) / mean**2)
        assert st_.g2_zero_paper_sign == pytest.approx(1 + (var + mean) / mean**2)
        assert sum(st_.histogram.values()) == len(counts)

    def test_paper_printed_numbers_consistency(self):
        # the Mandel (minus-sign) form reproduces 1.66 from the quoted mean and
        # variance, while the plus-sign variant gives 1.83
        mean, var = 11.67, 101.0
        assert 1 + (var - mean) / mean**2 == pytest.approx(1.66, abs=0.01)
        assert 1 + (var + mean) / mean**2 == pytest.approx(1.83, abs=0.01)


class TestGainStatistics:
    def test_ensemble_mean_matches_master_equation(self):
        p = SystemParams(g1=0.25, g2=1, omega=2, kappa2=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st_ = gain_statistics(p, 300, 700.0, 123, spec=HilbertSpec(2, 16), threads=1)
            oracle = gain_and_bandwidth(p, n2_trunc=16).gain
        assert st_.mean == pytest.approx(oracle, abs=3 * st_.statistical_error)
        # super-Poissonian with 3 sigma confidence
        n = st_.n_traj
        se_var = st_.variance * np.sqrt(8.0 / n)
        assert st_.variance - st_.mean > 3 * np.sqrt(se_var**2 + st_.statistical_error**2)

    def test_jump_channel_frequencies_match_density_matrix(self):
        # integrated <C^dag C> from the exact resolvent equals ensemble counts
        from spt.dynamics import integrated_observable, liouvillian, steady_state

        p0 = SystemParams(g1=0.25, g2=1, omega=2, kappa2=1)
        p = p0.replace(kappa1=setting_rate(p0, 10).value)
        spec = HilbertSpec(1, 10)
        space = build_space(spec)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, None, space)
        lv = liouvillian(h, cols)
        psi0 = space.basis_state("e", 0, 0)
        rho0 = np.outer(psi0, psi0.conj())
        rho_inf = steady_state(lv, space.dim)
        expected = {}
        for lab, c in cols.items():
            expected[lab] = integrated_observable(lv, rho0, rho_inf, c.conj().T @ c,
                                                  tail_keep(lv, rho0, rho_inf))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, trajs = gain_statistics(p0, 400, 700.0, 321, spec=spec,
                                       threads=1, return_trajectories=True)
        for lab in ("kappa1", "kappa2"):
            counts = np.array([tr.count(lab) for tr in trajs])
            se = counts.std(ddof=1) / np.sqrt(len(counts))
            # every completed duty cycle exits through exactly one port-1 jump,
            # so the kappa1 counts have zero variance: allow a tiny floor
            assert counts.mean() == pytest.approx(expected[lab], abs=3.5 * se + 1e-9)

    def test_single_photon_input_trajectories(self):
        # absorbed photons trigger avalanches; reflection probability is small at IM
        p0 = SystemParams(g1=0.25, g2=1, omega=2, kappa2=1)
        gs = setting_rate(p0, 10).value
        tau = 6.0 / gs
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st_ = gain_statistics(p0, 120, 9.0 * tau + 400.0, 777,
                                  spec=HilbertSpec(1, 12), init="single-photon-input",
                                  pulse=pulse, threads=1)
        oracle = gain_and_bandwidth(p0, n2_trunc=12).gain
        assert st_.mean == pytest.approx(oracle, abs=3.5 * st_.statistical_error)
        triggered = sum(freq for c, freq in st_.histogram.items() if c > 0)
        assert triggered >= 0.85 * st_.n_traj


class TestDarkCounts:
    def test_trajectory_singles_match_no_jump_steady(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = dark_count_trajectories(p, 150, 10000.0, 11, threads=1)
            nj = no_jump_rates(p)
        assert est.n_events_single > 1000
        assert est.single_rate == pytest.approx(nj.steady_single, rel=0.05)
        # the 7-state inversion is the second-order estimate; it sits ~13% low here
        inv = dark_rates_steady(p).single.value
        assert est.single_rate == pytest.approx(inv, rel=0.25)
        assert est.excited_dwell_time / est.total_time < 0.2

    def test_one_pass_tally_matches_replay(self):
        # the former route: rerun each trajectory, then walk its jump record again
        # with the propagator to recover the post-jump states
        def replay(tr, prop, mats, space):
            psi, t_prev, burst_start = space.basis_state("g", 0, 0), 0.0, None
            singles = bursts = 0
            dwell = 0.0
            for t_jump, lab in tr.jumps:
                psi = mats[lab] @ prop.state(prop.coeffs(psi), t_jump - t_prev)
                psi /= np.linalg.norm(psi)
                t_prev = t_jump
                ground = sum(abs(psi[i]) ** 2 for i in range(space.dim)
                             if space.labels(i)[0] == "g")
                if lab == "kappa2_E" and burst_start is None:
                    bursts += 1
                    burst_start = t_jump
                elif burst_start is not None and ground / np.vdot(psi, psi).real > 0.99:
                    dwell += t_jump - burst_start
                    burst_start = None
                if lab == "kappa2_G" and burst_start is None:
                    singles += 1
            if burst_start is not None:
                dwell += tr.duration - burst_start
            return singles, bursts, dwell

        # A/g2 = 10, so that bursts open and close
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=10)
        space, cols, h_nh = _finite_a(10.0)
        prop = EigenPropagator(h_nh)
        for seed in (1, 2, 3):
            est = dark_count_trajectories(p, 10, 5000.0, seed, threads=1)
            trajs = run_ensemble(h_nh, cols, "g,0,0", 5000.0, 10, seed, space=space, threads=1)
            singles = bursts = 0
            dwell = 0.0
            for tr in trajs:
                s, b, d = replay(tr, prop, cols, space)
                singles, bursts, dwell = singles + s, bursts + b, dwell + d
            assert bursts > 0 and singles > 0
            assert (est.n_events_single, est.n_events_enhanced, est.excited_dwell_time) == (
                singles, bursts, dwell)

    def test_huge_A_reports_upper_bound(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=1e6,
                         kappa1=0.01)
        est = dark_count_trajectories(p, 5, 200.0, 3, threads=1)
        assert est.n_events_single == 0 and est.n_events_enhanced == 0
        assert est.single_is_upper_bound and est.enhanced_is_upper_bound
        # with no events, the 1/T bound is both the rate and its error
        assert est.excited_dwell_time == 0.0
        assert est.single_rate == est.single_error == 1.0 / est.total_time
        assert est.enhanced_rate == est.enhanced_error == 1.0 / est.total_time

    def test_error_bars_are_poisson_on_each_exposure(self):
        # sqrt(N) / T: singles over all sampled time, bursts over the time outside them
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=10)
        est = dark_count_trajectories(p, 10, 5000.0, 1, threads=1)
        assert est.n_events_single > 0 and est.n_events_enhanced > 0
        assert 0 < est.excited_dwell_time < est.total_time
        assert est.single_error == math.sqrt(est.n_events_single) / est.total_time
        assert est.enhanced_error == (math.sqrt(est.n_events_enhanced)
                                      / (est.total_time - est.excited_dwell_time))
        assert not (est.single_is_upper_bound or est.enhanced_is_upper_bound)

    def test_requires_finite_A(self):
        with pytest.raises(ValueError):
            dark_count_trajectories(SystemParams(), 2, 10.0, 0)


class TestNoJump:
    def test_steady_single_matches_trajectories_and_asymptotic(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        nj = no_jump_rates(p)
        assert nj.converged
        # asymptotic A^-2 form matches the resummed numeric within 10% (A/g2 = 50)
        from spt.effective import dark_asymptotic_single
        assert nj.steady_single == pytest.approx(dark_asymptotic_single(p), rel=0.10)

    def test_dynamical_same_order_as_steady(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        nj = no_jump_rates(p)
        assert 1.0 < nj.dynamical / nj.steady < 20.0

    def test_zero_prefactor_channel(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        # the two slowest reached modes decay at 2.87e-13 and 4.40e-13 (a
        # 40-digit eig agrees): their Rayleigh decays tell the gap apart
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nj = no_jump_rates(p.replace(kappa2=1e-12))
        assert nj.converged
        assert nj.steady < 1e-10
        assert nj.dynamical < 1e-10

    def test_ill_conditioned_eigenbasis_is_not_converged(self, ill_conditioned):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        with pytest.warns(UserWarning, match="late-time rate is not a single mode's"):
            assert not no_jump_rates(p).converged

    # criterion 7's point, criterion 8's nine A values and its A/g2 = 40 anchor
    _LATE_TIME_POINTS = [
        SystemParams(g1=0.05, g2=1, omega=2, kappa2=1.0, anharmonicity=8426.0 / 120.0),
        *[SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=float(a))
          for a in (*np.geomspace(30, 100, 9), 40.0)]]

    @pytest.mark.parametrize("p", _LATE_TIME_POINTS, ids=lambda p: f"A{p.anharmonicity:.4g}")
    def test_steady_rates_equal_time_evolution(self, p):
        # the late-time rates two ways: read from the slowest reached eigenvector,
        # and from |g,0,0> propagated by expm to 40 over the gap to the next
        # reached mode, whose amplitude has then fallen by exp(-40) against it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nj = no_jump_rates(p)
        assert nj.converged
        space, cols, h_nh = mc._dark_model(p, mc._DARK_SPEC)
        psi0 = space.basis_state("g", 0, 0)
        evals, evecs = np.linalg.eig(h_nh)
        reached = np.abs(np.linalg.solve(evecs, psi0)) > 1e-12
        slowest, nxt = np.sort(-evals.imag[reached])[:2]
        psi = scipy.linalg.expm(-1j * h_nh * (40.0 / (nxt - slowest))) @ psi0
        norm = np.vdot(psi, psi).real
        for label, steady in (("kappa2_E", nj.steady), ("kappa2_G", nj.steady_single)):
            rate = np.linalg.norm(cols[label] @ psi) ** 2 / norm
            assert rate == pytest.approx(steady, rel=1e-10)


class TestTrajectoryCSV:
    def test_export(self, tmp_path, decaying_level):
        space, cols, h_nh, _ = decaying_level
        trajs = run_ensemble(h_nh, cols, "e,0,1", 50.0, 3, 9, space=space, threads=1)
        path = tmp_path / "jumps.csv"
        trajectories_to_csv(trajs, path, metadata={"seed": 9})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1] == "trajectory_id,jump_time,channel"
        assert len(lines) == 2 + sum(len(t.jumps) for t in trajs)
