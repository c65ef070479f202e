import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

import spt.dynamics
import spt.ode
from spt.hilbert import HilbertSpec, build_space
from spt.model import (DecoherenceParams, SystemParams, collapse_set, hamiltonian_ideal,
                       nonhermitian)
from spt.dynamics import (PulseSpec, SinglePhotonResult, SteadyStateError, TimeSeries,
                          fork_call, fork_map, gain_and_bandwidth, gaussian_pulse,
                          lindblad_propagate, liouvillian, pool_workers, reflection_sweep,
                          single_photon_response, steady_state, steady_state_reflection)
from spt.effective import reflection_analytic, setting_rate


class TestPulse:
    @given(sigma=st.floats(0.05, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_normalized(self, sigma):
        spec = PulseSpec(sigma=sigma)
        t = np.linspace(-8 / sigma, 8 / sigma, 4001)
        assert np.trapezoid(gaussian_pulse(spec, t) ** 2, t) == pytest.approx(1.0, abs=1e-6)

    def test_peak_intensity(self):
        spec = PulseSpec(sigma=0.5)
        assert gaussian_pulse(spec, 0.0) ** 2 == pytest.approx(0.398942, abs=1e-6)

    @pytest.mark.parametrize("name", ["sigma", "center_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            PulseSpec(**{"sigma": 0.5, name: value})

    def test_tau_relation(self):
        spec = PulseSpec.from_tau(tau=1.0)
        assert spec.sigma == pytest.approx(0.5)
        assert spec.tau == pytest.approx(1.0)

    def test_grid_independence(self):
        # Richardson check: doubling the grid changes the norm by < 1e-7
        spec = PulseSpec(sigma=0.7, center_time=3.0)
        t1 = np.linspace(-12, 18, 3001)
        t2 = np.linspace(-12, 18, 6001)
        n1 = np.trapezoid(gaussian_pulse(spec, t1) ** 2, t1)
        n2 = np.trapezoid(gaussian_pulse(spec, t2) ** 2, t2)
        assert abs(n1 - n2) < 1e-7

    @given(sigma=st.floats(1e-3, 10.0), center=st.floats(-1e3, 1e3),
           offset=st.floats(-12.0, 12.0))
    @settings(max_examples=300, deadline=None)
    def test_scalar_route_bitwise(self, sigma, center, offset):
        # a float takes the scalar route; a 0-d array, and the formula as it
        # was before the constants moved to PulseSpec, take the array route
        spec = PulseSpec(sigma=sigma, center_time=center)
        t = center + offset / sigma
        value = gaussian_pulse(spec, t)
        t0d = np.asarray(t)
        formula = (2.0 * sigma**2 / np.pi) ** 0.25 * np.exp(-(sigma**2) * (t0d - center) ** 2)
        assert type(value) is np.float64
        assert value.tobytes() == gaussian_pulse(spec, t0d).tobytes() == formula.tobytes()
        assert gaussian_pulse(spec, np.float64(t)).tobytes() == value.tobytes()

    def test_remaining_norm(self):
        spec = PulseSpec(sigma=0.5, center_time=2.0)
        assert spec.remaining_norm(-30) == pytest.approx(1.0)
        assert spec.remaining_norm(2.0) == pytest.approx(0.5)
        assert spec.remaining_norm(40.0) == pytest.approx(0.0, abs=1e-12)


def _rk4_propagate(lv, y0, t_grid, step):
    """Classic fixed-step RK4 of dy/dt = lv @ y, substeps of at most ``step`` between
    grid points: an integrator independent of lindblad_propagate's DOP853."""
    ys, y = [y0], y0
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        n_sub = max(1, int(np.ceil((t1 - t0) / step)))
        ht = (t1 - t0) / n_sub
        for _ in range(n_sub):
            k1 = lv @ y
            k2 = lv @ (y + 0.5 * ht * k1)
            k3 = lv @ (y + 0.5 * ht * k2)
            k4 = lv @ (y + ht * k3)
            y = y + (ht / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys.append(y)
    return np.array(ys).T


class TestLindblad:
    def test_exponential_decay(self):
        space = build_space(HilbertSpec(1, 1))
        k2 = 0.8
        cols = {"kappa2": np.sqrt(k2) * space.annihilation("cavity2")}
        psi = space.basis_state("e", 0, 1)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 6, 61)
        ts, _ = lindblad_propagate(np.zeros((space.dim,) * 2, dtype=complex), cols,
                                   rho0, t, expectations={"n2": space.number("cavity2")})
        rel = np.abs(ts.channels["n2"] - np.exp(-k2 * t)) / np.exp(-k2 * t)
        assert rel.max() < 1e-6

    def test_unitary_limit_preserves_trace_and_purity(self):
        space = build_space(HilbertSpec(1, 1))
        p = SystemParams(g1=0.1, g2=1, omega=2)
        h = hamiltonian_ideal(p, space)
        psi = space.basis_state("e", 0, 0)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 10, 21)
        _, rho_end = lindblad_propagate(h, {}, rho0, t, tol=1e-10)
        assert np.trace(rho_end).real == pytest.approx(1.0, abs=1e-9)
        assert np.trace(rho_end @ rho_end).real == pytest.approx(1.0, abs=1e-9)

    def test_excitation_number_conserved_without_drive(self):
        # N = sigma_ee + 2 sigma_ff + n1 + n2 commutes with H at omega = 0
        # (|f> sits two excitation quanta up: the g2 coupling maps f -> e + photon)
        space = build_space(HilbertSpec(1, 2))
        p = SystemParams(g1=0.3, g2=1, omega=0.0)
        h = hamiltonian_ideal(p, space)
        n_op = (space.qutrit_projector("e") + 2 * space.qutrit_projector("f")
                + space.number("cavity1") + space.number("cavity2"))
        assert np.max(np.abs(h @ n_op - n_op @ h)) < 1e-12
        psi = (space.basis_state("e", 0, 0) + space.basis_state("g", 1, 0)) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 20, 11)
        ts, _ = lindblad_propagate(h, {}, rho0, t, tol=1e-9,
                                   expectations={"N": n_op})
        assert np.max(np.abs(ts.channels["N"] - ts.channels["N"][0])) < 1e-7

    def test_positivity_and_trace(self):
        space = build_space(HilbertSpec(1, 2))
        p = SystemParams(g1=0.2, g2=1, omega=1.5, kappa1=0.1, kappa2=0.7)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, DecoherenceParams(0.05, 0.02), space)
        psi = space.basis_state("e", 0, 0)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 30, 31)
        lv = liouvillian(h, cols)
        y = rho0.reshape(-1)
        from scipy.integrate import solve_ivp

        sol = solve_ivp(lambda _t, yy: lv @ yy, (0, 30), y, t_eval=t,
                        method="DOP853", rtol=1e-9, atol=1e-12)
        for col in sol.y.T:
            rho = col.reshape(space.dim, space.dim)
            rho = 0.5 * (rho + rho.conj().T)
            assert abs(np.trace(rho).real - 1) < 1e-6
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_reproducible_and_equal_to_fixed_step_rk4(self):
        space = build_space(HilbertSpec(0, 2))
        p = SystemParams(g1=0, g2=1, omega=1, kappa2=0.5)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, None, space)
        psi = space.basis_state("f", 0, 0)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 5, 11)
        _, r1 = lindblad_propagate(h, cols, rho0, t)
        _, r2 = lindblad_propagate(h, cols, rho0, t)
        assert np.array_equal(r1, r2)
        rk4 = _rk4_propagate(liouvillian(h, cols), rho0.reshape(-1).astype(complex), t, 0.01)
        final = rk4[:, -1].reshape(space.dim, space.dim)
        assert np.abs(r1 - 0.5 * (final + final.conj().T)).max() < 1e-8

    def test_top_layer_warning(self):
        space = build_space(HilbertSpec(0, 1))
        p = SystemParams(g1=0, g2=1, omega=2, kappa2=0.1)
        h = hamiltonian_ideal(p, space)
        psi = space.basis_state("f", 0, 0)
        rho0 = np.outer(psi, psi.conj())
        with pytest.warns(UserWarning, match="top Fock layer"):
            lindblad_propagate(h, collapse_set(p, None, space), rho0,
                               np.linspace(0, 3, 7), space=space)


class TestSteadyStateReflection:
    def test_bare_cavity_reflects_everything(self):
        p = SystemParams(g1=0.0, g2=1, omega=2, kappa1=0.3, kappa2=2)
        assert steady_state_reflection(p) == pytest.approx(1.0, abs=1e-4)

    def test_impedance_matched_dip(self):
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=2)
        gs = setting_rate(p, 10).value
        r = steady_state_reflection(p.replace(kappa1=gs), spec=HilbertSpec(1, 8))
        assert r < 1e-3

    def test_off_dip_matches_analytic(self):
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=2)
        gs = setting_rate(p, 10).value
        for fac in (0.2, 5.0):
            r = steady_state_reflection(p.replace(kappa1=fac * gs), spec=HilbertSpec(2, 6))
            assert r == pytest.approx(reflection_analytic(gs, fac * gs), rel=0.05)

    def test_requires_kappa1(self):
        with pytest.raises(ValueError):
            steady_state_reflection(SystemParams(kappa1=0.0))

    @pytest.mark.parametrize("decoherence", [None, DecoherenceParams(0.01, 0.005)])
    def test_one_solve_is_in_the_weak_drive_regime(self, monkeypatch, decoherence):
        # no term of the model raises n1 + P(qutrit not in g), so the drive
        # eps = 0.01 kappa1 replaces what kappa1 removes: kappa1 n1 <= 2 eps sqrt(n1)
        states = []
        solve = spt.dynamics.steady_state

        def kept(lv, dim):
            states.append(solve(lv, dim))
            return states[-1]

        monkeypatch.setattr(spt.dynamics, "steady_state", kept)
        spec = HilbertSpec(2, 4)
        n1 = build_space(spec).number("cavity1")
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=1)
        for kappa1 in (1e-4, 3e-3, 0.03, 0.3, 3.0, 30.0):
            steady_state_reflection(p.replace(kappa1=kappa1), spec=spec, decoherence=decoherence)
            eps = 0.01 * kappa1
            assert np.real(np.trace(n1 @ states[-1])) <= 4 * (eps / kappa1) ** 2 * (1 + 1e-9)
        assert len(states) == 6                        # one solve a point


class TestForkMap:
    def test_index_order_over_a_pool(self):
        # fn is inherited by the workers, not pickled: a closure works
        offset = 100
        results = fork_map(lambda i: (i + offset, os.getpid()), 9, 2)
        assert [r[0] for r in results] == list(range(100, 109))
        assert os.getpid() not in {r[1] for r in results}

    def test_serial_at_one_worker(self):
        seen = []
        assert fork_map(lambda i: seen.append(os.getpid()) or i * i, 4, 1) == [0, 1, 4, 9]
        assert seen == [os.getpid()] * 4
        assert fork_map(lambda i: i, 0, 2) == []

    def test_worker_exception_keeps_its_type(self):
        def fn(i):
            if i == 3:
                raise SteadyStateError(f"point {i} in pid {os.getpid()}")
            return i

        with pytest.raises(SteadyStateError, match="point 3 in pid") as exc:
            fork_map(fn, 6, 2)
        assert f"pid {os.getpid()}" not in str(exc.value)

    def test_nested_call_runs_serially_in_a_worker(self):
        # a pool worker is daemonic and may not fork: the inner call is serial
        def outer(i):
            return fork_map(lambda j: (10 * i + j, os.getpid()), 3, 2)

        results = fork_map(outer, 2, 2)
        assert [[r[0] for r in inner] for inner in results] == [[0, 1, 2], [10, 11, 12]]
        for inner in results:
            assert len({r[1] for r in inner}) == 1 and inner[0][1] != os.getpid()
        assert spt.dynamics._in_pool_worker() is False

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_worker_is_value_error(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            fork_map(lambda i: i, 4, threads)

    @pytest.mark.parametrize("cpus, blas, workers", [
        (1, 1, 1), (2, 1, 2), (16, 1, 8), (2, 2, 1), (3, 2, 1), (16, 2, 8), (8, 8, 1)])
    def test_default_shares_usable_cpus_with_blas(self, cpus, blas, workers, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(spt.dynamics, "_blas_threads", lambda: blas)
        assert pool_workers(None) == workers
        assert pool_workers(5) == 5

    def test_default_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(spt.dynamics, "_blas_threads", lambda: 1)
        assert pool_workers(None) == 3

    def test_blas_threads_reads_the_loaded_openblas(self):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            if "openblas" not in fh.read():
                pytest.skip("no OpenBLAS is loaded")
        src = os.path.dirname(os.path.dirname(spt.dynamics.__file__))
        for n in (1, 2):
            out = subprocess.run(
                [sys.executable, "-c", "import spt.dynamics; print(spt.dynamics._blas_threads())"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": str(n), "PYTHONPATH": src},
                capture_output=True, text=True, timeout=60, check=True)
            assert out.stdout.strip() == str(n)


class TestForkCall:
    @staticmethod
    def pid_and_wait(path, seconds=0.0):
        def fn():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
            time.sleep(seconds)
            return os.getpid()
        return fn

    @staticmethod
    def wait_for(path):
        deadline = time.monotonic() + 30.0
        while not path.exists():
            assert time.monotonic() < deadline, "the child did not start"
            time.sleep(0.01)

    @staticmethod
    def assert_gone(pid):
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_runs_in_a_child_alongside_the_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spt.dynamics, "pool_workers", lambda threads: 2)
        path = tmp_path / "pid"
        with fork_call(self.pid_and_wait(path, 0.3)) as collect:
            self.wait_for(path)          # the child starts before the block ends
            child = collect()
        assert child != os.getpid()
        self.assert_gone(child)

    @pytest.mark.parametrize("workers, in_pool_worker", [(1, False), (2, True)])
    def test_serial_at_one_worker_or_in_a_worker(self, tmp_path, workers, in_pool_worker,
                                                 monkeypatch):
        monkeypatch.setattr(spt.dynamics, "pool_workers", lambda threads: workers)
        monkeypatch.setattr(spt.dynamics, "_in_pool_worker", lambda: in_pool_worker)
        with fork_call(self.pid_and_wait(tmp_path / "pid")) as collect:
            assert not (tmp_path / "pid").exists()   # called by collect, not before
            assert collect() == os.getpid()

    def test_child_exception_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(spt.dynamics, "pool_workers", lambda threads: 2)

        def fail():
            raise SteadyStateError(f"failed in pid {os.getpid()}")

        with pytest.raises(SteadyStateError, match="failed in pid") as exc:
            with fork_call(fail) as collect:
                collect()
        child = int(str(exc.value).split()[-1])
        assert child != os.getpid()
        self.assert_gone(child)

    def test_a_raise_in_the_block_ends_the_child(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spt.dynamics, "pool_workers", lambda threads: 2)
        path = tmp_path / "pid"
        start = time.monotonic()
        with pytest.raises(KeyError):
            with fork_call(self.pid_and_wait(path, 60.0)):
                self.wait_for(path)
                raise KeyError("in the caller")
        assert time.monotonic() - start < 30.0
        self.assert_gone(int(path.read_text(encoding="utf-8")))


class TestReflectionSweep:
    P = SystemParams(g1=0.05, g2=1, omega=2, kappa2=2)
    GRID = np.array([0.001, 0.0032, 0.01])

    def test_threads_give_identical_values(self):
        spec = HilbertSpec(2, 3)
        serial = [steady_state_reflection(self.P.replace(kappa1=k1), spec=spec)
                  for k1 in self.GRID]
        for threads in (1, 2):
            swept = reflection_sweep(self.P, self.GRID, spec=spec, threads=threads)
            assert [float(r).hex() for r in swept] == [r.hex() for r in serial]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_point_raises_steady_state_error(self, threads, monkeypatch):
        original = spt.dynamics.steady_state_reflection

        def fail_middle(params, **kwargs):
            if params.kappa1 == self.GRID[1]:
                raise SteadyStateError(f"no steady state in pid {os.getpid()}")
            return original(params, **kwargs)

        monkeypatch.setattr(spt.dynamics, "steady_state_reflection", fail_middle)
        with pytest.raises(SteadyStateError, match="no steady state") as exc:
            reflection_sweep(self.P, self.GRID, spec=HilbertSpec(1, 2), threads=threads)
        assert (f"pid {os.getpid()}" in str(exc.value)) == (threads == 1)


class TestSinglePhoton:
    def test_empty_cavity_oracle(self):
        # no qutrit coupling: cavity amplitude follows the exact single-excitation ODE
        from scipy.integrate import solve_ivp

        p = SystemParams(g1=0.0, g2=1, omega=0, kappa1=0.5, kappa2=0.0)
        pulse = PulseSpec.from_tau(tau=12.0, center_time=60.0)
        grid = np.linspace(0, 160, 801)
        # qutrit decay keeps |g,0,0> dark and makes the steady state unique
        # for the gain tail; at g1 = 0 the qutrit is never excited
        res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 0),
                                     decoherence=DecoherenceParams(gamma=1e-3))
        sol = solve_ivp(
            lambda t, c: -0.25 * c + np.sqrt(0.5) * float(gaussian_pulse(pulse, t)),
            (0, 160), [0.0], t_eval=grid, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(res.series.channels["n1"] - sol.y[0] ** 2)) < 1e-6
        assert res.n_out1 == pytest.approx(1.0, abs=1e-4)

    def test_decoupled_qutrit_reflects(self):
        p = SystemParams(g1=0.0, g2=1, omega=2, kappa1=0.4, kappa2=1.0)
        pulse = PulseSpec.from_tau(tau=15.0, center_time=70.0)
        grid = np.linspace(0, 180, 601)
        res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 1),
                                     decoherence=DecoherenceParams(gamma=1e-3))
        assert np.max(res.series.channels["I_out2"]) == pytest.approx(0.0, abs=1e-12)
        assert res.absorbed_fraction == pytest.approx(0.0, abs=1e-3)

    def test_impedance_matched_absorption_fast_point(self):
        # g1 = 0.2 keeps tau kappa1 = 6 affordable; absorption is IM-universal
        p0 = SystemParams(g1=0.2, g2=1, omega=2, kappa2=1)
        gs = setting_rate(p0, 8).value
        p = p0.replace(kappa1=gs)
        tau = 6.0 / gs
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        grid = np.linspace(0, 9.0 * tau, 900)
        res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 8), tol=1e-7)
        assert res.absorbed_fraction > 0.98
        # waveform shape: output continues long after the input peak
        i_in = res.series.channels["I_in1"]
        i_out = res.series.channels["I_out2"]
        t_peak_in = grid[np.argmax(i_in)]
        late = grid > t_peak_in + 2 * tau
        assert i_out[late].max() > 0.2 * i_out.max()
        assert np.all(i_out >= -1e-12)

    def test_diagnostics(self, monkeypatch):
        # the absorption's RHS calls are counted here, so it must run in this
        # process: TestConcurrentAbsorption covers rhs_evals on the forked path
        monkeypatch.setattr(spt.dynamics, "pool_workers", lambda threads: 1)
        calls = {"hierarchy": 0, "absorption": 0}
        hierarchy_rhs = spt.dynamics._hierarchy_rhs

        def counted(name, fun):
            def f(t, y):
                calls[name] += 1
                return fun(t, y)
            return f

        class CountedDOP853(spt.ode.DOP853):
            # the absorption's solver is the one without a compact layout
            def __init__(self, fun, t0, y0, t_bound, rtol, atol, layout=None):
                if layout is None:
                    fun = counted("absorption", fun)
                super().__init__(fun, t0, y0, t_bound, rtol, atol, layout)

        # the hierarchy RHS is counted where it is built, the absorption RHS
        # where its stepper receives it
        monkeypatch.setattr(spt.dynamics, "_hierarchy_rhs",
                            lambda *a: counted("hierarchy", hierarchy_rhs(*a)))
        monkeypatch.setattr(spt.ode, "DOP853", CountedDOP853)
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)
        tau = 6.0 / p.kappa1
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        peaks = []
        for n2 in (2, 4):
            calls.update(hierarchy=0, absorption=0)
            res = single_photon_response(p, pulse, np.linspace(0.0, 9.0 * tau, 40),
                                         spec=HilbertSpec(1, n2), tol=1e-7)
            assert res.rhs_evals == calls["hierarchy"] + calls["absorption"]
            assert calls["hierarchy"] > 0 and calls["absorption"] > 0
            # DOP853: 2 start-up calls, 12 a try, 3 more per dense output (at most one a step)
            accepted, rejected = res.steps
            assert accepted > 0 and rejected >= 0
            tries = accepted + rejected
            assert 2 + 12 * tries <= calls["hierarchy"] <= 2 + 12 * tries + 3 * accepted
            assert res.final_rho.base is None                # owns its 2-D block
            space = build_space(HilbertSpec(1, n2))
            top = [i for i in range(space.dim) if space.labels(i)[2] == n2]
            final = float(np.real(np.diag(res.final_rho))[top].sum())
            assert final <= res.top_layer_peak <= 1.0
            peaks.append(res.top_layer_peak)
        assert peaks[0] > peaks[1] > 0.0               # a larger truncation leaks less

    def test_short_pulse_warns(self):
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa1=0.01, kappa2=1)
        pulse = PulseSpec.from_tau(tau=10.0, center_time=40.0)
        with pytest.warns(UserWarning, match="pulse shorter"):
            single_photon_response(p, pulse, np.linspace(0, 80, 101), spec=HilbertSpec(1, 1))

    def test_truncation_warns(self):
        # the top n2 layer peaks at 0.034 at (1,2), too much for converged
        # outputs, and at 7e-11 at (1,10)
        p, pulse = TestKeptEntries.p, TestKeptEntries.pulse
        grid = np.linspace(0.0, 9.0 * pulse.tau, 60)
        with pytest.warns(UserWarning, match="top Fock layer population exceeds 1e-3"):
            res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 2), tol=1e-7)
        assert res.top_layer_peak > 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 10), tol=1e-7)
        assert res.top_layer_peak < 1e-9


def _full_block_rhs(lv, space, kappa1, pulse, _support=None):
    """Oracle: the hierarchy right-hand side on the whole rho_10 block.

    Full L rho_10 product and dense commutator [a1^dag, rho_01]; the library
    evolves only the |g,0,0> column of rho_10 and must match this bit for bit.
    It ignores the library's support and evolves every entry.
    """
    dim = space.dim
    nf = dim * dim
    a1 = space.annihilation("cavity1")
    rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
    k10 = -np.sqrt(kappa1) * (a1.conj().T @ rho00 - rho00 @ a1.conj().T)

    def rhs(t, y):
        r10 = y[:nf]
        r11 = y[nf:]
        xi = float(gaussian_pulse(pulse, t))
        d10 = lv @ r10 + xi * k10.reshape(-1)
        rho10 = r10.reshape(dim, dim)
        rho01 = rho10.conj().T
        s11 = a1.conj().T @ rho01 - rho01 @ a1.conj().T
        s11 = -np.sqrt(kappa1) * xi * (s11 + s11.conj().T)
        d11 = lv @ r11 + s11.reshape(-1)
        return np.concatenate([d10, d11])

    return rhs


class TestHierarchyColumn:
    @pytest.mark.parametrize("spec, dec", [
        (HilbertSpec(1, 4), None),
        (HilbertSpec(1, 4), DecoherenceParams(gamma=0.01, gamma_phi=0.005)),
        (HilbertSpec(2, 3), None),
    ])
    def test_bitwise_equal_to_full_block_oracle(self, spec, dec):
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)  # kappa1 ~ Gamma_set
        tau = 6.0 / p.kappa1
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        grid = np.linspace(0.0, 9.0 * tau, 60)
        res = single_photon_response(p, pulse, grid, spec=spec, decoherence=dec, tol=1e-7)
        ref, _ = _reference_response(p, pulse, grid, spec, dec, 1e-7, rhs=_full_block_rhs)
        _assert_same_bits(res, ref)
        assert res.gain > 1.0 and res.absorbed_fraction > 0.9   # a non-trivial run

    def test_pumped_ground_raises(self, monkeypatch):
        import spt.dynamics

        def pumped(params, decoherence, space, **kw):
            cols = collapse_set(params, decoherence, space, **kw)
            cols["pump"] = 0.1 * space.qutrit_op("e", "g")
            return cols

        monkeypatch.setattr(spt.dynamics, "collapse_set", pumped)
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)
        pulse = PulseSpec.from_tau(tau=30.0, center_time=135.0)
        with pytest.raises(ValueError, match="dark"):
            single_photon_response(p, pulse, np.linspace(0.0, 270.0, 11),
                                   spec=HilbertSpec(1, 2))


def _solve_ivp_grid(fun, t_grid, y0, rtol, atol, take, rows=slice(None), what="ODE"):
    """Oracle of ``spt.dynamics._grid_solve``: one solve_ivp call with t_eval
    (the library's former route), every row of y stored, then ``rows`` of the
    whole grid handed to ``take`` at once."""
    sol = solve_ivp(fun, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"{what} integration failed: {sol.message}")
    take(0, sol.y[rows])
    return sol.nfev, None


def _collect(solve, fun, t_grid, y0, rtol, atol, rows=slice(None), **kw):
    """(ys, nfev, steps) of ``solve`` (``_grid_solve`` or its oracle) with
    ys[:, k] = y(t_grid[k])[rows] stored from its ``take`` calls, each of
    which must hand on the next grid points in order."""
    got = []

    def take(i, ys):
        assert i == sum(y.shape[1] for y in got) and ys.shape[1] > 0
        got.append(ys)

    nfev, steps = solve(fun, t_grid, y0, rtol, atol, take, rows, **kw)
    ys = np.concatenate(got, axis=1)
    assert ys.shape[1] == len(t_grid)
    return ys, nfev, steps


def _full_length_rhs(lv, space, kappa1, pulse, support):
    """Oracle: the hierarchy right-hand side on the full state [vec rho_10,
    vec rho_11], nonzero only on the |g,0,0> column of rho_10 and the rho_11
    support; the library steps these entries alone and must match it bit for
    bit."""
    dim = space.dim
    nf = dim * dim
    i_g00 = space.index("g", 0, 0)
    i_g10 = space.index("g", 1, 0)
    a1d = space.annihilation("cavity1").conj().T
    col, src, sup = support
    lv_col = lv[col][:, col]
    msk = -np.sqrt(kappa1)
    k10_col = np.zeros(dim, dtype=complex)
    k10_col[i_g10] = msk
    lv_sup = lv[sup][:, sup]
    a, b = np.nonzero(src)
    at = np.searchsorted(sup, a * dim + b)
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


def _reference_response(params, pulse, t_grid, spec, decoherence, tol, rhs=_full_length_rhs):
    """Oracle: ``single_photon_response`` as it was before it stepped a compact
    state and kept only the evolved entries: solve_ivp with t_eval steps and
    stores all 2 dim^2 entries of ``rhs``'s state at every grid point, and the
    observables come from the full (time, dim, dim) grids.  Returns the result
    and the full ``sol.y``."""
    space = build_space(spec)
    h = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    lv = liouvillian(h, cols)
    dim, nf = space.dim, space.dim ** 2
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n2op = a2.conj().T @ a2
    rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
    fun = rhs(lv, space, params.kappa1, pulse, spt.dynamics._hierarchy_support(space))
    y0 = np.zeros(2 * nf, dtype=complex)
    y0[nf:] = rho00.reshape(-1)
    sol = solve_ivp(fun, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid,
                    method="DOP853", rtol=tol, atol=tol * 1e-4)
    assert sol.success
    rho10_t = sol.y[:nf].T.reshape(len(t_grid), dim, dim)
    rho11_t = sol.y[nf:].T.reshape(len(t_grid), dim, dim)
    rho11_t = 0.5 * (rho11_t + np.conj(np.swapaxes(rho11_t, 1, 2)))
    xi_t = gaussian_pulse(pulse, t_grid)
    i_in1 = xi_t**2
    i_out2 = params.kappa2 * np.einsum("ij,tji->t", n2op, rho11_t).real
    n1_t = np.einsum("ij,tji->t", a1.conj().T @ a1, rho11_t).real
    tr_a1_rho10 = np.einsum("ij,tji->t", a1, rho10_t)
    i_out1 = np.clip(i_in1 + params.kappa1 * n1_t + 2.0 * np.sqrt(params.kappa1) * np.real(
        xi_t * np.conj(tr_a1_rho10)), 0.0, None)
    channels = {"I_in1": i_in1, "I_out1": i_out1, "I_out2": i_out2, "n1": n1_t}
    for level in ("g", "e", "f"):
        channels[f"pop_{level}"] = np.einsum("ij,tji->t", space.qutrit_projector(level),
                                             rho11_t).real
    absorbed, absorption_evals = spt.dynamics._first_click_absorption(
        nonhermitian(h, cols), cols["kappa1"], np.sqrt(params.kappa1),
        space.basis_state("g", 0, 0), space.index("g", 1, 0),
        pulse, (t_grid[0], t_grid[-1]), max(tol, 1e-9))
    tail = params.kappa2 * spt.dynamics.integrated_observable(lv, rho11_t[-1], rho00, n2op)
    gain = float(np.trapezoid(i_out2, t_grid)) + tail
    top2 = spt.dynamics._top_layer_projectors(space)[1]
    res = SinglePhotonResult(
        series=TimeSeries(times=t_grid, channels=channels),
        absorbed_fraction=absorbed, gain=gain, n_out1=float(np.trapezoid(i_out1, t_grid)),
        final_rho=rho11_t[-1], rhs_evals=sol.nfev + absorption_evals,
        top_layer_peak=float(np.einsum("ij,tji->t", np.diag(top2), rho11_t).real.max()))
    return res, sol.y


def _assert_same_bits(res, ref):
    assert list(res.series.channels) == list(ref.series.channels)
    for name, values in ref.series.channels.items():
        assert res.series.channels[name].tobytes() == values.tobytes(), name
    for name in ("gain", "absorbed_fraction", "n_out1", "rhs_evals", "top_layer_peak"):
        assert repr(getattr(res, name)) == repr(getattr(ref, name)), name
    assert res.final_rho.tobytes() == ref.final_rho.tobytes()


_DEC = DecoherenceParams(gamma=0.01, gamma_phi=0.005)


def _at_one_blas_thread(statement):
    """Run ``statement`` in this module's namespace in a fresh interpreter
    whose OpenBLAS runs one thread."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(spt.dynamics.__file__))
    code = ("import test_dynamics\n"
            "assert test_dynamics.spt.dynamics._blas_threads() == 1\n"
            f"exec({statement!r}, vars(test_dynamics))")
    run = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                              "PYTHONPATH": os.pathsep.join([src, here])}, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]


class TestKeptEntries:
    """single_photon_response steps a compact state and stores only the
    evolved entries on the grid; every output must be bit for bit the
    full-length, full-grid route's."""

    p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)   # kappa1 ~ Gamma_set
    pulse = PulseSpec.from_tau(tau=6.0 / 0.18, center_time=4.5 * 6.0 / 0.18)

    def check_bits(self, spec, dec, points):
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, points)
        res = single_photon_response(self.p, self.pulse, grid, spec=spec, decoherence=dec,
                                     tol=1e-7)
        ref, _ = _reference_response(self.p, self.pulse, grid, spec, dec, 1e-7)
        _assert_same_bits(res, ref)
        assert res.final_rho.base is None
        if points > 2:
            assert res.gain > 1.0 and res.absorbed_fraction > 0.9   # a non-trivial run

    @pytest.mark.parametrize("spec, dec, points", [
        (HilbertSpec(1, 4), None, 60),
        (HilbertSpec(1, 4), _DEC, 60),
        (HilbertSpec(2, 3), None, 60),
        (HilbertSpec(1, 10), None, 61),
        (HilbertSpec(1, 4), None, 2),                  # the two-point grid
        (HilbertSpec(1, 4), None, 17),                 # one point past 16
    ])
    def test_bitwise_equal_to_full_grid_oracle(self, spec, dec, points):
        self.check_bits(spec, dec, points)

    @pytest.mark.parametrize("spec, dec", [(HilbertSpec(2, 4), "_DEC"), (HilbertSpec(2, 6), None)])
    def test_odd_dim_bitwise_at_one_blas_thread(self, spec, dec):
        # at odd dim, 2 dim^2 = 2 (mod 4); with two BLAS threads OpenBLAS splits
        # the stage sums' rows in half and the two halves' tails fall on
        # different entries of the full and the compact state, so bit identity
        # is claimed at one BLAS thread (at (2,6) two threads differ by ~5e-15)
        assert build_space(spec).dim % 2 == 1
        _at_one_blas_thread(f"TestKeptEntries().check_bits({spec!r}, {dec}, 60)")

    def test_full_block_rhs_leaves_dropped_entries_zero(self):
        # the full-block right-hand side evolves every entry, so a kept-entry
        # set that missed a nonzero entry would show here, in the oracle's sol.y
        spec = HilbertSpec(1, 4)
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, 60)
        res = single_photon_response(self.p, self.pulse, grid, spec=spec, tol=1e-7)
        ref, ys = _reference_response(self.p, self.pulse, grid, spec, None, 1e-7,
                                      rhs=_full_block_rhs)
        _assert_same_bits(res, ref)
        space = build_space(spec)
        col, _, sup = spt.dynamics._hierarchy_support(space)
        dropped = np.ones(len(ys), dtype=bool)
        dropped[col] = dropped[space.dim ** 2 + sup] = False
        assert dropped.sum() > 0 and ys.shape[1] == len(grid)
        assert np.all(ys[dropped] == 0)

    def test_peak_memory(self):
        # the size of the benchmark's call, (1,10) on 600 points; the memory
        # follows the shapes, not the parameters, which here integrate 3x faster
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, 600)
        tracemalloc.start()
        try:
            res = single_photon_response(self.p, self.pulse, grid, spec=HilbertSpec(1, 10),
                                         tol=1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full-grid route peaked at 164.5 MiB here: two 84 MB copies of the full states
        # reducing 16-point blocks through full-size buffers peaked at 6.3 MiB
        assert peak <= 5 * 2**20, f"{peak / 2**20:.1f} MiB"
        assert res.final_rho.base is None


def _stored_response(params, pulse, t_grid, spec, decoherence, tol):
    """Oracle: ``single_photon_response`` as it was before it reduced the grid
    as the solve reached it: the same compact solve, its kept entries stored
    for the whole grid, then reduced 16 points at a time, the absorption
    solved in this process.  Returns a SinglePhotonResult."""
    space = build_space(spec)
    h = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    lv = liouvillian(h, cols)
    dim, nf, chunk_len = space.dim, space.dim ** 2, 16
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n2op = a2.conj().T @ a2
    rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
    support = spt.dynamics._hierarchy_support(space)
    keep = np.concatenate([support[0], nf + support[2]])
    layout = spt.dynamics._CompactLayout.of(keep, 2 * nf)
    rhs = spt.dynamics._hierarchy_rhs(lv, space, params.kappa1, pulse, support, layout)
    y0 = np.zeros(2 * nf, dtype=complex)
    y0[nf:] = rho00.reshape(-1)
    ys, nfev, steps = _collect(spt.dynamics._grid_solve, rhs, t_grid, layout.compact(y0), tol,
                               tol * 1e-4, layout.positions(keep), layout=layout)

    obs = {"n2": n2op, "n1": a1.conj().T @ a1,
           **{f"pop_{level}": space.qutrit_projector(level) for level in ("g", "e", "f")}}
    top2 = spt.dynamics._top_layer_projectors(space)[1]
    parts = {name: [] for name in ("trace", "a1_rho10", "top", *obs)}
    for k in range(0, len(t_grid), chunk_len):
        chunk = ys[:, k:k + chunk_len]
        blk = np.zeros((2 * nf, chunk.shape[1]), dtype=complex)
        blk[keep] = chunk
        rho10 = blk[:nf].T.reshape(-1, dim, dim)
        rho11 = blk[nf:].T.reshape(-1, dim, dim)
        rho11 = 0.5 * (rho11 + np.conj(np.swapaxes(rho11, 1, 2)))
        parts["trace"].append(np.einsum("tii->t", rho11).real)
        parts["a1_rho10"].append(np.einsum("ij,tji->t", a1, rho10))
        parts["top"].append(np.einsum("ij,tji->t", np.diag(top2), rho11).real)
        for name, op in obs.items():
            parts[name].append(np.einsum("ij,tji->t", op, rho11).real)
    out = {name: np.concatenate(v) for name, v in parts.items()}
    final_rho = rho11[-1].copy()

    xi_t = gaussian_pulse(pulse, t_grid)
    i_in1 = xi_t**2
    i_out2 = params.kappa2 * out["n2"]
    i_out1 = np.clip(i_in1 + params.kappa1 * out["n1"] + 2.0 * np.sqrt(params.kappa1) * np.real(
        xi_t * np.conj(out["a1_rho10"])), 0.0, None)
    tail = params.kappa2 * spt.dynamics.integrated_observable(lv, final_rho, rho00, n2op)
    absorbed, absorption_evals = spt.dynamics._first_click_absorption(
        nonhermitian(h, cols), cols["kappa1"], np.sqrt(params.kappa1),
        space.basis_state("g", 0, 0), space.index("g", 1, 0),
        pulse, (t_grid[0], t_grid[-1]), max(tol, 1e-9))
    channels = {"I_in1": i_in1, "I_out1": i_out1, "I_out2": i_out2, "n1": out["n1"],
                **{name: out[name] for name in ("pop_g", "pop_e", "pop_f")}}
    return SinglePhotonResult(
        series=TimeSeries(times=t_grid, channels=channels), absorbed_fraction=absorbed,
        gain=float(np.trapezoid(i_out2, t_grid)) + tail,
        n_out1=float(np.trapezoid(i_out1, t_grid)), final_rho=final_rho,
        rhs_evals=nfev + absorption_evals, steps=steps, top_layer_peak=float(out["top"].max()))


class TestStreamedReduction:
    """single_photon_response reduces the grid points of each step as the
    solve reaches them and stores no grid of states; every output must be bit
    for bit the store-then-reduce route's, and its memory must not grow with
    the grid."""

    @staticmethod
    def cli_point(n2, points):
        """(params, pulse, grid) of ``spt pulse-response --g1 0.15 --omega 2
        --kappa2 1 --tau-kappa1 6 --n2 N2 --points P``."""
        params = SystemParams(g1=0.15, g2=1, omega=2, kappa2=1)
        gamma_set = setting_rate(params, n2_trunc=n2).value
        tau = 6.0 / gamma_set
        return (params.replace(kappa1=gamma_set), PulseSpec.from_tau(tau, 4.5 * tau),
                np.linspace(0.0, 9.0 * tau, points))

    @pytest.mark.parametrize("n2, points", [
        (10, 600),    # the benchmark's call
        (4, 37),      # not a multiple of the oracle's 16-point block
        (4, 3000),    # dense: single steps hand over several points
    ])
    def test_bitwise_equal_to_stored_grid_oracle(self, n2, points, monkeypatch):
        params, pulse, grid = self.cli_point(n2, points)
        spans, grid_solve = [], spt.dynamics._grid_solve

        def recorded(fun, t_grid, y0, rtol, atol, take, *args, **kw):
            def take_and_record(i, ys):
                spans.append((i, ys.shape[1]))
                take(i, ys)
            return grid_solve(fun, t_grid, y0, rtol, atol, take_and_record, *args, **kw)

        monkeypatch.setattr(spt.dynamics, "_grid_solve", recorded)
        res = single_photon_response(params, pulse, grid, spec=HilbertSpec(1, n2), tol=1e-7)
        monkeypatch.undo()
        ref = _stored_response(params, pulse, grid, HilbertSpec(1, n2), None, 1e-7)
        _assert_same_bits(res, ref)
        assert res.steps == ref.steps and res.steps[0] > 0
        assert res.gain > 1.0 and res.absorbed_fraction > 0.9   # a non-trivial run
        assert sum(n for _, n in spans) == points
        if points == 3000:
            assert sum(n > 1 for _, n in spans) > 10

    def test_peak_memory_flat_in_grid_length(self):
        # the stored grid grew the peak by kept x 16 B a point: 5.6 -> 28.1 MiB here
        p, pulse = TestKeptEntries.p, TestKeptEntries.pulse
        spec = HilbertSpec(1, 6)
        peaks = {}
        for points in (300, 3000):
            grid = np.linspace(0.0, 9.0 * pulse.tau, points)
            tracemalloc.start()
            try:
                single_photon_response(p, pulse, grid, spec=spec, tol=1e-6)
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        space = build_space(spec)
        col, _, sup = spt.dynamics._hierarchy_support(space)
        stored = (len(col) + len(sup)) * (3000 - 300) * 16
        assert peaks[3000] - peaks[300] < stored / 10, (peaks, stored)


def _lil_trace_fixed(lv, dim):
    """Oracle: the trace-fixed matrix as ``TraceFixedSolver`` assembled it
    before it built it from CSR: a LIL copy of ``lv`` with row 0 assigned the
    trace row, then CSC.  tolil sums ``lv``'s duplicates in place."""
    a = lv.tolil(copy=True)
    trace_row = np.zeros(dim * dim)
    trace_row[:: dim + 1] = 1.0
    a[0, :] = trace_row
    return a.tocsc()


class _LilTraceFixedSolver(spt.dynamics.TraceFixedSolver):
    """Oracle: ``TraceFixedSolver``'s solves on the LU of ``_lil_trace_fixed``,
    on every entry and without the condition check."""

    def __init__(self, lv, dim):
        self._lu = spla.splu(_lil_trace_fixed(lv, dim))
        self.lv, self.dim = lv, dim
        self._keep, self._scale = slice(None), 0.0


class TestTraceFixedSolver:
    """The trace-fixed matrix is assembled from CSR, for any sparse input, as
    the LIL route assembled it, so every solve has the same bits."""

    space = build_space(HilbertSpec(1, 2))
    p = SystemParams(g1=0.2, g2=1, omega=1.5, kappa1=0.1, kappa2=0.7)

    def canonical(self):
        return liouvillian(hamiltonian_ideal(self.p, self.space),
                           collapse_set(self.p, _DEC, self.space))

    def non_canonical(self):
        """The canonical CSR with each entry split in two, 0.25 v and 0.75 v,
        and each row's entries in a random order."""
        coo = self.canonical().tocoo()
        rows = np.concatenate([coo.row, coo.row])
        data = np.concatenate([0.25 * coo.data, 0.75 * coo.data])
        order = np.lexsort((np.random.default_rng(7).random(len(rows)), rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=coo.shape[0]))])
        lv = sparse.csr_matrix((data[order], np.concatenate([coo.col, coo.col])[order], indptr),
                               shape=coo.shape)
        assert not lv.has_canonical_format
        return lv

    def empty_row0(self):
        lv = self.canonical().tolil()
        lv[0, :] = 0.0
        lv = lv.tocsr()
        assert lv.indptr[1] == 0
        return lv

    @pytest.mark.parametrize("make", ["canonical", "csc", "non_canonical", "empty_row0"])
    def test_same_matrix_and_bits_as_lil_route(self, make, monkeypatch):
        def build():
            return self.canonical().tocsc() if make == "csc" else getattr(self, make)()

        factored, splu = [], spla.splu
        monkeypatch.setattr(spla, "splu", lambda a: factored.append(a) or splu(a))
        dim = self.space.dim
        solver = spt.dynamics.TraceFixedSolver(build(), dim)
        monkeypatch.undo()
        ref = _lil_trace_fixed(build(), dim)
        (a,) = factored
        assert a.format == "csc" and a.shape == ref.shape
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(a, name), getattr(ref, name)), name
        assert a.data.tobytes() == ref.data.tobytes()

        oracle = _LilTraceFixedSolver(build(), dim)
        rho_inf = solver.steady_state()
        assert rho_inf.tobytes() == oracle.steady_state().tobytes()
        # in the range of the input matrix, whose row 0 may be empty
        w = np.random.default_rng(3).normal(size=(dim * dim, 2)) @ [1.0, 1j]
        rhs = build() @ w
        assert solver.resolvent(rhs).tobytes() == oracle.resolvent(rhs).tobytes()

    @pytest.mark.parametrize("dim", [3, 5])
    def test_shape_other_than_dim_squared_is_value_error(self, dim):
        # at dim 3 the CSR route would build a trace row on 3 of 16 columns
        with pytest.raises(ValueError, match="Liouvillian is"):
            spt.dynamics.TraceFixedSolver(sparse.identity(16, dtype=complex, format="csr"), dim)

    @pytest.mark.parametrize("dec, unique", [(None, False), (DecoherenceParams(gamma=1e-3), True)])
    def test_resolvent_refuses_a_non_unique_steady_state(self, dec, unique):
        # g1 = 0: without qutrit decay nothing returns e or f to g, and L has
        # two zero singular values, yet SuperLU factors the trace-fixed matrix
        # (||A^-1 1|| max|A_ij| = 5.8e17); gamma = 1e-3 makes it unique (2.3e4)
        p = SystemParams(g1=0.0, g2=1, omega=2, kappa1=0.4, kappa2=1.0)
        space = build_space(HilbertSpec(1, 1))
        lv = liouvillian(hamiltonian_ideal(p, space), collapse_set(p, dec, space))
        solver = spt.dynamics.TraceFixedSolver(lv, space.dim)
        rhs = lv @ (np.random.default_rng(3).normal(size=(space.dim ** 2, 2)) @ [1.0, 1j])
        if unique:
            assert np.linalg.norm(lv @ solver.resolvent(rhs) - rhs) < 1e-10
        else:
            with pytest.raises(SteadyStateError, match="not unique"):
                solver.resolvent(rhs)
        # a cavity-1 photon never meets the qutrit: on the entries it reaches
        # the steady state is unique, and its mean count kappa1 int n1 is 1
        psi = space.basis_state("g", 1, 0)
        n1 = space.annihilation("cavity1").conj().T @ space.annihilation("cavity1")
        assert p.kappa1 * spt.dynamics.integrated_observable(
            lv, np.outer(psi, psi), solver.steady_state(), n1) == pytest.approx(1.0, rel=1e-12)


class TestKeptSupport:
    """integrated_observable factors L only on the entries that rho0, rho_inf
    and entry 0 reach; gain_and_bandwidth keeps the full matrix."""

    p0 = SystemParams(g1=0.15, g2=1, omega=2, kappa2=1)

    def factored_sizes(self, monkeypatch, call):
        sizes, splu = [], spla.splu
        monkeypatch.setattr(spla, "splu", lambda a: sizes.append(a.shape[0]) or splu(a))
        call()
        monkeypatch.undo()
        return sizes

    @pytest.mark.parametrize("spec, dec", [(HilbertSpec(1, 10), None), (HilbertSpec(1, 10), _DEC),
                                           (HilbertSpec(2, 6), None), (HilbertSpec(2, 16), None)])
    def test_agrees_with_full_matrix_solve(self, spec, dec, monkeypatch):
        p = self.p0.replace(kappa1=setting_rate(self.p0, 10).value)
        space = build_space(spec)
        lv = liouvillian(hamiltonian_ideal(p, space), collapse_set(p, dec, space))
        n2op = space.annihilation("cavity2").conj().T @ space.annihilation("cavity2")
        full = spt.dynamics.TraceFixedSolver(lv, space.dim)
        rho_inf = full.steady_state()
        psi0 = space.basis_state("e", 0, 0)
        rho0 = np.outer(psi0, psi0.conj())
        ref = spt.dynamics._expectation(n2op, full.resolvent(rho_inf - rho0))
        got = []
        sizes = self.factored_sizes(monkeypatch, lambda: got.append(
            spt.dynamics.integrated_observable(lv, rho0, rho_inf, n2op)))
        assert got[0] == pytest.approx(ref, rel=1e-12) and ref > 1.0
        assert len(sizes) == 1 and sizes[0] < space.dim ** 2

    def test_pulse_tail_on_its_support_and_gain_on_the_full_matrix(self, monkeypatch):
        p = self.p0.replace(kappa1=setting_rate(self.p0, 10).value)
        pulse = PulseSpec.from_tau(tau=6.0 / p.kappa1, center_time=4.5 * 6.0 / p.kappa1)
        grid = np.linspace(0.0, 9.0 * pulse.tau, 50)
        assert self.factored_sizes(monkeypatch, lambda: single_photon_response(
            p, pulse, grid, spec=HilbertSpec(1, 10), tol=1e-6)) == [1210]
        assert self.factored_sizes(monkeypatch, lambda: gain_and_bandwidth(self.p0)) == [4356]

    def test_rhs_off_keep_is_refused(self):
        space = build_space(HilbertSpec(1, 2))
        lv = liouvillian(hamiltonian_ideal(TestTraceFixedSolver.p, space),
                         collapse_set(TestTraceFixedSolver.p, None, space))
        seeds = np.zeros(space.dim ** 2, dtype=bool)
        seeds[0] = seeds[space.index("e", 0, 0) * (space.dim + 1)] = True
        keep = spt.dynamics._support(lv, seeds)
        solver = spt.dynamics.TraceFixedSolver(lv, space.dim, keep)
        off = np.setdiff1d(np.arange(space.dim ** 2), keep)
        assert len(off) and np.all(solver.steady_state().reshape(-1)[off] == 0)
        w = np.zeros(space.dim ** 2, dtype=complex)
        w[off[0]] = 1.0
        rhs = lv @ w
        assert np.any(rhs[off])
        with pytest.raises(SteadyStateError, match="resolvent residual"):
            solver.resolvent(rhs)

    @pytest.mark.parametrize("fmt", ["csc", "coo", "lil"])
    def test_any_sparse_format(self, fmt):
        # TraceFixedSolver takes any format, so the support must read one too
        space = build_space(HilbertSpec(1, 2))
        lv = TestTraceFixedSolver().canonical()
        rho_inf = steady_state(lv, space.dim)
        psi0 = space.basis_state("e", 0, 0)
        n2op = space.annihilation("cavity2").conj().T @ space.annihilation("cavity2")
        args = (np.outer(psi0, psi0.conj()), rho_inf, n2op)
        ref = spt.dynamics.integrated_observable(lv, *args)
        assert spt.dynamics.integrated_observable(lv.asformat(fmt), *args) == pytest.approx(
            ref, rel=1e-12)

    @pytest.mark.parametrize("keep", [[1, 2], [0, 2, 1], []])
    def test_keep_without_entry_0_or_unsorted_is_value_error(self, keep):
        lv = TestTraceFixedSolver().canonical()
        with pytest.raises(ValueError, match="keep must"):
            spt.dynamics.TraceFixedSolver(lv, TestTraceFixedSolver.space.dim, np.array(keep))


class TestConcurrentAbsorption:
    """single_photon_response solves the first-click absorption in a forked
    child while the hierarchy steps in the caller; every output, diagnostic
    included, must be the serial path's bit for bit."""

    p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)   # kappa1 ~ Gamma_set
    pulse = PulseSpec.from_tau(tau=6.0 / 0.18, center_time=4.5 * 6.0 / 0.18)

    def run(self, spec, dec, workers, absorption=None):
        """(result, pid that solved the absorption) with ``pool_workers`` at
        ``workers``."""
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, 60)
        absorption = absorption or spt.dynamics._first_click_absorption
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "pid")

            def recorded(*args):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
                return absorption(*args)

            mp.setattr(spt.dynamics, "pool_workers", lambda threads: workers)
            mp.setattr(spt.dynamics, "_first_click_absorption", recorded)
            res = single_photon_response(self.p, self.pulse, grid, spec=spec, decoherence=dec,
                                         tol=1e-7)
            with open(path, encoding="utf-8") as fh:
                return res, int(fh.read())

    def check_same_bits(self, spec, dec):
        forked, child = self.run(spec, dec, 2)
        serial, caller = self.run(spec, dec, 1)
        assert caller == os.getpid() != child
        TestForkCall.assert_gone(child)
        _assert_same_bits(forked, serial)
        assert forked.steps == serial.steps
        assert forked.absorbed_fraction > 0.9

    def check_child_error(self):
        def fail(*args):
            raise SteadyStateError(f"absorption failed in pid {os.getpid()}")

        with pytest.raises(SteadyStateError, match="absorption failed in pid") as exc:
            self.run(HilbertSpec(1, 4), None, 2, absorption=fail)
        child = int(str(exc.value).split()[-1])
        assert child != os.getpid()
        TestForkCall.assert_gone(child)

    @pytest.mark.parametrize("spec, dec", [
        (HilbertSpec(1, 4), None), (HilbertSpec(1, 4), "_DEC"), (HilbertSpec(1, 10), None)])
    def test_bitwise_equal_to_serial_at_one_blas_thread(self, spec, dec):
        _at_one_blas_thread(f"TestConcurrentAbsorption().check_same_bits({spec!r}, {dec})")

    def test_child_exception_reaches_the_caller_at_one_blas_thread(self):
        _at_one_blas_thread("TestConcurrentAbsorption().check_child_error()")

    def test_serial_in_a_pool_worker(self):
        # a daemonic worker may not fork, so the absorption runs in the worker
        def one(i):
            res, pid = TestConcurrentAbsorption().run(HilbertSpec(1, 2), None, 2)
            return res.absorbed_fraction, res.rhs_evals, pid == os.getpid()

        serial, _ = self.run(HilbertSpec(1, 2), None, 1)
        for absorbed, evals, in_worker in fork_map(one, 2, 2):
            assert in_worker
            assert (absorbed, evals) == (serial.absorbed_fraction, serial.rhs_evals)


class TestGridSolve:
    """spt.dynamics._grid_solve replays solve_ivp(t_eval=...) bit for bit."""

    @staticmethod
    def _problem():
        space = build_space(HilbertSpec(1, 2))
        p = SystemParams(g1=0.2, g2=1, omega=1.5, kappa1=0.1, kappa2=0.7)
        lv = liouvillian(hamiltonian_ideal(p, space), collapse_set(p, None, space))
        psi = space.basis_state("e", 0, 0)
        return (lambda _t, y: lv @ y), np.outer(psi, psi.conj()).reshape(-1).astype(complex)

    def _check(self, t_grid, rows=slice(None)):
        fun, y0 = self._problem()
        ys, nfev, steps = _collect(spt.dynamics._grid_solve, fun, t_grid, y0, 1e-8, 1e-12, rows)
        ref, ref_nfev, _ = _collect(_solve_ivp_grid, fun, t_grid, y0, 1e-8, 1e-12, rows)
        assert ys.shape == ref.shape and ys.tobytes() == ref.tobytes()
        assert nfev == ref_nfev and steps[0] > 0 and steps[1] >= 0
        return ys

    def _step_ends(self, t0, tf):
        fun, y0 = self._problem()
        solver = DOP853(fun, t0, y0, tf, rtol=1e-8, atol=1e-12)
        ends = []
        while solver.status == "running":
            solver.step()
            ends.append(solver.t)
        return ends

    def test_dense_grid_from_t0(self):
        # t0 itself is read from the first step's dense output, at its start
        ys = self._check(np.linspace(0.0, 30.0, 97))
        assert np.allclose(ys[:, 0], self._problem()[1], rtol=0, atol=1e-15)

    def test_point_on_a_step_end(self):
        ends = self._step_ends(0.0, 30.0)
        assert len(ends) > 4
        # the steps depend on t0 and tf only, so ends[2] is a step end of this run
        grid = np.array([0.0, 0.5 * ends[1], ends[2], 0.5 * (ends[2] + ends[3]), 30.0])
        self._check(grid)
        self._check(grid, rows=np.array([0, 4, 7]))

    def test_two_point_grid(self):
        self._check(np.array([0.0, 30.0]))

    def test_rejects_unsorted_grid(self):
        fun, y0 = self._problem()
        with pytest.raises(ValueError, match="increasing"):
            spt.dynamics._grid_solve(fun, np.array([0.0, 2.0, 1.0]), y0, 1e-8, 1e-12, None)

    @pytest.mark.parametrize("grid", [[], [0.0], [0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]])
    def test_rejects_short_or_non_finite_grid(self, grid):
        fun, y0 = self._problem()
        with pytest.raises(ValueError, match="at least two points, all finite"):
            spt.dynamics._grid_solve(fun, np.array(grid, dtype=float), y0, 1e-8, 1e-12, None)


class TestArguments:
    """Both public integrators refuse a grid or tolerance they cannot honour
    (an empty grid raised IndexError, a non-finite one hung, a one-point grid
    dropped the imaginary parts of the state; tol 0 hung and tol 2 returned
    a gain of 700)."""

    P = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)

    @pytest.mark.parametrize("grid, tol, match", [
        ([], 1e-7, "at least two points"),
        ([3.0], 1e-7, "at least two points"),
        ([0.0, np.nan], 1e-7, "all finite"),
        ([0.0, 5.0, np.inf], 1e-7, "all finite"),
        ([0.0, 10.0], 0.0, "tol must be in"),
        ([0.0, 10.0], 1.0, "tol must be in"),
        ([0.0, 10.0], 2.0, "tol must be in"),
        ([0.0, 10.0], np.nan, "tol must be in"),
        # below 100 eps DOP853 would run at 100 eps instead
        ([0.0, 10.0], 1e-15, "tol must be in"),
        ([0.0, 10.0], 0.99 * spt.ode.MIN_RTOL, "tol must be in"),
    ])
    def test_value_error(self, grid, tol, match):
        grid = np.array(grid, dtype=float)
        space = build_space(HilbertSpec(1, 2))
        psi = space.basis_state("e", 0, 0)
        with pytest.raises(ValueError, match=match):
            lindblad_propagate(hamiltonian_ideal(self.P, space), collapse_set(self.P, None, space),
                               np.outer(psi, psi.conj()), grid, tol=tol)
        with pytest.raises(ValueError, match=match):
            single_photon_response(self.P, PulseSpec.from_tau(tau=30.0, center_time=135.0), grid,
                                   spec=HilbertSpec(1, 2), tol=tol)

    def test_tol_of_100_eps_is_honoured(self, recwarn):
        space = build_space(HilbertSpec(1, 2))
        psi = space.basis_state("e", 0, 0)
        ts, _ = lindblad_propagate(hamiltonian_ideal(self.P, space),
                                   collapse_set(self.P, None, space), np.outer(psi, psi.conj()),
                                   np.array([0.0, 1.0]), tol=spt.ode.MIN_RTOL)
        assert len(ts.times) == 2 and not recwarn.list


class TestCompactDOP853:
    """spt.ode.DOP853 with a _CompactLayout, on a compact state, replays
    DOP853 on the full state bit for bit."""

    @staticmethod
    def _problem(n):
        """A random sparse linear ODE dy/dt = A y + exp(-4 (t - 10)^2) b of
        length n, and its kept entries: the dropped ones (a third, none of the
        last four) have zero rows of A, zero b and start at zero, so they stay
        exactly zero."""
        rng = np.random.default_rng(n)
        keep = np.sort(np.concatenate([
            rng.choice(n - 4, size=2 * (n - 4) // 3, replace=False), np.arange(n - 4, n)]))
        held = np.zeros(n, dtype=bool)
        held[keep] = True

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a = 0.3 * (rng.random((n, n)) < 0.05) * draw(n, n) - np.eye(n)
        a[~held] = 0.0
        a = sparse.csr_matrix(a)
        b = np.where(held, draw(n), 0.0)
        y0 = np.where(held, draw(n), 0.0)
        return (lambda t, y: a @ y + np.exp(-4.0 * (t - 10.0) ** 2) * b), y0, keep

    @pytest.mark.parametrize("n", [160, 162, 168, 170])   # 0, 2, 8 and 10 (mod 16)
    def test_bitwise_equal_to_full_state_dop853(self, n):
        # n x 16 stage entries stay below OpenBLAS's threading threshold, so
        # the BLAS thread count does not matter here
        fun, y0, keep = self._problem(n)
        layout = spt.dynamics._CompactLayout.of(keep, n)
        grid = np.linspace(0.0, 20.0, 41)
        ys, nfev, steps = _collect(spt.dynamics._grid_solve, fun, grid, y0, 1e-9, 1e-13, keep)
        ys_c, nfev_c, steps_c = _collect(
            spt.dynamics._grid_solve,
            lambda t, y: layout.compact(fun(t, layout.full(y))), grid, layout.compact(y0),
            1e-9, 1e-13, layout.positions(keep), layout=layout)
        assert ys_c.tobytes() == ys.tobytes()
        assert (nfev_c, steps_c) == (nfev, steps)
        assert steps[0] > 20 and steps[1] > 0
        assert len(layout.slots) < n and len(layout.slots) % 16 == n % 16

    def test_layout_round_trip(self):
        _, y0, keep = self._problem(170)
        layout = spt.dynamics._CompactLayout.of(keep, 170)
        assert layout.full(layout.compact(y0)).tobytes() == y0.tobytes()
        assert np.array_equal(layout.compact(y0)[layout.positions(keep)], y0[keep])


def _lindblad_cases():
    """The lindblad_propagate calls of TestLindblad and TestGain, as (h, cols, rho0, t, kw)."""
    cases = []
    space = build_space(HilbertSpec(1, 1))
    cols = {"kappa2": np.sqrt(0.8) * space.annihilation("cavity2")}
    psi = space.basis_state("e", 0, 1)
    cases.append((np.zeros((space.dim,) * 2, dtype=complex), cols, np.outer(psi, psi.conj()),
                  np.linspace(0, 6, 61), {"expectations": {"n2": space.number("cavity2")}}))
    h = hamiltonian_ideal(SystemParams(g1=0.1, g2=1, omega=2), space)
    psi = space.basis_state("e", 0, 0)
    cases.append((h, {}, np.outer(psi, psi.conj()), np.linspace(0, 10, 21),
                  {"tol": 1e-10}))
    space = build_space(HilbertSpec(1, 2))
    h = hamiltonian_ideal(SystemParams(g1=0.3, g2=1, omega=0.0), space)
    psi = (space.basis_state("e", 0, 0) + space.basis_state("g", 1, 0)) / np.sqrt(2)
    cases.append((h, {}, np.outer(psi, psi.conj()), np.linspace(0, 20, 11),
                  {"tol": 1e-9, "expectations": {"N": space.number("cavity1")}}))
    space = build_space(HilbertSpec(0, 1))
    p = SystemParams(g1=0, g2=1, omega=2, kappa2=0.1)
    psi = space.basis_state("f", 0, 0)
    cases.append((hamiltonian_ideal(p, space), collapse_set(p, None, space),
                  np.outer(psi, psi.conj()), np.linspace(0, 3, 7), {"space": space}))
    space = build_space(HilbertSpec(1, 6))
    p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.02, kappa2=1)
    a2 = space.annihilation("cavity2")
    psi = space.basis_state("e", 0, 0)
    cases.append((hamiltonian_ideal(p, space), collapse_set(p, None, space),
                  np.outer(psi, psi.conj()), np.linspace(0.0, 100.0, 2001),
                  {"expectations": {"n2": a2.conj().T @ a2}, "space": space}))
    return cases


@pytest.mark.filterwarnings("ignore:top Fock layer")
@pytest.mark.parametrize("case", range(5))
def test_lindblad_propagate_equals_solve_ivp_route(case, monkeypatch):
    h, cols, rho0, t, kw = _lindblad_cases()[case]
    ts, rho_end = lindblad_propagate(h, cols, rho0, t, **kw)
    monkeypatch.setattr(spt.dynamics, "_grid_solve", _solve_ivp_grid)
    ref_ts, ref_end = lindblad_propagate(h, cols, rho0, t, **kw)
    assert list(ts.channels) == list(ref_ts.channels)
    for name, values in ref_ts.channels.items():
        assert ts.channels[name].tobytes() == values.tobytes(), name
    assert rho_end.tobytes() == ref_end.tobytes()


class TestGain:
    def test_gain_matches_time_integration(self):
        # independent route: kappa2 * trapezoid of <n2>(t) from the Lindblad
        # integrator, started in |e,0,0> at the impedance-matched kappa1
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa2=1)
        res = gain_and_bandwidth(p, n2_trunc=6)
        assert res.bandwidth == pytest.approx(setting_rate(p, 6).value, rel=1e-12)
        space = build_space(HilbertSpec(1, 6))
        pm = p.replace(kappa1=res.bandwidth)
        h = hamiltonian_ideal(pm, space)
        cols = collapse_set(pm, None, space)
        a2 = space.annihilation("cavity2")
        psi0 = space.basis_state("e", 0, 0)
        rho = np.outer(psi0, psi0.conj())
        total = 0.0
        for k in range(8):  # T = 800 on a 0.05 grid, in 100-unit pieces to bound memory
            grid = np.linspace(100.0 * k, 100.0 * (k + 1), 2001)
            ts, rho = lindblad_propagate(h, cols, rho, grid,
                                         expectations={"n2": a2.conj().T @ a2})
            total += np.trapezoid(ts.channels["n2"], grid)
        assert res.gain == pytest.approx(p.kappa2 * total, rel=1e-6)

    def test_one_lu_and_no_time_integration(self, monkeypatch):
        import scipy.sparse.linalg as spla

        import spt.dynamics

        calls = {"splu": 0, "solve_ivp": 0}
        splu = spla.splu

        def counted_splu(*args, **kwargs):
            calls["splu"] += 1
            return splu(*args, **kwargs)

        def counted_solve_ivp(*args, **kwargs):
            calls["solve_ivp"] += 1
            raise AssertionError("gain_and_bandwidth must not integrate in time")

        monkeypatch.setattr(spla, "splu", counted_splu)
        monkeypatch.setattr(spt.dynamics, "solve_ivp", counted_solve_ivp)
        monkeypatch.setattr(spt.dynamics, "_grid_solve", counted_solve_ivp)
        gain_and_bandwidth(SystemParams(g1=0.15, g2=1, omega=2, kappa2=1), n2_trunc=6)
        assert calls == {"splu": 1, "solve_ivp": 0}

    @pytest.mark.parametrize("dec", [None, _DEC], ids=["ideal", "decoherence"])
    def test_gain_does_not_depend_on_n1(self, dec):
        # |e,0,0> has Q = 1, which no term raises: the full basis at N1 = 2 and
        # 4 gives the gain that gain_and_bandwidth takes at N1 = 1
        p = SystemParams(g1=0.15, g2=1, omega=2, kappa2=1)
        res = gain_and_bandwidth(p, dec, n2_trunc=8)
        pm = p.replace(kappa1=res.bandwidth)
        for n1 in (2, 4):
            space = build_space(HilbertSpec(n1, 8))
            lv = liouvillian(hamiltonian_ideal(pm, space), collapse_set(pm, dec, space))
            full = spt.dynamics.TraceFixedSolver(lv, space.dim)
            psi0 = space.basis_state("e", 0, 0)
            x = full.resolvent(full.steady_state() - np.outer(psi0, psi0.conj()))
            gain = p.kappa2 * spt.dynamics._expectation(space.number("cavity2"), x)
            assert gain == pytest.approx(res.gain, rel=1e-12), n1

    def test_truncation_convergence(self):
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=1)
        g10 = gain_and_bandwidth(p, n2_trunc=10).gain
        g12 = gain_and_bandwidth(p, n2_trunc=12).gain
        assert g12 == pytest.approx(g10, rel=1e-3)

    def test_bandwidth_scales_as_g1_squared(self):
        p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=1)
        r1 = gain_and_bandwidth(p, n2_trunc=6)
        r2 = gain_and_bandwidth(p.replace(g1=0.1), n2_trunc=6)
        assert r2.bandwidth / r1.bandwidth == pytest.approx(4.0, rel=1e-9)
        assert r2.gain < r1.gain
