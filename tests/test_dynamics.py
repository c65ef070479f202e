import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spt.hilbert import HilbertSpec, build_space
from spt.model import CollapseSet, DecoherenceParams, SystemParams, collapse_set, hamiltonian_ideal
from spt.dynamics import (PulseSpec, TimeSeries, gain_and_bandwidth, gaussian_pulse,
                          lindblad_propagate, liouvillian, single_photon_response,
                          steady_state, steady_state_reflection)
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

    def test_remaining_norm(self):
        spec = PulseSpec(sigma=0.5, center_time=2.0)
        assert spec.remaining_norm(-30) == pytest.approx(1.0)
        assert spec.remaining_norm(2.0) == pytest.approx(0.5)
        assert spec.remaining_norm(40.0) == pytest.approx(0.0, abs=1e-12)


class TestLindblad:
    def test_exponential_decay(self):
        space = build_space(HilbertSpec(1, 1))
        k2 = 0.8
        cols = CollapseSet([("kappa2", np.sqrt(k2) * space.annihilation("cavity2"))])
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
        _, rho_end = lindblad_propagate(h, CollapseSet([]), rho0, t, tol=1e-10)
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
        ts, _ = lindblad_propagate(h, CollapseSet([]), rho0, t, tol=1e-9,
                                   expectations={"N": n_op})
        assert np.max(np.abs(ts.channels["N"] - ts.channels["N"][0])) < 1e-7

    def test_positivity_and_trace(self):
        space = build_space(HilbertSpec(1, 2))
        p = SystemParams(g1=0.2, g2=1, omega=1.5, kappa1=0.1, kappa2=0.7)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, DecoherenceParams(0.05, 0.1, 0.02, 0.04), space)
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

    def test_fixed_step_reproducible(self):
        space = build_space(HilbertSpec(0, 2))
        p = SystemParams(g1=0, g2=1, omega=1, kappa2=0.5)
        h = hamiltonian_ideal(p, space)
        cols = collapse_set(p, None, space)
        psi = space.basis_state("f", 0, 0)
        rho0 = np.outer(psi, psi.conj())
        t = np.linspace(0, 5, 11)
        _, r1 = lindblad_propagate(h, cols, rho0, t, fixed_step=0.01)
        _, r2 = lindblad_propagate(h, cols, rho0, t, fixed_step=0.01)
        assert np.array_equal(r1, r2)

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


class TestSinglePhoton:
    def test_empty_cavity_oracle(self):
        # no qutrit coupling: cavity amplitude follows the exact single-excitation ODE
        from scipy.integrate import solve_ivp

        p = SystemParams(g1=0.0, g2=1, omega=0, kappa1=0.5, kappa2=0.0)
        pulse = PulseSpec.from_tau(tau=12.0, center_time=60.0)
        grid = np.linspace(0, 160, 801)
        res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 0), tail=False)
        sol = solve_ivp(
            lambda t, c: -0.25 * c + np.sqrt(0.5) * float(gaussian_pulse(pulse, t)),
            (0, 160), [0.0], t_eval=grid, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(res.series.channels["n1"] - sol.y[0] ** 2)) < 1e-6
        assert res.n_out1 == pytest.approx(1.0, abs=1e-4)

    def test_decoupled_qutrit_reflects(self):
        p = SystemParams(g1=0.0, g2=1, omega=2, kappa1=0.4, kappa2=1.0)
        pulse = PulseSpec.from_tau(tau=15.0, center_time=70.0)
        grid = np.linspace(0, 180, 601)
        res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 1), tail=False)
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
        import spt.dynamics
        from scipy.integrate import solve_ivp

        calls = []

        def counted(fun, *args, **kwargs):
            def f(t, y):
                calls.append(t)
                return fun(t, y)
            return solve_ivp(f, *args, **kwargs)

        monkeypatch.setattr(spt.dynamics, "solve_ivp", counted)
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)
        tau = 6.0 / p.kappa1
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        peaks = []
        for n2 in (2, 4):
            calls.clear()
            res = single_photon_response(p, pulse, np.linspace(0.0, 9.0 * tau, 40),
                                         spec=HilbertSpec(1, n2), tol=1e-7)
            assert res.rhs_evals == len(calls) > 0      # hierarchy and absorption solves
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
            single_photon_response(p, pulse, np.linspace(0, 80, 101),
                                   spec=HilbertSpec(1, 1), tail=False)


def _full_block_rhs(lv, space, kappa1, pulse):
    """Oracle: the hierarchy right-hand side on the whole rho_10 block.

    Full L rho_10 product and dense commutator [a1^dag, rho_01]; the library
    evolves only the |g,0,0> column of rho_10 and must match this bit for bit.
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
        (HilbertSpec(1, 4), DecoherenceParams(gamma_eg=0.01, gamma_fe=0.02,
                                              gamma_p_ee=0.005, gamma_p_ff=0.01)),
        (HilbertSpec(2, 3), None),
    ])
    def test_bitwise_equal_to_full_block_oracle(self, monkeypatch, spec, dec):
        import spt.dynamics

        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)  # kappa1 ~ Gamma_set
        tau = 6.0 / p.kappa1
        pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
        grid = np.linspace(0.0, 9.0 * tau, 60)
        res = single_photon_response(p, pulse, grid, spec=spec, decoherence=dec, tol=1e-7)
        monkeypatch.setattr(spt.dynamics, "_hierarchy_rhs", _full_block_rhs)
        ref = single_photon_response(p, pulse, grid, spec=spec, decoherence=dec, tol=1e-7)
        assert list(res.series.channels) == list(ref.series.channels)
        for name, values in ref.series.channels.items():
            assert np.array_equal(res.series.channels[name], values), name
        assert res.gain == ref.gain
        assert res.absorbed_fraction == ref.absorbed_fraction
        assert res.n_out1 == ref.n_out1
        assert np.array_equal(res.final_rho, ref.final_rho)
        assert res.gain > 1.0 and res.absorbed_fraction > 0.9   # a non-trivial run

    def test_pumped_ground_raises(self, monkeypatch):
        import spt.dynamics

        def pumped(params, decoherence, space, **kw):
            cols = collapse_set(params, decoherence, space, **kw)
            cols.jumps.append(("pump", 0.1 * space.qutrit_op("e", "g")))
            return cols

        monkeypatch.setattr(spt.dynamics, "collapse_set", pumped)
        p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)
        pulse = PulseSpec.from_tau(tau=30.0, center_time=135.0)
        with pytest.raises(ValueError, match="dark"):
            single_photon_response(p, pulse, np.linspace(0.0, 270.0, 11),
                                   spec=HilbertSpec(1, 2))


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
        gain_and_bandwidth(SystemParams(g1=0.15, g2=1, omega=2, kappa2=1), n2_trunc=6)
        assert calls == {"splu": 1, "solve_ivp": 0}

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


class TestTimeSeriesCSV:
    def test_roundtrip(self, tmp_path):
        ts = TimeSeries(times=np.array([0.0, 0.5, 1.0]),
                        channels={"a": np.array([1.0, 2.0, 3.0]),
                                  "b": np.array([0.1, 0.2, 0.3])},
                        metadata={"seed": "7"})
        path = tmp_path / "out.csv"
        ts.to_csv(path)
        back = TimeSeries.from_csv(path)
        assert np.allclose(back.times, ts.times)
        assert np.allclose(back.channels["a"], ts.channels["a"])
        assert back.metadata["seed"] == "7"
        header = path.read_text().splitlines()[1]
        assert header == "time,a,b"
