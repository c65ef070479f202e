import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

import spt.dynamics
from spt.hilbert import HilbertSpec, build_space
from spt.model import (CollapseSet, DecoherenceParams, SystemParams, collapse_set,
                       hamiltonian_ideal, nonhermitian)
from spt.dynamics import (PulseSpec, SinglePhotonResult, TimeSeries, gain_and_bandwidth,
                          gaussian_pulse, lindblad_propagate, liouvillian,
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
        calls = {"hierarchy": 0, "absorption": 0}
        hierarchy_rhs = spt.dynamics._hierarchy_rhs

        def counted(name, fun):
            def f(t, y):
                calls[name] += 1
                return fun(t, y)
            return f

        # the hierarchy RHS is counted where it is built, the absorption RHS
        # where its solve_ivp receives it
        monkeypatch.setattr(spt.dynamics, "_hierarchy_rhs",
                            lambda *a: counted("hierarchy", hierarchy_rhs(*a)))
        monkeypatch.setattr(spt.dynamics, "solve_ivp",
                            lambda fun, *a, **kw: solve_ivp(counted("absorption", fun), *a, **kw))
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
            single_photon_response(p, pulse, np.linspace(0, 80, 101),
                                   spec=HilbertSpec(1, 1), tail=False)


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


def _solve_ivp_grid(fun, t_grid, y0, rtol, atol, rows=slice(None), what="ODE"):
    """Oracle of ``spt.dynamics._grid_solve``: one solve_ivp call with t_eval
    (the library's former route), every row of y stored, then ``rows`` kept."""
    sol = solve_ivp(fun, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"{what} integration failed: {sol.message}")
    return sol.y[rows], sol.nfev, None


def _reference_response(params, pulse, t_grid, spec, decoherence, tol):
    """Oracle: ``single_photon_response`` as it was before it kept only the
    evolved entries: solve_ivp with t_eval stores all 2 dim^2 entries at every
    grid point, and the observables come from the full (time, dim, dim) grids.
    Returns the result and the full ``sol.y``."""
    space = build_space(spec)
    h = hamiltonian_ideal(params, space)
    cols = collapse_set(params, decoherence, space)
    lv = liouvillian(h, cols)
    dim, nf = space.dim, space.dim ** 2
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n2op = a2.conj().T @ a2
    rho00 = np.outer(space.basis_state("g", 0, 0), space.basis_state("g", 0, 0).conj())
    rhs = spt.dynamics._hierarchy_rhs(lv, space, params.kappa1, pulse,
                                      spt.dynamics._hierarchy_support(lv, space))
    y0 = np.zeros(2 * nf, dtype=complex)
    y0[nf:] = rho00.reshape(-1)
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid,
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
        nonhermitian(h, cols), cols.get("kappa1"), np.sqrt(params.kappa1),
        space.basis_state("g", 0, 0), space.index("g", 1, 0),
        pulse, (t_grid[0], t_grid[-1]), max(tol, 1e-9))
    tail = params.kappa2 * spt.dynamics.integrated_observable(lv, rho11_t[-1], rho00, n2op)
    gain = float(np.trapezoid(i_out2, t_grid)) + tail
    top2 = spt.dynamics._top_layer_projectors(space)[1]
    res = SinglePhotonResult(
        series=TimeSeries(times=t_grid, channels=channels),
        absorbed_fraction=absorbed, gain=gain, n_out1=float(np.trapezoid(i_out1, t_grid)),
        final_rho=rho11_t[-1], rhs_evals=sol.nfev + absorption_evals,
        top_layer_peak=float((np.einsum("tii->ti", rho11_t).real @ top2).max()))
    return res, sol.y


def _assert_same_bits(res, ref):
    assert list(res.series.channels) == list(ref.series.channels)
    for name, values in ref.series.channels.items():
        assert res.series.channels[name].tobytes() == values.tobytes(), name
    for name in ("gain", "absorbed_fraction", "n_out1", "rhs_evals", "top_layer_peak"):
        assert repr(getattr(res, name)) == repr(getattr(ref, name)), name
    assert res.final_rho.tobytes() == ref.final_rho.tobytes()


class TestKeptEntries:
    """single_photon_response stores only the evolved entries on the grid;
    every output must be bit for bit the full-grid route's."""

    p = SystemParams(g1=0.3, g2=1, omega=2, kappa1=0.18, kappa2=1)   # kappa1 ~ Gamma_set
    pulse = PulseSpec.from_tau(tau=6.0 / 0.18, center_time=4.5 * 6.0 / 0.18)

    @pytest.mark.parametrize("spec, dec, points", [
        (HilbertSpec(1, 4), None, 60),
        (HilbertSpec(1, 4), DecoherenceParams(gamma_eg=0.01, gamma_fe=0.02,
                                              gamma_p_ee=0.005, gamma_p_ff=0.01), 60),
        (HilbertSpec(2, 3), None, 60),
        (HilbertSpec(1, 10), None, 61),
        (HilbertSpec(1, 4), None, 2),                  # the two-point grid
        (HilbertSpec(1, 4), None, 17),                 # one point past a whole chunk
    ])
    def test_bitwise_equal_to_full_grid_oracle(self, spec, dec, points):
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, points)
        res = single_photon_response(self.p, self.pulse, grid, spec=spec, decoherence=dec,
                                     tol=1e-7)
        ref, _ = _reference_response(self.p, self.pulse, grid, spec, dec, 1e-7)
        _assert_same_bits(res, ref)
        assert res.final_rho.base is None
        if points > 2:
            assert res.gain > 1.0 and res.absorbed_fraction > 0.9   # a non-trivial run

    def test_full_block_rhs_leaves_dropped_entries_zero(self, monkeypatch):
        # the full right-hand side evolves every entry, so a kept-row set that
        # missed a nonzero entry would show here, in the oracle's sol.y
        monkeypatch.setattr(spt.dynamics, "_hierarchy_rhs", _full_block_rhs)
        spec = HilbertSpec(1, 4)
        grid = np.linspace(0.0, 9.0 * self.pulse.tau, 60)
        res = single_photon_response(self.p, self.pulse, grid, spec=spec, tol=1e-7)
        ref, ys = _reference_response(self.p, self.pulse, grid, spec, None, 1e-7)
        _assert_same_bits(res, ref)
        space = build_space(spec)
        lv = liouvillian(hamiltonian_ideal(self.p, space), collapse_set(self.p, None, space))
        col, _, sup = spt.dynamics._hierarchy_support(lv, space)
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
        assert peak <= 30 * 2**20, f"{peak / 2**20:.1f} MiB"
        assert res.final_rho.base is None


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
        ys, nfev, steps = spt.dynamics._grid_solve(fun, t_grid, y0, 1e-8, 1e-12, rows)
        ref, ref_nfev, _ = _solve_ivp_grid(fun, t_grid, y0, 1e-8, 1e-12, rows)
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
            spt.dynamics._grid_solve(fun, np.array([0.0, 2.0, 1.0]), y0, 1e-8, 1e-12)


def _lindblad_cases():
    """The lindblad_propagate calls of TestLindblad and TestGain, as (h, cols, rho0, t, kw)."""
    cases = []
    space = build_space(HilbertSpec(1, 1))
    cols = CollapseSet([("kappa2", np.sqrt(0.8) * space.annihilation("cavity2"))])
    psi = space.basis_state("e", 0, 1)
    cases.append((np.zeros((space.dim,) * 2, dtype=complex), cols, np.outer(psi, psi.conj()),
                  np.linspace(0, 6, 61), {"expectations": {"n2": space.number("cavity2")}}))
    h = hamiltonian_ideal(SystemParams(g1=0.1, g2=1, omega=2), space)
    psi = space.basis_state("e", 0, 0)
    cases.append((h, CollapseSet([]), np.outer(psi, psi.conj()), np.linspace(0, 10, 21),
                  {"tol": 1e-10}))
    space = build_space(HilbertSpec(1, 2))
    h = hamiltonian_ideal(SystemParams(g1=0.3, g2=1, omega=0.0), space)
    psi = (space.basis_state("e", 0, 0) + space.basis_state("g", 1, 0)) / np.sqrt(2)
    cases.append((h, CollapseSet([]), np.outer(psi, psi.conj()), np.linspace(0, 20, 11),
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
