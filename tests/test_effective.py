import dataclasses
import math

import numpy as np
import pytest

from spt.effective import (RateResult, SingularEliminationError, UndefinedRateError,
                           _excited_block_nh, dark_asymptotic_enhanced, dark_asymptotic_single,
                           dark_rates_steady, effective_jump, reflection_analytic, setting_rate,
                           setting_rate_analytic)
from spt.hilbert import HilbertSpec, build_space
from spt.model import (SystemParams, collapse_set, hamiltonian_finite_A, hamiltonian_ideal,
                       nonhermitian, residual_drive_element)

P_REF = SystemParams(g1=0.05, g2=1, omega=2, kappa1=0, kappa2=2)


class TestSettingRate:
    def test_closed_forms_at_reference(self):
        assert setting_rate_analytic(P_REF, 1).value == pytest.approx(0.0025, rel=1e-9)
        assert setting_rate_analytic(P_REF, 2).value == pytest.approx(2.88 / 896, rel=1e-9)

    def test_numeric_matches_analytic_orders_1_2(self):
        for k in (1, 2):
            num = setting_rate(P_REF, n2_trunc=k).value
            ana = setting_rate_analytic(P_REF, k).value
            assert num == pytest.approx(ana, rel=1e-9)

    def test_order3_closed_form_is_approximate(self):
        # the printed order-3 expression is slightly inexact against the true
        # symbolic elimination (2.5e-4 relative at the reference point); the
        # numeric inversion is the ground truth
        num = setting_rate(P_REF, n2_trunc=3).value
        ana = setting_rate_analytic(P_REF, 3).value
        assert num == pytest.approx(0.0032474226804123713, rel=1e-12)
        assert ana == pytest.approx(num, rel=1e-3)
        assert abs(ana - num) / num > 1e-6

    def test_numeric_matches_analytic_over_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = SystemParams(
                g1=rng.uniform(0.01, 0.1), g2=1.0,
                omega=rng.uniform(0.3, 4.0), kappa2=rng.uniform(0.3, 4.0),
            )
            for k in (1, 2):
                assert setting_rate(p, k).value == pytest.approx(
                    setting_rate_analytic(p, k).value, rel=1e-9)

    def test_quadratic_in_g1(self):
        r1 = setting_rate(P_REF, 6).value
        r2 = setting_rate(P_REF.replace(g1=0.1), 6).value
        assert r2 / r1 == pytest.approx(4.0, rel=1e-10)

    def test_convergence_at_large_truncation(self):
        # converged value against the order-3 closed form, kappa2/g2 = 2 >= 1.5
        r10 = setting_rate(P_REF, 10)
        assert abs(r10.convergence_delta) < 1e-6 * r10.value
        assert r10.value == pytest.approx(setting_rate_analytic(P_REF, 3).value, rel=0.02)

    def test_convergence_delta_is_a_field(self):
        assert "convergence_delta" in {f.name for f in dataclasses.fields(RateResult)}
        assert math.isnan(RateResult(value=1.0).convergence_delta)
        assert math.isnan(setting_rate_analytic(P_REF, 2).convergence_delta)
        assert math.isnan(setting_rate(P_REF, 1).convergence_delta)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            setting_rate(P_REF, 0)
        with pytest.raises(ValueError):
            setting_rate_analytic(P_REF, 4)
        with pytest.raises(ValueError):
            setting_rate_analytic(P_REF.replace(omega=0.0), 1)

    def test_warns_when_g1_not_perturbative(self):
        with pytest.warns(UserWarning):
            setting_rate(P_REF.replace(g1=0.5), 2)

    def test_order3_closed_form_is_undefined_at_zero_kappa2(self):
        p = P_REF.replace(kappa2=0.0)
        assert [setting_rate_analytic(p, k).value for k in (1, 2)] == [0.0, 0.0]
        with pytest.raises(UndefinedRateError, match="kappa2"):
            setting_rate_analytic(p, 3)

    @pytest.mark.parametrize("n2", [1, 2, 3, 10, 16])
    @pytest.mark.parametrize("params", [P_REF, SystemParams(g1=0.1, g2=0.7, omega=1.3,
                                                            kappa2=0.35)])
    def test_excited_block_is_the_model_restricted(self, params, n2):
        # the hand-built block equals the model's H_NH and kappa2 jump restricted
        # to (e,0,0), (f,0,0), (e,0,1), ...; not bit for bit, since the model
        # takes sqrt(kappa2) sqrt(n2) and the product C^dag C where the block
        # writes sqrt(n2 kappa2) and n2 kappa2 / 2.  Gamma_set is computed from
        # the block, so restricting the model instead would move its bits
        space = build_space(HilbertSpec(0, n2))
        cols = collapse_set(params, None, space)
        idx = [space.index(level, 0, k) for k in range(n2 + 1) for level in "ef"]
        h_model = nonhermitian(hamiltonian_ideal(params, space), cols)[np.ix_(idx, idx)]
        c_model = cols["kappa2"][np.ix_(idx, idx)]
        h, c, _ = _excited_block_nh(params, n2)
        for block, model in ((h, h_model), (c, c_model)):
            assert np.max(np.abs(block - model)) <= 1e-14 * np.max(np.abs(model))


class TestEffectiveJump:
    def test_zero_jump_operator(self):
        h = np.diag([1.0 + 0.5j, 2.0 + 0.5j]).astype(complex)
        v = np.array([[1.0], [0.0]], dtype=complex)
        assert not effective_jump(np.zeros((2, 2)), h, v).any()

    def test_singular_raises(self):
        h = np.zeros((2, 2), dtype=complex)
        v = np.array([[1.0], [0.0]], dtype=complex)
        with pytest.raises(SingularEliminationError):
            effective_jump(np.eye(2), h, v)


class TestReflection:
    def test_reference_values(self):
        assert reflection_analytic(1.0, 1.0) == 0.0
        assert reflection_analytic(3.0, 1.0) == pytest.approx(0.25)
        assert reflection_analytic(0.0, 1.0) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gs, k1 = rng.uniform(0.01, 5, size=2)
            assert reflection_analytic(gs, k1) == pytest.approx(
                reflection_analytic(k1, gs), rel=1e-12)

    def test_bounds_and_errors(self):
        assert 0 <= reflection_analytic(0.3, 2.0) <= 1
        with pytest.raises(ValueError):
            reflection_analytic(0.0, 0.0)


class TestDarkRates:
    def test_asymptotic_reference_values(self):
        p = SystemParams(g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        assert dark_asymptotic_single(p) == pytest.approx(4e-3, rel=1e-12)
        assert dark_asymptotic_enhanced(p) == pytest.approx(8e-7, rel=1e-12)

    def test_inversion_regression(self):
        # frozen 7-state inversion values at the reference sweep point
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        r = dark_rates_steady(p)
        assert r.single.value == pytest.approx(3.4517568e-3, rel=1e-6)
        assert r.enhanced.value == pytest.approx(6.911824e-7, rel=1e-6)

    def test_extended_space_agrees(self):
        # reference: the same elimination over the whole (1,1) truncation minus |g,0,0>
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=60)
        space = build_space(HilbertSpec(1, 1))
        cols = collapse_set(p, None, space, split=True)
        h_nh = nonhermitian(hamiltonian_finite_A(p, space), cols)
        i_g00, i_e00, i_f00 = (space.index(m, 0, 0) for m in "gef")
        elim = [i for i in range(space.dim) if i != i_g00]
        v = np.zeros((len(elim), 1), dtype=complex)
        v[elim.index(i_e00), 0] = residual_drive_element(p)
        h_e = h_nh[np.ix_(elim, elim)]
        jump_g = effective_jump(cols["kappa2_G"][:, elim], h_e, v)
        jump_e = effective_jump(cols["kappa2_E"][:, elim], h_e, v)
        r7 = dark_rates_steady(p)
        assert abs(jump_g[i_g00, 0]) ** 2 == pytest.approx(r7.single.value, rel=1e-3)
        assert (abs(jump_e[i_e00, 0]) ** 2 + abs(jump_e[i_f00, 0]) ** 2
                == pytest.approx(r7.enhanced.value, rel=1e-3))

    def test_inversion_approaches_asymptotic_at_large_A(self):
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=100)
        r = dark_rates_steady(p)
        assert r.single.value == pytest.approx(r.single_asymptotic.value, rel=0.10)
        assert r.enhanced.value == pytest.approx(r.enhanced_asymptotic.value, rel=0.10)

    def test_asymptotic_scaling_slopes(self):
        a_grid = np.geomspace(30, 100, 9)
        base = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        singles, enhanced, s_asym, e_asym = [], [], [], []
        for a in a_grid:
            p = base.replace(anharmonicity=float(a))
            r = dark_rates_steady(p)
            singles.append(r.single.value)
            enhanced.append(r.enhanced.value)
            s_asym.append(r.single_asymptotic.value)
            e_asym.append(r.enhanced_asymptotic.value)
        ls = np.log(a_grid)
        assert np.polyfit(ls, np.log(s_asym), 1)[0] == pytest.approx(-2.0, abs=1e-9)
        assert np.polyfit(ls, np.log(e_asym), 1)[0] == pytest.approx(-4.0, abs=0.05)
        # second-order elimination flattens at small A where Gamma_s/kappa2 is
        # no longer tiny: the inversion slopes sit at -1.74 and -3.74 here
        assert np.polyfit(ls, np.log(enhanced), 1)[0] == pytest.approx(-4.0, abs=0.3)
        assert np.polyfit(ls, np.log(singles), 1)[0] == pytest.approx(-2.0, abs=0.3)

    def test_asymptotic_variants_agree_at_large_A(self):
        # the two closed-form denominators agree at large A; the oracle is the
        # exact two-state elimination, kappa2 g2^2 om^2 / (4 (A^2 kappa2^2 + g2^4))
        p = SystemParams(g2=1, omega=2, kappa2=1.0, anharmonicity=200)
        two_state = (p.kappa2 * p.g2**2 * p.omega**2
                     / (4 * (p.anharmonicity**2 * p.kappa2**2 + p.g2**4)))
        assert dark_rates_steady(p).single_asymptotic.value == pytest.approx(two_state, rel=1e-4)

    def test_rejects_infinite_A(self):
        with pytest.raises(ValueError):
            dark_rates_steady(SystemParams())

    def test_asymptotic_forms_are_undefined_at_zero_kappa2(self):
        p = SystemParams(g2=1, omega=2, kappa2=0.0, anharmonicity=40)
        for form in (dark_asymptotic_single, dark_asymptotic_enhanced):
            with pytest.raises(UndefinedRateError, match="kappa2"):
                form(p)


class TestDynamicalDark:
    def test_equals_steady_asymptotic(self):
        from spt.effective import dynamical_dark_correction

        p = SystemParams(g2=1, omega=2, kappa2=0.1, anharmonicity=50)
        res = dynamical_dark_correction(p)
        assert res.dynamical.value == pytest.approx(8e-7, rel=1e-12)
        assert res.total_analytic == pytest.approx(
            dark_rates_steady(p).enhanced.value + 8e-7, rel=1e-9)
        assert res.eta_empirical == 4.0

    def test_vanishes_at_large_A(self):
        from spt.effective import dynamical_dark_correction

        p = SystemParams(g2=1, omega=2, kappa2=0.1, anharmonicity=1e6)
        assert dynamical_dark_correction(p).dynamical.value < 1e-20
