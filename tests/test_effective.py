import dataclasses
import math

import numpy as np
import pytest

from spt.effective import (RateResult, SingularEliminationError, dark_asymptotic_enhanced,
                           dark_asymptotic_single, dark_rates_steady, effective_jump,
                           reflection_analytic, setting_rate, setting_rate_analytic)
from spt.model import SystemParams

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
        assert math.isnan(RateResult(value=1.0, method="direct", truncation=3).convergence_delta)
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
        p = SystemParams(g1=0.2, g2=1, omega=2, kappa2=0.1, anharmonicity=60)
        r7 = dark_rates_steady(p)
        r12 = dark_rates_steady(p, extended_space=True)
        assert r12.single.value == pytest.approx(r7.single.value, rel=1e-3)
        assert r12.enhanced.value == pytest.approx(r7.enhanced.value, rel=1e-3)

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
        # the two closed-form denominators agree at large A; the second variant
        # is the exact two-state elimination
        p = SystemParams(g2=1, omega=2, kappa2=1.0, anharmonicity=200)
        r = dark_rates_steady(p)
        assert r.single_asymptotic.value == pytest.approx(
            r.single_asymptotic_main.value, rel=1e-4)

    def test_rejects_infinite_A(self):
        with pytest.raises(ValueError):
            dark_rates_steady(SystemParams())


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
