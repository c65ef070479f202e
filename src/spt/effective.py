"""Effective-operator (adiabatic elimination) engine.

Setting rate of the photon-loaded cavity into the dressed excited manifold,
impedance-matching reflection, and steady-state dark-count rates, all by linear
solves against the non-Hermitian Hamiltonian of the eliminated subspace
(L_eff = C H_NH^{-1} V+), with the closed-form expressions as cross-checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpec, build_space
from .model import (SystemParams, collapse_set, hamiltonian_finite_A, nonhermitian,
                    residual_drive_element)


class SingularEliminationError(RuntimeError):
    """Raised when the eliminated-subspace H_NH cannot be inverted reliably."""


class UndefinedRateError(ValueError):
    """Raised for a rate that the model leaves undefined at the given
    parameters: Gamma_set at omega = 0, a result taken at kappa1 = Gamma_set
    when Gamma_set = 0, a closed form that divides by kappa2 at kappa2 = 0
    or by a power of A that underflows to 0, or a rate that is not finite."""


def _require_kappa2(params: SystemParams, form: str) -> None:
    """UndefinedRateError when ``form``, which divides by kappa2, is taken at kappa2 = 0."""
    if params.kappa2 == 0:
        raise UndefinedRateError(f"{form} divides by kappa2, and kappa2 = 0")


@dataclass
class RateResult:
    value: float
    convergence_delta: float = math.nan   # value minus the value at truncation - 1

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise UndefinedRateError(f"rate must be finite, got {self.value}")
        if self.value < 0:
            raise ValueError(f"rate must be >= 0, got {self.value}")


def effective_jump(
    c: np.ndarray,
    h_nh: np.ndarray,
    v_plus: np.ndarray,
) -> np.ndarray:
    """L_eff = C H_NH^{-1} V+ via a linear solve (no explicit inverse), of
    shape (n_out, n_ground).

    All operators act on the eliminated subspace: h_nh is (nE, nE), v_plus maps
    ground columns into it, c maps it onto the jump targets.  The solve residual
    must stay below 1e-10 relative; a singular h_nh raises instead of
    propagating NaNs.
    """
    v_plus = np.atleast_2d(v_plus)
    if v_plus.shape[0] != h_nh.shape[0]:
        raise ValueError("v_plus must map into the eliminated subspace")
    cond = np.linalg.cond(h_nh)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularEliminationError(f"H_NH is numerically singular (cond={cond:.3g})")
    try:
        x = np.linalg.solve(h_nh, v_plus)
    except np.linalg.LinAlgError as exc:
        raise SingularEliminationError(str(exc)) from exc
    resid = np.linalg.norm(h_nh @ x - v_plus)
    scale = np.linalg.norm(v_plus)
    if scale > 0 and resid / scale > 1e-10:
        raise SingularEliminationError(
            f"elimination solve residual {resid / scale:.3g} exceeds 1e-10 (cond={cond:.3g})"
        )
    return c @ x


# ---------------------------------------------------------------------------
# setting rate
# ---------------------------------------------------------------------------

def _excited_block_nh(params: SystemParams, n2_trunc: int):
    """Non-Hermitian excited-subspace Hamiltonian over {|e,0,n2>, |f,0,n2>}.

    Basis order (e,0), (f,0), (e,1), (f,1), ... up to n2_trunc.  In the
    resonant model the diagonal is -i n2 kappa2 / 2, the drive couples e<->f
    within each n2 with element omega/2, and the cavity coupling g2 sqrt(n2)
    links (f, n2-1) <-> (e, n2).
    """
    n_states = 2 * (n2_trunc + 1)
    h = np.zeros((n_states, n_states), dtype=complex)

    def idx(level: str, n2: int) -> int:
        return 2 * n2 + (0 if level == "e" else 1)

    for n2 in range(n2_trunc + 1):
        h[idx("e", n2), idx("e", n2)] = -0.5j * n2 * params.kappa2
        h[idx("f", n2), idx("f", n2)] = -0.5j * n2 * params.kappa2
        h[idx("e", n2), idx("f", n2)] = 0.5 * params.omega
        h[idx("f", n2), idx("e", n2)] = 0.5 * params.omega
        if n2 >= 1:
            g = params.g2 * math.sqrt(n2)
            h[idx("f", n2 - 1), idx("e", n2)] = g
            h[idx("e", n2), idx("f", n2 - 1)] = g
    # jump operator sqrt(kappa2) a2 restricted to the subspace
    c = np.zeros((n_states, n_states), dtype=complex)
    for n2 in range(1, n2_trunc + 1):
        c[idx("e", n2 - 1), idx("e", n2)] = math.sqrt(n2 * params.kappa2)
        c[idx("f", n2 - 1), idx("f", n2)] = math.sqrt(n2 * params.kappa2)
    return h, c, idx


def setting_rate(params: SystemParams, n2_trunc: int = 10) -> RateResult:
    """Numeric-inversion setting rate from |g,1,0> at the given cavity-2 truncation.

    Gamma_set = <g,1,0| L_eff^dag L_eff |g,1,0> with V+ = g1 |e,0,0><g,1,0|.
    The result carries the convergence delta against truncation n2_trunc - 1.
    UndefinedRateError at omega = 0, where the Raman channel closes.
    """
    if n2_trunc < 1:
        raise ValueError("n2_trunc must be >= 1")
    if params.omega <= 0:
        raise UndefinedRateError("Gamma_set is undefined at omega = 0: the Raman channel closes")
    if params.g1 > 0.2 * min(params.g2, params.omega):
        warnings.warn(
            "g1 is not perturbative relative to (g2, omega); "
            "the effective setting rate may be inaccurate",
            stacklevel=2,
        )

    def rate_at(n2t: int) -> float:
        h, c, idx = _excited_block_nh(params, n2t)
        v = np.zeros((h.shape[0], 1), dtype=complex)
        v[idx("e", 0), 0] = params.g1
        col = effective_jump(c, h, v)[:, 0]
        return float(np.real(np.vdot(col, col)))

    value = rate_at(n2_trunc)
    delta = value - rate_at(n2_trunc - 1) if n2_trunc >= 2 else math.nan
    return RateResult(value=value, convergence_delta=delta)


def setting_rate_analytic(params: SystemParams, order: int) -> RateResult:
    """Closed-form setting rate at truncation order 1, 2 or 3.

    Orders 1 and 2 are the exact eliminations at n2_trunc = 1 and 2.  Order 3
    is the printed form: the exact n2_trunc = 3 elimination,
    Gamma_3 = (16 g1^2 g2^2 / kappa2) [1/omega^2 - (36 kappa2^4
    + 13 kappa2^2 omega^2 + 72 g2^2 kappa2^2 + omega^4) / f], minus
    (16 g1^2 g2^2 / kappa2) 96 g2^4 kappa2^2 omega^4 / f^2, with f the
    denominator below.  The truncation-3 space itself differs from the
    converged rate by 8.0% at kappa2/g2 = 0.6, by under 5% from
    kappa2/g2 ~ 0.7 and by under 0.13% for kappa2/g2 >= 1.5 (omega = 2 g2).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    if params.omega <= 0:
        raise ValueError("closed forms diverge at omega = 0: the Raman channel closes")
    g1, g2, k2, om = params.g1, params.g2, params.kappa2, params.omega
    if order == 1:
        value = 16 * g1**2 * g2**2 * k2 / (k2**2 * om**2 + om**4)
    elif order == 2:
        num = 16 * g1**2 * g2**2 * k2 * (16 * g2**2 + 4 * k2**2 + om**2)
        den = 4 * k2**2 * om**2 * (4 * g2**2 + k2**2) + 5 * k2**2 * om**4 + om**6
        value = num / den
    else:
        _require_kappa2(params, "the order-3 closed form of Gamma_set")
        f = (
            36 * k2**2 * (8 * g2**4 + 6 * g2**2 * k2**2 + k2**4)
            + k2**2 * om**2 * (88 * g2**2 + 49 * k2**2)
            + 14 * k2**2 * om**4
            + om**6
        )
        value = (16 * g1**2 * g2**2 / k2) * (
            1.0 / om**2
            - 96 * g2**4 * k2**2 * om**4 / f**2
            - (72 * g2**2 * k2**2 + 36 * k2**4 + 13 * k2**2 * om**2 + om**4) / f
        )
    return RateResult(value=value)


def reflection_analytic(gamma_set: float, kappa1: float) -> float:
    """|r1|^2 = ((Gamma_set - kappa1) / (Gamma_set + kappa1))^2."""
    if gamma_set < 0 or kappa1 < 0:
        raise ValueError("rates must be >= 0")
    if gamma_set == 0 and kappa1 == 0:
        raise ValueError("reflection undefined for gamma_set = kappa1 = 0")
    return ((gamma_set - kappa1) / (gamma_set + kappa1)) ** 2


# ---------------------------------------------------------------------------
# dark counts
# ---------------------------------------------------------------------------

DARK_STATE_LABELS = [
    ("g", 0, 0), ("e", 0, 0), ("g", 0, 1), ("e", 0, 1),
    ("f", 0, 0), ("f", 0, 1), ("g", 1, 0),
]


@dataclass
class DarkSteadyRates:
    single: RateResult
    enhanced: RateResult
    single_asymptotic: RateResult        # g2^2 om^2 / (4 A^2 kappa2)
    single_asymptotic_main: RateResult   # kappa2 g2^2 om^2 / (4 (A^2 kappa2^2 + g2^4))
    enhanced_asymptotic: RateResult      # g2^2 om^4 / (32 A^4 kappa2)


def _a_power(params: SystemParams, n: int, form: str) -> float:
    """A^n for ``form``, which divides by it; UndefinedRateError where it
    underflows to 0 (A below about 1e-81 for n = 4)."""
    a_n = params.anharmonicity**n
    if a_n == 0:
        raise UndefinedRateError(f"{form} divides by A^{n}, which underflows to 0 "
                                 f"at A = {params.anharmonicity:g}")
    return a_n


def dark_asymptotic_single(params: SystemParams) -> float:
    form = "the asymptotic single dark-count rate"
    _require_kappa2(params, form)
    return params.g2**2 * params.omega**2 / (4 * _a_power(params, 2, form) * params.kappa2)


def dark_asymptotic_single_main(params: SystemParams) -> float:
    a = params.anharmonicity
    return (params.kappa2 * params.g2**2 * params.omega**2
            / (4 * (a**2 * params.kappa2**2 + params.g2**4)))


def dark_asymptotic_enhanced(params: SystemParams) -> float:
    form = "the asymptotic enhanced dark-count rate"
    _require_kappa2(params, form)
    return params.g2**2 * params.omega**4 / (32 * _a_power(params, 4, form) * params.kappa2)


def dark_rates_steady(params: SystemParams) -> DarkSteadyRates:
    """Steady-state single and enhanced dark-count rates by 7-state inversion.

    The eliminated subspace is the fixed 7-state list minus |g,0,0>;
    V_dark+ = (omega / 2 sqrt(2)) |e,0,0><g,0,0|.
    """
    a = params.anharmonicity
    if not math.isfinite(a) or a <= 0:
        raise ValueError("dark rates require finite anharmonicity > 0")

    space = build_space(HilbertSpec(1, 1))
    h = hamiltonian_finite_A(params, space)
    cols = collapse_set(params.replace(kappa1=0.0), None, space, split=True)
    h_nh_full = nonhermitian(h, cols)

    elim = [lab for lab in DARK_STATE_LABELS if lab != ("g", 0, 0)]
    elim_idx = np.array([space.index(*lab) for lab in elim])

    h_e = h_nh_full[np.ix_(elim_idx, elim_idx)]
    w_r = residual_drive_element(params)
    v = np.zeros((len(elim), 1), dtype=complex)
    v[elim.index(("e", 0, 0)), 0] = w_r

    c_g_e = cols["kappa2_G"][:, elim_idx]   # full-space rows, eliminated columns
    c_e_e = cols["kappa2_E"][:, elim_idx]

    jump_g = effective_jump(c_g_e, h_e, v)    # onto |g,0,0>
    jump_e = effective_jump(c_e_e, h_e, v)    # onto |e,0,0> and |f,0,0>

    i_g00 = space.index("g", 0, 0)
    i_e00 = space.index("e", 0, 0)
    i_f00 = space.index("f", 0, 0)
    single = abs(jump_g[i_g00, 0]) ** 2
    enhanced = abs(jump_e[i_e00, 0]) ** 2 + abs(jump_e[i_f00, 0]) ** 2

    return DarkSteadyRates(
        single=RateResult(single),
        enhanced=RateResult(enhanced),
        single_asymptotic=RateResult(dark_asymptotic_single(params)),
        single_asymptotic_main=RateResult(dark_asymptotic_single_main(params)),
        enhanced_asymptotic=RateResult(dark_asymptotic_enhanced(params)),
    )


@dataclass
class DynamicalDarkResult:
    dynamical: RateResult          # admixture estimate, equals the steady asymptotic form
    total_analytic: float          # steady (numeric) + dynamical
    eta_empirical: float           # quoted trajectory-fit enhancement factor


def dynamical_dark_correction(params: SystemParams) -> DynamicalDarkResult:
    """Dressed-ground-admixture estimate of the induced enhanced dark counts.

    The post-single-dark-count oscillations add a dynamical contribution equal
    to the steady asymptotic enhanced rate; the total analytic estimate is
    their sum (about a factor 2 over the steady form), while full trajectory
    simulations are fit by eta * steady with eta ~ 4.
    """
    a = params.anharmonicity
    if not math.isfinite(a) or a <= 0:
        raise ValueError("dynamical correction requires finite anharmonicity > 0")
    dyn = dark_asymptotic_enhanced(params)
    steady = dark_rates_steady(params).enhanced.value
    return DynamicalDarkResult(
        dynamical=RateResult(dyn),
        total_analytic=steady + dyn,
        eta_empirical=4.0,
    )
