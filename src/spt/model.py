"""Rotating-frame Hamiltonians and collapse operators for the driven qutrit.

Conventions (all rates in units of g2 unless converted):

* The model is the resonant one: each cavity is resonant with its qutrit
  transition and the drive with e<->f, so the rotating frame has no detunings.
  This is the impedance-matched device of the paper, and every route
  (``spt.effective``, ``spt.dynamics``, ``spt.montecarlo``) builds this model.
* The classical drive parameter ``omega`` produces an e<->f matrix element of
  omega/2, i.e. the drive term is (omega/2)(sigma_fe^- + sigma_fe^+).  This is
  the convention under which the dressed-manifold energies are
  +-g2/2 +- sqrt(g2^2 + omega^2)/2 and the closed-form setting/dark rates hold.
* Finite anharmonicity adds the residual couplings with the fixed 1:sqrt(2)
  lower:upper matrix-element ratio, so the residual drive on g<->e has matrix
  element omega/(2*sqrt(2)) and the residual cavity couplings are
  sqrt(2)*g1 (a1^dag sigma_fe^- + h.c.) and (g2/sqrt(2))(a2^dag sigma_eg^- + h.c.).
* Qutrit decoherence is two rates with the ladder scaling of Koch et al.,
  PRA 76, 042319 (2007): radiative gamma (gamma_eg = gamma, gamma_fe = 2 gamma)
  and pure dephasing gamma_phi (gamma_p_ee = gamma_phi, gamma_p_ff = 2 gamma_phi).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, is_hermitian

SQRT2 = math.sqrt(2.0)


def _require_finite_rates(params, names) -> None:
    """ValueError naming the first of ``names`` that is not finite or is < 0."""
    for name in names:
        v = getattr(params, name)
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")


@dataclass
class SystemParams:
    """Couplings, decay rates and anharmonicity of the two-cavity qutrit system."""

    g1: float = 0.05
    g2: float = 1.0
    omega: float = 2.0
    kappa1: float = 0.0
    kappa2: float = 1.0
    anharmonicity: float = math.inf

    def __post_init__(self):
        _require_finite_rates(self, ("g1", "g2", "kappa1", "kappa2", "omega"))
        if math.isnan(self.anharmonicity):
            raise ValueError("anharmonicity must not be nan")
        if self.anharmonicity <= 0:
            raise ValueError("finite anharmonicity must be > 0")

    def replace(self, **kw) -> "SystemParams":
        return dataclasses.replace(self, **kw)


@dataclass
class DecoherenceParams:
    """Qutrit radiative decay and pure dephasing rates (the ladder scaling above)."""

    gamma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        _require_finite_rates(self, ("gamma", "gamma_phi"))


def _couplings(a1, a2, s1, s2, g1: float, g2: float, drive: float) -> np.ndarray:
    """g1 (a1^dag s1 + h.c.) + g2 (a2^dag s2 + h.c.) + drive (s2 + s2^dag): with
    (s1, s2) = (sigma_eg^-, sigma_fe^-) the resonant couplings, swapped the
    residual ones.  No two terms share an entry and none is diagonal, so adding
    them to a diagonal matrix in any order gives the same bits."""
    return (
        g1 * (a1.conj().T @ s1 + s1.conj().T @ a1)
        + g2 * (a2.conj().T @ s2 + s2.conj().T @ a2)
        + drive * (s2 + s2.conj().T)
    )


def hamiltonian_ideal(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Infinite-anharmonicity rotating-frame Hamiltonian of the resonant model.

    H = g1 (a1^dag sigma_eg^- + h.c.) + g2 (a2^dag sigma_fe^- + h.c.)
        + (omega/2)(sigma_fe^- + sigma_fe^+)
    """
    if math.isfinite(params.anharmonicity):
        raise ValueError("finite anharmonicity: use hamiltonian_finite_A")
    h = _couplings(space.annihilation("cavity1"), space.annihilation("cavity2"),
                   space.qutrit_op("g", "e"), space.qutrit_op("e", "f"),
                   params.g1, params.g2, 0.5 * params.omega)
    if not is_hermitian(h):
        raise ValueError("hamiltonian_ideal: H is not Hermitian")
    return h


def hamiltonian_finite_A(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Finite-anharmonicity Hamiltonian in the drive-rotating (dark-count) frame.

    Diagonal: A (sigma_ee + sigma_ff + n1), the resonant model's frame.
    Adds to the resonant couplings the three residual couplings with
    fixed lower:upper matrix-element ratio 1:sqrt(2).
    """
    a_anh = params.anharmonicity
    if not math.isfinite(a_anh) or a_anh <= 0:
        raise ValueError("hamiltonian_finite_A requires finite anharmonicity > 0")
    a1, a2 = space.annihilation("cavity1"), space.annihilation("cavity2")
    s_ge, s_ef = space.qutrit_op("g", "e"), space.qutrit_op("e", "f")
    h = (
        a_anh * space.qutrit_op("e", "e")
        + a_anh * space.qutrit_op("f", "f")
        + a_anh * (a1.conj().T @ a1)
        + _couplings(a1, a2, s_ge, s_ef, params.g1, params.g2, 0.5 * params.omega)
        # residual couplings opened by the finite anharmonicity
        + _couplings(a1, a2, s_ef, s_ge, SQRT2 * params.g1, params.g2 / SQRT2,
                     0.5 * params.omega / SQRT2)
    )
    if not is_hermitian(h):
        raise ValueError("hamiltonian_finite_A: H is not Hermitian")
    return h


def residual_drive_element(params: SystemParams) -> float:
    """Matrix element of the residual g<->e drive, omega/(2 sqrt(2))."""
    return 0.5 * params.omega / SQRT2


def collapse_set(
    params: SystemParams,
    decoherence: DecoherenceParams | None,
    space: HilbertSpace,
    split: bool = False,
) -> dict[str, np.ndarray]:
    """Every jump operator by its label, in the order kappa1, kappa2 (or
    kappa2_G and kappa2_E), gamma_eg, gamma_fe, gamma_p_ee, gamma_p_ff; the
    qutrit ones only at a nonzero rate.

    With split=True the cavity-2 jump is replaced by the pair (C_G, C_E),
    built from the qutrit-g projector P_G and its complement P_E (qutrit in e
    or f); C_G + C_E = sqrt(kappa2) a2 exactly because a2 is
    block-diagonal in the qutrit index.
    """
    jumps = {"kappa1": np.sqrt(params.kappa1) * space.annihilation("cavity1")}
    c2 = np.sqrt(params.kappa2) * space.annihilation("cavity2")
    if split:
        p_g = space.qutrit_projector("g")
        p_e = space.qutrit_projector("e", "f")
        jumps.update(kappa2_G=p_g @ c2 @ p_g, kappa2_E=p_e @ c2 @ p_e)
    else:
        jumps["kappa2"] = c2
    if decoherence is not None:
        gamma, gamma_phi = decoherence.gamma, decoherence.gamma_phi
        if gamma > 0:
            jumps["gamma_eg"] = np.sqrt(gamma) * space.qutrit_op("g", "e")
            jumps["gamma_fe"] = np.sqrt(2 * gamma) * space.qutrit_op("e", "f")
        if gamma_phi > 0:
            jumps["gamma_p_ee"] = np.sqrt(gamma_phi) * space.qutrit_op("e", "e")
            jumps["gamma_p_ff"] = np.sqrt(2 * gamma_phi) * space.qutrit_op("f", "f")
    return jumps


def nonhermitian(h: np.ndarray, collapses: dict) -> np.ndarray:
    """H_NH = H - (i/2) sum_j C_j^dag C_j."""
    h_nh = h.astype(complex).copy()
    for c in collapses.values():
        h_nh -= 0.5j * (c.conj().T @ c)
    return h_nh
