"""Rotating-frame Hamiltonians and collapse operators for the driven qutrit.

Conventions (all rates in units of g2 unless converted):

* The model is the resonant one: each cavity is resonant with its qutrit
  transition and the drive with e<->f, so the rotating frame has no detunings.
  This is the impedance-matched device of the paper, and every rate route
  (``spt.effective``, ``spt.dressed``) builds the same model.
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

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import HilbertSpace, is_hermitian

SQRT2 = math.sqrt(2.0)


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
        for name in ("g1", "g2", "kappa1", "kappa2", "omega"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if math.isfinite(self.anharmonicity) and self.anharmonicity <= 0:
            raise ValueError("finite anharmonicity must be > 0")

    def replace(self, **kw) -> "SystemParams":
        d = self.__dict__.copy()
        d.update(kw)
        return SystemParams(**d)


@dataclass
class DecoherenceParams:
    """Qutrit radiative decay and pure dephasing rates (the ladder scaling above)."""

    gamma: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")


@dataclass
class CollapseSet:
    """Ordered list of labelled jump operators."""

    jumps: list = field(default_factory=list)  # list[(label, ndarray)]

    def labels(self) -> list[str]:
        return [lab for lab, _ in self.jumps]

    def matrices(self) -> list[np.ndarray]:
        return [m for _, m in self.jumps]

    def get(self, label: str) -> np.ndarray:
        for lab, m in self.jumps:
            if lab == label:
                return m
        raise KeyError(label)


def hamiltonian_ideal(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Infinite-anharmonicity rotating-frame Hamiltonian of the resonant model.

    H = g1 (a1^dag sigma_eg^- + h.c.) + g2 (a2^dag sigma_fe^- + h.c.)
        + (omega/2)(sigma_fe^- + sigma_fe^+)
    """
    if math.isfinite(params.anharmonicity):
        raise ValueError("finite anharmonicity: use hamiltonian_finite_A")
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    s_ge = space.qutrit_op("g", "e")   # sigma_eg^-
    s_ef = space.qutrit_op("e", "f")   # sigma_fe^-

    h = (
        params.g1 * (a1.conj().T @ s_ge + s_ge.conj().T @ a1)
        + params.g2 * (a2.conj().T @ s_ef + s_ef.conj().T @ a2)
        + 0.5 * params.omega * (s_ef + s_ef.conj().T)
    )
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
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n1 = a1.conj().T @ a1
    s_ee = space.qutrit_op("e", "e")
    s_ff = space.qutrit_op("f", "f")
    s_ge = space.qutrit_op("g", "e")   # sigma_eg^-
    s_ef = space.qutrit_op("e", "f")   # sigma_fe^-

    h = (
        a_anh * s_ee
        + a_anh * s_ff
        + a_anh * n1
        + params.g1 * (a1.conj().T @ s_ge + s_ge.conj().T @ a1)
        + params.g2 * (a2.conj().T @ s_ef + s_ef.conj().T @ a2)
        + 0.5 * params.omega * (s_ef + s_ef.conj().T)
        # residual couplings opened by the finite anharmonicity
        + SQRT2 * params.g1 * (a1.conj().T @ s_ef + s_ef.conj().T @ a1)
        + (params.g2 / SQRT2) * (a2.conj().T @ s_ge + s_ge.conj().T @ a2)
        + (0.5 * params.omega / SQRT2) * (s_ge + s_ge.conj().T)
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
) -> CollapseSet:
    """All jump operators: cavity decays, qutrit decoherence, optional G/E split.

    With split=True the cavity-2 jump is replaced by the pair (C_G, C_E),
    built from the qutrit-g projector P_G and its complement P_E (qutrit in e
    or f); C_G + C_E = sqrt(kappa2) a2 exactly because a2 is
    block-diagonal in the qutrit index.
    """
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    jumps = [
        ("kappa1", np.sqrt(params.kappa1) * a1),
        ("kappa2", np.sqrt(params.kappa2) * a2),
    ]
    if split:
        p_g = space.qutrit_projector("g")
        p_e = space.qutrit_projector("e", "f")
        c2 = jumps.pop()[1]   # the kappa2 jump, replaced by its G and E parts
        jumps += [("kappa2_G", p_g @ c2 @ p_g), ("kappa2_E", p_e @ c2 @ p_e)]
    if decoherence is not None:
        gamma, gamma_phi = decoherence.gamma, decoherence.gamma_phi
        if gamma > 0:
            jumps.append(("gamma_eg", np.sqrt(gamma) * space.qutrit_op("g", "e")))
            jumps.append(("gamma_fe", np.sqrt(2 * gamma) * space.qutrit_op("e", "f")))
        if gamma_phi > 0:
            jumps.append(("gamma_p_ee", np.sqrt(gamma_phi) * space.qutrit_op("e", "e")))
            jumps.append(("gamma_p_ff", np.sqrt(2 * gamma_phi) * space.qutrit_op("f", "f")))
    return CollapseSet(jumps)


def nonhermitian(h: np.ndarray, collapses: CollapseSet) -> np.ndarray:
    """H_NH = H - (i/2) sum_j C_j^dag C_j."""
    h_nh = h.astype(complex).copy()
    for c in collapses.matrices():
        h_nh -= 0.5j * (c.conj().T @ c)
    return h_nh
