"""Analytic dressed states of the driven {|e,0,n2>, |f,0,n2>} manifold (n2 = 0, 1).

In the resonant model of ``spt.model`` (no detunings) the 4x4 excited block
in the bare order (|e,0,0>, |f,0,0>, |e,0,1>, |f,0,1>) is a chain with
couplings omega/2, g2, omega/2.  Its eigenvalues and the fixed-gauge
eigenvector matrix P are known in closed form; the cavity-2 jump operator
takes a three-coefficient form in the dressed basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DressedBasis:
    energies: np.ndarray   # (E1, E2, E3, E4), ascending
    alpha: float
    beta: float
    p_matrix: np.ndarray   # 4x4 orthogonal, columns are dressed states in bare order


def excited_block(g2: float, omega: float) -> np.ndarray:
    """Bare 4x4 excited-manifold Hamiltonian of the resonant model."""
    w = 0.5 * omega
    return np.array(
        [
            [0.0, w, 0.0, 0.0],
            [w, 0.0, g2, 0.0],
            [0.0, g2, 0.0, w],
            [0.0, 0.0, w, 0.0],
        ]
    )


def dressed_basis(g2: float, omega: float) -> DressedBasis:
    """Closed-form energies, mixing constants and eigenvector matrix P.

    E_{1..4} = -+ g2/2 -+ sqrt(g2^2 + omega^2)/2 (ascending), and
    alpha = (1/2) sqrt(1 + g2/R), beta = (1/2) sqrt(1 - g2/R), R = sqrt(g2^2+omega^2),
    with alpha^2 + beta^2 = 1/2.  The column gauge of P is fixed (not an
    eigensolver's), since the dressed jump-operator coefficients depend on it.
    """
    if g2 <= 0:
        raise ValueError("g2 must be > 0")
    if omega < 0:
        raise ValueError("omega must be >= 0")
    r = np.hypot(g2, omega)
    energies = np.array(
        [
            -0.5 * g2 - 0.5 * r,
            +0.5 * g2 - 0.5 * r,
            -0.5 * g2 + 0.5 * r,
            +0.5 * g2 + 0.5 * r,
        ]
    )
    alpha = 0.5 * np.sqrt(1.0 + g2 / r)
    # cancellation-free form of (1/2) sqrt(1 - g2/r) for omega << g2
    beta = 0.5 * omega / np.sqrt(r * (r + g2))
    p = np.array(
        [
            [-beta, alpha, -alpha, beta],
            [alpha, -beta, -beta, alpha],
            [-alpha, -beta, beta, alpha],
            [beta, alpha, alpha, beta],
        ]
    )
    return DressedBasis(energies=energies, alpha=alpha, beta=beta, p_matrix=p)


def bare_jump_block(kappa2: float) -> np.ndarray:
    """sqrt(kappa2) a2 restricted to the 4-state manifold (bare order)."""
    c = np.zeros((4, 4))
    c[0, 2] = 1.0   # |e,0,0><e,0,1|
    c[1, 3] = 1.0   # |f,0,0><f,0,1|
    return np.sqrt(kappa2) * c


def jump_in_dressed_basis(g2: float, omega: float, kappa2: float) -> np.ndarray:
    """Cavity-2 jump operator rotated to the dressed basis, P^T C P.

    Equals sqrt(kappa2) [ d (|1><1| - |2><2| - |3><3| + |4><4|)
                        + (1/2)(|1><2| - |2><1| + |4><3| - |3><4|)
                        + c (|1><3| + |3><1| + |2><4| + |4><2|) ]
    with d = omega/(2R) and c = g2/(2R).
    """
    basis = dressed_basis(g2, omega)
    return basis.p_matrix.T @ bare_jump_block(kappa2) @ basis.p_matrix


def jump_dressed_closed_form(g2: float, omega: float, kappa2: float) -> np.ndarray:
    """The three-coefficient closed form of the dressed jump operator."""
    r = np.hypot(g2, omega)
    d = omega / (2.0 * r)
    c = g2 / (2.0 * r)
    m = np.array(
        [
            [d, 0.5, c, 0.0],
            [-0.5, -d, 0.0, c],
            [c, 0.0, -d, -0.5],
            [0.0, c, 0.5, d],
        ]
    )
    return np.sqrt(kappa2) * m
