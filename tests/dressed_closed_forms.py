"""Closed forms of the dressed {|e,0,n2>, |f,0,n2>} manifold (n2 = 0, 1), an oracle for spt.model.

In the resonant model the 4x4 excited block in the bare order
(|e,0,0>, |f,0,0>, |e,0,1>, |f,0,1>) is a chain with couplings omega/2, g2,
omega/2.  Its eigenvalues and the fixed-gauge eigenvector matrix P are known
in closed form, and the cavity-2 jump operator takes a three-coefficient form
in the dressed basis.  The tests hold these to the restriction of
``spt.model``'s Hamiltonian and kappa2 jump to those four states.
"""

import numpy as np

EXCITED_MANIFOLD = [("e", 0, 0), ("f", 0, 0), ("e", 0, 1), ("f", 0, 1)]


def restrict(m, space):
    """``m`` restricted to EXCITED_MANIFOLD, in that order."""
    idx = [space.index(*lab) for lab in EXCITED_MANIFOLD]
    return m[np.ix_(idx, idx)]


def dressed_basis(g2, omega):
    """Energies (ascending), alpha, beta and the 4x4 orthogonal P.

    E_{1..4} = -+ g2/2 -+ R/2 with R = sqrt(g2^2 + omega^2), and
    alpha = (1/2) sqrt(1 + g2/R), beta = (1/2) sqrt(1 - g2/R), so that
    alpha^2 + beta^2 = 1/2.  The columns of P are the dressed states in the
    bare order; their gauge is fixed (not an eigensolver's), since the dressed
    jump-operator coefficients depend on it.
    """
    r = np.hypot(g2, omega)
    energies = np.array([-0.5 * g2 - 0.5 * r, 0.5 * g2 - 0.5 * r,
                         -0.5 * g2 + 0.5 * r, 0.5 * g2 + 0.5 * r])
    alpha = 0.5 * np.sqrt(1.0 + g2 / r)
    # cancellation-free form of (1/2) sqrt(1 - g2/r) for omega << g2
    beta = 0.5 * omega / np.sqrt(r * (r + g2))
    p = np.array([
        [-beta, alpha, -alpha, beta],
        [alpha, -beta, -beta, alpha],
        [-alpha, -beta, beta, alpha],
        [beta, alpha, alpha, beta],
    ])
    return energies, alpha, beta, p


def jump_closed_form(g2, omega, kappa2):
    """P^T C P for the cavity-2 jump C = sqrt(kappa2) a2 on the manifold:

    sqrt(kappa2) [ d (|1><1| - |2><2| - |3><3| + |4><4|)
                 + (1/2)(|1><2| - |2><1| + |4><3| - |3><4|)
                 + c (|1><3| + |3><1| + |2><4| + |4><2|) ]
    with d = omega/(2R) and c = g2/(2R).
    """
    r = np.hypot(g2, omega)
    d = omega / (2.0 * r)
    c = g2 / (2.0 * r)
    return np.sqrt(kappa2) * np.array([
        [d, 0.5, c, 0.0],
        [-0.5, -d, 0.0, c],
        [c, 0.0, -d, -0.5],
        [0.0, c, 0.5, d],
    ])
