"""Correctness references for the perfbench checks, written apart from spt.

Nothing here imports spt.  Each reference takes a different route from the
function it checks:

* closed forms of the setting rate at cavity-2 truncations 1 and 2, of the
  impedance-matching reflection and of the single dark-count rate;
* the setting rate from the 2(N2+1)-state excited block as
  Gamma = 2 Im <v| H_NH^-1 |v>, the decay rate of the source amplitude, where
  spt sums the squared effective jump amplitudes;
* a Lindblad generator assembled from Kronecker products of the 3x3 qutrit
  and the Fock matrices (column-stacking vectorization, where spt stacks
  rows), with one sparse LU of the trace-fixed generator serving the gain and
  the exact mean and variance of the cavity-2 count.

Units are those of spt: every rate in units of g2, drive element omega/2.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

# Gain of the single-photon-input hierarchy at the pulse-input trajectory
# settings: g1 = 0.25, omega = 2, kappa2 = 1, kappa1 = Gamma_set,
# (N1, N2) = (1, 10), tau kappa1 = 6, centre 4.5 tau, 600 grid points over
# 9 tau, tol 1e-7.  Recompute with: python3 perfbench/recompute_pulse_gain.py
PULSE_INPUT_HIERARCHY_GAIN = 10.410933881181577

PAPER_GAIN_G1_005 = 172.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def setting_rate_closed_form(order: int, g1: float, g2: float, kappa2: float,
                             omega: float) -> float:
    """Setting rate of the exact elimination at cavity-2 truncation 1 or 2."""
    if order == 1:
        return 16 * g1**2 * g2**2 * kappa2 / (kappa2**2 * omega**2 + omega**4)
    if order == 2:
        num = 16 * g1**2 * g2**2 * kappa2 * (16 * g2**2 + 4 * kappa2**2 + omega**2)
        den = (4 * kappa2**2 * omega**2 * (4 * g2**2 + kappa2**2)
               + 5 * kappa2**2 * omega**4 + omega**6)
        return num / den
    raise ValueError(f"closed form known for orders 1 and 2, not {order}")


def reflection_closed_form(gamma_set: float, kappa1: float) -> float:
    """|r1|^2 of the Lambda system: ((Gamma_set - kappa1) / (Gamma_set + kappa1))^2."""
    return ((gamma_set - kappa1) / (gamma_set + kappa1)) ** 2


def single_dark_rate(g2: float, omega: float, kappa2: float, anharmonicity: float) -> float:
    """kappa2 g2^2 omega^2 / (4 (A^2 kappa2^2 + g2^4))."""
    return (kappa2 * g2**2 * omega**2
            / (4 * (anharmonicity**2 * kappa2**2 + g2**4)))


# ---------------------------------------------------------------------------
# setting rate by elimination
# ---------------------------------------------------------------------------

def setting_rate_elimination(g1: float, g2: float, kappa2: float, omega: float,
                             n2_max: int) -> float:
    """Decay rate of |g,1,0> into the driven {|e,0,n2>, |f,0,n2>} block.

    The block is ordered (e,0), (f,0), (e,1), (f,1), ...; its non-Hermitian
    Hamiltonian has -i n2 kappa2 / 2 on the diagonal, omega/2 between e and f
    of one n2, and g2 sqrt(n2) between (f, n2-1) and (e, n2).  The source
    couples |g,1,0> to (e,0) with g1, so Gamma = 2 g1^2 Im [H_NH^-1]_(e0,e0).
    """
    n = 2 * (n2_max + 1)
    h = np.zeros((n, n), dtype=complex)
    for k in range(n2_max + 1):
        e, f = 2 * k, 2 * k + 1
        h[e, e] = h[f, f] = -0.5j * k * kappa2
        h[e, f] = h[f, e] = 0.5 * omega
        if k:
            h[2 * k - 1, e] = h[e, 2 * k - 1] = g2 * np.sqrt(k)
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return 2.0 * g1**2 * float(np.linalg.solve(h, v)[0].imag)


# ---------------------------------------------------------------------------
# Lindblad generator from Kronecker products
# ---------------------------------------------------------------------------

def _qutrit(i: int, j: int) -> sparse.csr_matrix:
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return sparse.csr_matrix(m)


def _fock_a(n_max: int) -> sparse.csr_matrix:
    return sparse.diags(np.sqrt(np.arange(1, n_max + 1)), 1,
                        shape=(n_max + 1, n_max + 1), format="csr")


class Transistor:
    """Ideal-anharmonicity transistor at kappa1 = Gamma_set, started in |e,0,0>.

    Qutrit levels g, e, f are 0, 1, 2; the operators act on
    qutrit (x) cavity 1 (x) cavity 2.
    """

    def __init__(self, g1: float, g2: float, omega: float, kappa2: float,
                 n1_max: int, n2_max: int, gamma_set_n2: int = 10):
        self.kappa2 = kappa2
        self.kappa1 = setting_rate_elimination(g1, g2, kappa2, omega, gamma_set_n2)
        i1 = sparse.identity(n1_max + 1, format="csr")
        i2 = sparse.identity(n2_max + 1, format="csr")
        iq = sparse.identity(3, format="csr")

        def full(q, c1, c2):
            return sparse.kron(sparse.kron(q, c1), c2, format="csr")

        a1 = full(iq, _fock_a(n1_max), i2)
        a2 = full(iq, i1, _fock_a(n2_max))
        s_ge = full(_qutrit(0, 1), i1, i2)     # |g><e|
        s_ef = full(_qutrit(1, 2), i1, i2)     # |e><f|
        h = (g1 * (a1.T @ s_ge + s_ge.T @ a1)
             + g2 * (a2.T @ s_ef + s_ef.T @ a2)
             + 0.5 * omega * (s_ef + s_ef.T))
        self.dim = h.shape[0]
        self.c1 = np.sqrt(self.kappa1) * a1
        self.c2 = np.sqrt(kappa2) * a2
        self.n2 = (a2.T @ a2).tocsr()
        self.lv = self._generator(h.astype(complex), [self.c1, self.c2])

        per_q = (n1_max + 1) * (n2_max + 1)
        self.rho0 = self._projector(1 * per_q)          # |e,0,0>
        self.rho_inf = self._projector(0)               # |g,0,0>, dark
        self.trace_row = np.zeros(self.dim**2)
        self.trace_row[:: self.dim + 1] = 1.0
        resid = np.linalg.norm(self.lv @ self.rho_inf)
        if resid > 1e-12:
            raise ArithmeticError(f"|g,0,0> is not stationary: residual {resid:.3g}")
        fixed = self.lv.tolil(copy=True)
        fixed[0, :] = self.trace_row
        self._lu = spla.splu(fixed.tocsc())

    def _generator(self, h, collapses) -> sparse.csc_matrix:
        """L vec(rho) = vec(-i[H, rho] + sum C rho C^dag - {C^dag C, rho}/2)."""
        eye = sparse.identity(self.dim, format="csr")
        lv = -1j * (sparse.kron(eye, h) - sparse.kron(h.T, eye))
        for c in collapses:
            cdc = (c.T.conj() @ c).tocsr()
            lv = (lv + sparse.kron(c.conj(), c)
                  - 0.5 * (sparse.kron(eye, cdc) + sparse.kron(cdc.T, eye)))
        return lv.tocsc()

    def _projector(self, index: int) -> np.ndarray:
        rho = np.zeros(self.dim**2, dtype=complex)
        rho[index * (self.dim + 1)] = 1.0
        return rho

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """X with L X = b and tr X = 0 (b must be traceless)."""
        rhs = b.astype(complex)
        rhs[0] = 0.0
        x = self._lu.solve(rhs)
        resid = np.linalg.norm(self.lv @ x - b) / max(np.linalg.norm(b), 1.0)
        if resid > 1e-9:
            raise ArithmeticError(f"trace-fixed solve residual {resid:.3g}")
        return x

    def _expect(self, op: sparse.spmatrix, x: np.ndarray) -> complex:
        rho = x.reshape(self.dim, self.dim, order="F")
        return complex((op @ rho).trace())

    def factorial_moments(self, order: int) -> list[float]:
        """<N(N-1)...(N-k+1)> / k! for k = 1..order, N the cavity-2 output count.

        X_1 solves L X_1 = rho_inf - rho0 and X_k solves
        L X_k = c_(k-1) rho_inf - J X_(k-1), with J rho = C2 rho C2^dag and
        c_k = tr[J X_k]; J rho_inf = 0 because |g,0,0> is dark.
        """
        jump = sparse.kron(self.c2.conj(), self.c2, format="csr")
        c, prev, src = [], 1.0, self.rho0
        for _ in range(order):
            x = self._solve(prev * self.rho_inf - src)
            src = jump @ x
            prev = float((self.trace_row @ src).real)
            c.append(prev)
        return c

    def count_moments(self) -> tuple[float, float, float]:
        """(gain, mean, variance) of the cavity-2 output count from |e,0,0>.

        gain = kappa2 int <n2> dt = kappa2 tr[n2 X] with L X = rho_inf - rho0.
        """
        x = self._solve(self.rho_inf - self.rho0)
        gain = self.kappa2 * self._expect(self.n2, x).real
        c1, c2 = self.factorial_moments(2)
        return gain, c1, 2.0 * c2 + c1 - c1**2

    def count_central_moment_4(self) -> float:
        """<(N - <N>)^4> of the cavity-2 output count from |e,0,0>."""
        c = self.factorial_moments(4)
        f1, f2, f3, f4 = c[0], 2.0 * c[1], 6.0 * c[2], 24.0 * c[3]
        raw = (f1, f2 + f1, f3 + 3.0 * f2 + f1, f4 + 6.0 * f3 + 7.0 * f2 + f1)
        m = raw[0]
        return raw[3] - 4.0 * m * raw[2] + 6.0 * m**2 * raw[1] - 3.0 * m**4
