"""Exact mean and variance of the emitted-photon count by tilted resolvents.

The total number of counted jumps until the system settles into its dark
steady state has factorial moments expressible through trace-fixed solves
against the Liouvillian: with J rho = C rho C^dag,

    <N>        = tr[J X],        L X = rho_inf - rho_0,  tr X = 0
    <N(N-1)>   = 2 tr[J Y],      L Y = <N> rho_inf - J X,  tr Y = 0

valid because the dark state carries no jump weight (J rho_inf = 0).
This is an oracle independent of both the time integration and the
trajectory sampler.
"""

import numpy as np
import scipy.sparse as sparse

from spt.dynamics import TraceFixedSolver, liouvillian
from spt.effective import setting_rate
from spt.hilbert import HilbertSpec, build_space
from spt.model import SystemParams, collapse_set, hamiltonian_ideal


def exact_count_moments(
    params: SystemParams,
    spec: HilbertSpec,
    label: str = "kappa2",
    impedance_match: bool = True,
):
    p = params
    if impedance_match:
        p = params.replace(kappa1=setting_rate(params, n2_trunc=10).value)
    space = build_space(spec)
    h = hamiltonian_ideal(p, space)
    cols = collapse_set(p, None, space)
    lv = liouvillian(h, cols)
    dim = space.dim
    cs = sparse.csr_matrix(cols[label])
    jump_super = sparse.kron(cs, cs.conj()).tocsr()
    psi0 = space.basis_state("e", 0, 0)
    rho0 = np.outer(psi0, psi0.conj()).reshape(-1)
    solver = TraceFixedSolver(lv, dim)
    rho_inf = solver.steady_state().reshape(-1)
    trace_row = np.zeros(dim * dim)
    trace_row[:: dim + 1] = 1.0

    x = solver.resolvent(rho_inf - rho0)
    jx = jump_super @ x
    mean = float(np.real(trace_row @ jx))
    y = solver.resolvent(mean * rho_inf - jx)
    nn1 = 2.0 * float(np.real(trace_row @ (jump_super @ y)))
    variance = nn1 + mean - mean**2
    return mean, variance
