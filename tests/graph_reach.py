"""Oracle: supports found by graph search in a Liouvillian's sparsity.

The library takes the supports of the single-photon hierarchy from the blocks
of the excitation number Q that the ideal Hamiltonian keeps.  These helpers
find them again without Q, by following L's stored entries, so the tests can
hold the two routes equal and pass an independently found support to
``integrated_observable``.
"""

import numpy as np
import scipy.sparse as sparse


def reach(lv, seeds: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the boolean ``seeds`` in the sparsity
    graph of ``lv`` (j -> i where lv[i, j] is stored), in any sparse format."""
    lv = sparse.csr_matrix(lv)
    pattern = sparse.csr_matrix((np.ones(lv.nnz), lv.indices, lv.indptr), shape=lv.shape)
    found = seeds.copy()
    while True:
        grown = found | (pattern @ found.astype(float) > 0)
        if np.array_equal(grown, found):
            return np.flatnonzero(found)
        found = grown


def tail_keep(lv, rho0: np.ndarray, rho_inf: np.ndarray) -> np.ndarray:
    """The vec indices that rho0, rho_inf and entry 0 reach in ``lv``: where
    X with L X = rho_inf - rho0, tr X = 0 lives, a ``keep`` for
    ``integrated_observable``."""
    seeds = ((rho0 != 0) | (rho_inf != 0)).reshape(-1)
    seeds[0] = True
    return reach(lv, seeds)
