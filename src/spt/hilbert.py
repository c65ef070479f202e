"""Truncated qutrit (x) cavity-1 (x) cavity-2 Hilbert space and elementary operators.

The basis is ordered qutrit-major: index(m, n1, n2) = m*(N1+1)*(N2+1) + n1*(N2+1) + n2
with m in {g=0, e=1, f=2}.  The ordering is fixed so CSV dumps and regression
fixtures are bit-stable across runs.

Operators are plain complex numpy arrays.  Dimensions stay small (a few hundred
at the largest truncations used here), so dense storage is the default; callers
that need sparsity convert with ``scipy.sparse.csr_matrix`` at the point of use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QUTRIT_LEVELS = ("g", "e", "f")
_LEVEL_INDEX = {name: i for i, name in enumerate(QUTRIT_LEVELS)}


@dataclass(frozen=True)
class HilbertSpec:
    """Fock truncations for the two cavities: n1 in 0..n1_max, n2 in 0..n2_max."""

    n1_max: int
    n2_max: int

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) for n in (self.n1_max, self.n2_max)):
            raise ValueError(f"truncations must be integers, got {self}")
        if self.n1_max < 0 or self.n2_max < 0:
            raise ValueError(f"truncations must be >= 0, got {self}")

    @property
    def dim(self) -> int:
        return 3 * (self.n1_max + 1) * (self.n2_max + 1)


def _level(m) -> int:
    """Index of a qutrit level given as 'g'/'e'/'f' or 0/1/2; ValueError otherwise."""
    if isinstance(m, str) and m in _LEVEL_INDEX:
        return _LEVEL_INDEX[m]
    if isinstance(m, (int, np.integer)) and 0 <= m < 3:
        return int(m)
    raise ValueError(f"qutrit level must be one of {QUTRIT_LEVELS} or 0, 1, 2; got {m!r}")


@dataclass(frozen=True)
class HilbertSpace:
    """Concrete basis with index maps; operators are Kronecker products of the
    qutrit, cavity-1 and cavity-2 factors, built on each call."""

    spec: HilbertSpec
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.spec.dim)

    # -- basis bookkeeping -------------------------------------------------

    def index(self, m, n1: int, n2: int) -> int:
        """Flat basis index of |m, n1, n2>; m is 'g'/'e'/'f' or 0/1/2."""
        mi = _level(m)
        if not (0 <= n1 <= self.spec.n1_max and 0 <= n2 <= self.spec.n2_max):
            raise ValueError(f"Fock label out of range: ({m},{n1},{n2})")
        return (mi * (self.spec.n1_max + 1) + n1) * (self.spec.n2_max + 1) + n2

    def labels(self, i: int) -> tuple[str, int, int]:
        """Inverse of :meth:`index`."""
        if not 0 <= i < self.dim:
            raise ValueError(f"index out of range: {i}")
        per_m = (self.spec.n1_max + 1) * (self.spec.n2_max + 1)
        mi, rest = divmod(i, per_m)
        n1, n2 = divmod(rest, self.spec.n2_max + 1)
        return QUTRIT_LEVELS[mi], n1, n2

    def label_names(self) -> list[str]:
        return ["|%s,%d,%d>" % self.labels(i) for i in range(self.dim)]

    def excitations(self) -> np.ndarray:
        """Q = n1 + [qutrit in e or f] of each basis index.  The ideal H keeps
        Q and no jump raises it, so a single input photon reaches only Q <= 1."""
        m, n1 = np.divmod(np.arange(self.dim) // (self.spec.n2_max + 1), self.spec.n1_max + 1)
        return n1 + (m > 0)

    def basis_state(self, m, n1: int = 0, n2: int = 0) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.index(m, n1, n2)] = 1.0
        return psi

    # -- elementary operators ----------------------------------------------

    def _kron(self, qutrit: np.ndarray, cavity1=None, cavity2=None) -> np.ndarray:
        """qutrit (x) cavity1 (x) cavity2; an omitted cavity factor is the identity."""
        cavity1 = np.eye(self.spec.n1_max + 1) if cavity1 is None else cavity1
        cavity2 = np.eye(self.spec.n2_max + 1) if cavity2 is None else cavity2
        return np.kron(qutrit, np.kron(cavity1, cavity2)).astype(complex)

    def annihilation(self, subsystem: str) -> np.ndarray:
        """Bare annihilation operator for 'cavity1' or 'cavity2'.

        Matrix elements <m,n1,n2-1| a2 |m,n1,n2> = sqrt(n2) (same pattern on
        n1 for cavity 1); the qutrit index is untouched.
        """
        n_max = {"cavity1": self.spec.n1_max, "cavity2": self.spec.n2_max}.get(subsystem)
        if n_max is None:
            raise ValueError(f"unknown subsystem {subsystem!r}")
        lowering = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
        return self._kron(np.eye(3), **{subsystem: lowering})

    def number(self, subsystem: str) -> np.ndarray:
        a = self.annihilation(subsystem)
        return a.conj().T @ a

    def qutrit_op(self, to_level, from_level) -> np.ndarray:
        """|to><from| on the qutrit, tensored with identity on both cavities."""
        unit = np.zeros((3, 3))
        unit[_level(to_level), _level(from_level)] = 1.0
        return self._kron(unit)

    def qutrit_projector(self, *levels) -> np.ndarray:
        """Projector onto the given qutrit levels (all n1, n2)."""
        diag = np.zeros(3)
        np.add.at(diag, [_level(lv) for lv in levels], 1.0)
        return self._kron(np.diag(diag))


def build_space(spec: HilbertSpec) -> HilbertSpace:
    """Construct the truncated product space with deterministic basis ordering."""
    return HilbertSpace(spec)


def is_hermitian(m: np.ndarray) -> bool:
    return np.max(np.abs(m - m.conj().T)) < 1e-12
