"""The dressed-manifold closed forms against spt.model's Hamiltonian and kappa2 jump."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressed_closed_forms import dressed_basis, jump_closed_form, restrict
from spt.hilbert import HilbertSpec, build_space
from spt.model import SystemParams, collapse_set, hamiltonian_ideal

_SPACE = build_space(HilbertSpec(0, 1))


def model_blocks(g2, omega, kappa2=1.0):
    """The model's H and kappa2 jump, restricted to the excited manifold."""
    p = SystemParams(g2=g2, omega=omega, kappa2=kappa2)
    jump = collapse_set(p, None, _SPACE)["kappa2"]
    return restrict(hamiltonian_ideal(p, _SPACE), _SPACE), restrict(jump, _SPACE)


def test_reference_point():
    energies, alpha, beta, _ = dressed_basis(1.0, 2.0)
    assert np.allclose(energies, [-1.618034, -0.618034, 0.618034, 1.618034], atol=1e-6)
    assert alpha == pytest.approx(0.601501, abs=1e-6)
    assert beta == pytest.approx(0.371748, abs=1e-6)


def test_vacuum_rabi_limit():
    energies, alpha, beta, p = dressed_basis(1.0, 0.0)
    assert np.allclose(energies, [-1.0, 0.0, 0.0, 1.0])
    assert alpha == pytest.approx(1 / np.sqrt(2))
    assert beta == pytest.approx(0.0)
    # degenerate case: P stays orthogonal; compare projectors, not vectors
    assert np.allclose(p.T @ p, np.eye(4), atol=1e-12)
    h, _ = model_blocks(1.0, 0.0)
    proj_dressed = sum(np.outer(p[:, j], p[:, j]) for j in (1, 2))
    w, v = np.linalg.eigh(h)
    proj_num = sum(np.outer(v[:, j], v[:, j]) for j in range(4) if abs(w[j]) < 1e-12)
    assert np.allclose(proj_dressed, proj_num, atol=1e-10)


@given(g2=st.floats(0.2, 3.0), omega=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_orthogonality_and_normalization(g2, omega):
    energies, alpha, beta, p = dressed_basis(g2, omega)
    assert abs(alpha**2 + beta**2 - 0.5) < 1e-12
    assert np.max(np.abs(p.T @ p - np.eye(4))) < 1e-12
    assert np.all(np.diff(energies) >= -1e-12)


@given(g2=st.floats(0.2, 3.0), omega=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_diagonalizes_excited_block(g2, omega):
    energies, _, _, p = dressed_basis(g2, omega)
    h, _ = model_blocks(g2, omega)
    assert np.max(np.abs(p.T @ h @ p - np.diag(energies))) < 1e-10
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), energies, atol=1e-10)


def test_jump_reference_coefficients():
    # omega = 0 limit: diagonal coefficient 0, cross coefficient 1/2
    _, _, _, p = dressed_basis(1.0, 0.0)
    c0 = p.T @ model_blocks(1.0, 0.0)[1] @ p
    assert c0[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert c0[0, 2] == pytest.approx(0.5)
    # g2=1, omega=2: omega/(2 sqrt5), g2/(2 sqrt5), 1/2
    _, _, _, p = dressed_basis(1.0, 2.0)
    c = p.T @ model_blocks(1.0, 2.0)[1] @ p
    assert c[0, 0] == pytest.approx(0.447214, abs=1e-6)
    assert c[0, 2] == pytest.approx(0.223607, abs=1e-6)
    assert c[0, 1] == pytest.approx(0.5)


@given(g2=st.floats(0.2, 3.0), omega=st.floats(0.0, 5.0), k2=st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_closed_form_and_frobenius(g2, omega, k2):
    _, _, _, p = dressed_basis(g2, omega)
    c_rot = p.T @ model_blocks(g2, omega, k2)[1] @ p
    assert np.max(np.abs(c_rot - jump_closed_form(g2, omega, k2))) < 1e-12
    # orthogonal conjugation preserves the Frobenius norm: ||C||_F^2 = 2 kappa2
    assert np.sum(c_rot**2) == pytest.approx(2 * k2, rel=1e-12)


def test_basis_change_roundtrip_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g2 = rng.uniform(0.2, 3.0)
        omega = rng.uniform(0.0, 5.0)
        k2 = rng.uniform(0.1, 3.0)
        _, _, _, p = dressed_basis(g2, omega)
        c_bare = p @ jump_closed_form(g2, omega, k2) @ p.T
        assert np.max(np.abs(c_bare - model_blocks(g2, omega, k2)[1])) < 1e-10
