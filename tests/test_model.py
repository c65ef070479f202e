import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_hamiltonians
from spt.hilbert import HilbertSpec, build_space, is_hermitian
from spt.model import (CollapseSet, DecoherenceParams, SystemParams, collapse_set,
                       hamiltonian_finite_A, hamiltonian_ideal, nonhermitian)

EXCITED_BLOCK = [("e", 0, 0), ("f", 0, 0), ("e", 0, 1), ("f", 0, 1)]


@pytest.fixture
def space11():
    return build_space(HilbertSpec(1, 1))


def test_zero_hamiltonian(space11):
    p = SystemParams(g1=0, g2=0, omega=0, kappa1=0, kappa2=0)
    assert np.allclose(hamiltonian_ideal(p, space11), 0)


def test_excited_block_eigenvalues(space11):
    # golden-ratio spectrum of the driven 4-state chain at sqrt(g2^2+omega^2)=sqrt(5)
    p = SystemParams(g1=0.05, g2=1, omega=2, kappa2=1)
    h = hamiltonian_ideal(p, space11)
    idx = [space11.index(*lab) for lab in EXCITED_BLOCK]
    eigs = np.sort(np.linalg.eigvalsh(h[np.ix_(idx, idx)]))
    assert np.allclose(eigs, [-1.618034, -0.618034, 0.618034, 1.618034], atol=1e-6)


def test_g1_coupling_element(space11):
    p = SystemParams(g1=0.05, g2=1, omega=2)
    h = hamiltonian_ideal(p, space11)
    assert h[space11.index("g", 1, 0), space11.index("e", 0, 0)] == pytest.approx(0.05)


def test_ideal_rejects_finite_anharmonicity(space11):
    p = SystemParams(anharmonicity=50.0)
    with pytest.raises(ValueError):
        hamiltonian_ideal(p, space11)


def test_non_hermitian_hamiltonian_raises(space11, monkeypatch):
    import spt.model

    monkeypatch.setattr(spt.model, "is_hermitian", lambda *_args, **_kw: False)
    with pytest.raises(ValueError, match="not Hermitian"):
        hamiltonian_ideal(SystemParams(), space11)
    with pytest.raises(ValueError, match="not Hermitian"):
        hamiltonian_finite_A(SystemParams(anharmonicity=40.0), space11)


def test_finite_A_rejects_nonpositive():
    with pytest.raises(ValueError):
        SystemParams(anharmonicity=-1.0)
    p = SystemParams()
    space = build_space(HilbertSpec(1, 1))
    with pytest.raises(ValueError):
        hamiltonian_finite_A(p, space)   # infinite A


def test_finite_A_residual_elements(space11):
    # residual lower-transition drive element omega/(2 sqrt(2)); this is the
    # V_dark excitation element and the convention behind the dark-rate forms
    p = SystemParams(g1=0.1, g2=1, omega=2, anharmonicity=50)
    h = hamiltonian_finite_A(p, space11)
    i_g00 = space11.index("g", 0, 0)
    i_e00 = space11.index("e", 0, 0)
    assert h[i_e00, i_g00] == pytest.approx(2 / (2 * math.sqrt(2)))
    # residual cavity couplings: sqrt(2) g1 on the upper, g2/sqrt(2) on the lower
    assert h[space11.index("e", 1, 0), space11.index("f", 0, 0)] == pytest.approx(
        math.sqrt(2) * 0.1)
    assert h[space11.index("g", 0, 1), i_e00] == pytest.approx(1 / math.sqrt(2))
    assert h[i_g00, i_g00] == pytest.approx(0.0)


def test_finite_A_large_A_limit():
    # eigenvalues in the single-excitation block converge to the ideal ones
    space = build_space(HilbertSpec(1, 1))
    p_inf = SystemParams(g1=0.05, g2=1, omega=2)
    h_ideal = hamiltonian_ideal(p_inf, space)
    # N_A = sigma_ee + sigma_ff + n1 commutes with the ideal H; its unit block
    n_a = (space.qutrit_projector("e", "f") + space.number("cavity1"))
    idx = [i for i in range(space.dim) if abs(n_a[i, i] - 1) < 1e-9]
    ideal_block = np.sort(np.linalg.eigvalsh(h_ideal[np.ix_(idx, idx)]))

    big_a = 1e9
    h_a = hamiltonian_finite_A(p_inf.replace(anharmonicity=big_a), space)
    eigs = np.linalg.eigvalsh(h_a)
    near_a = np.sort(eigs[np.abs(eigs - big_a) < big_a / 2] - big_a)
    assert near_a.shape == ideal_block.shape
    assert np.max(np.abs(near_a - ideal_block)) < 1e-6


def test_finite_A_reduces_to_ideal_with_residuals_zeroed(space11):
    # subtracting the A-diagonal and the three residual couplings must
    # reproduce the ideal Hamiltonian
    p = SystemParams(g1=0.07, g2=1, omega=1.3, anharmonicity=37.0)
    h_a = hamiltonian_finite_A(p, space11)
    assert is_hermitian(h_a)
    a1 = space11.annihilation("cavity1")
    a2 = space11.annihilation("cavity2")
    s_ge = space11.qutrit_op("g", "e")
    s_ef = space11.qutrit_op("e", "f")
    r = math.sqrt(2)
    residuals = (
        r * p.g1 * (a1.conj().T @ s_ef + s_ef.conj().T @ a1)
        + (p.g2 / r) * (a2.conj().T @ s_ge + s_ge.conj().T @ a2)
        + (0.5 * p.omega / r) * (s_ge + s_ge.conj().T)
    )
    n_a = space11.qutrit_projector("e", "f") + space11.number("cavity1")
    h_ideal = hamiltonian_ideal(p.replace(anharmonicity=math.inf), space11)
    assert np.allclose(h_a - p.anharmonicity * n_a - residuals, h_ideal, atol=1e-12)


@given(
    g1=st.floats(0, 0.3), omega=st.floats(0, 4),
    k1=st.floats(0, 2), k2=st.floats(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_hamiltonian_hermitian_for_all_draws(g1, omega, k1, k2):
    space = build_space(HilbertSpec(1, 2))
    p = SystemParams(g1=g1, g2=1, omega=omega, kappa1=k1, kappa2=k2)
    assert is_hermitian(hamiltonian_ideal(p, space))


_ORACLE_SPACES = [build_space(HilbertSpec(*s)) for s in ((1, 10), (2, 8), (2, 16), (1, 2))]


def _bits(h):
    return np.ascontiguousarray(h).view(np.uint64)


@given(
    g1=st.floats(0, 0.3), omega=st.floats(0, 4), k2=st.floats(0, 4),
    anh=st.floats(0.5, 1e3),
)
@settings(max_examples=30, deadline=None)
def test_hamiltonians_equal_the_detuned_formulas_at_zero_detuning_bit_for_bit(g1, omega, k2, anh):
    # tests/frozen_hamiltonians.py keeps the seven detuning terms the model
    # dropped; at zero detuning every bit, signs of zeros included, is the same
    p = SystemParams(g1=g1, g2=1, omega=omega, kappa2=k2)
    p_a = p.replace(anharmonicity=anh)
    for space in _ORACLE_SPACES:
        assert np.array_equal(_bits(hamiltonian_ideal(p, space)),
                              _bits(frozen_hamiltonians.hamiltonian_ideal(p, space)))
        assert np.array_equal(_bits(hamiltonian_finite_A(p_a, space)),
                              _bits(frozen_hamiltonians.hamiltonian_finite_A(p_a, space)))


def test_collapse_split_reassembles(space11):
    p = SystemParams(g1=0.05, g2=1, omega=2, kappa1=0.3, kappa2=1.7)
    cols = collapse_set(p, None, space11, split=True)
    c_sum = cols.get("kappa2_G") + cols.get("kappa2_E")
    assert np.allclose(c_sum, np.sqrt(p.kappa2) * space11.annihilation("cavity2"))
    # orthogonal channel supports
    cg, ce = cols.get("kappa2_G"), cols.get("kappa2_E")
    assert np.allclose(cg.conj().T @ ce, 0)
    assert np.allclose(ce.conj().T @ cg, 0)


def test_split_covers_multiphoton_ground_rows():
    space = build_space(HilbertSpec(2, 2))
    p = SystemParams(kappa2=1.0)
    cols = collapse_set(p, None, space, split=True)
    cg = cols.get("kappa2_G")
    # |g,n1>0,n2> rows belong to the ground split
    assert cg[space.index("g", 2, 1), space.index("g", 2, 2)] == pytest.approx(np.sqrt(2))


def test_decoherence_jump_convention(space11):
    # the ladder scaling: gamma_fe = 2 gamma and gamma_p_ff = 2 gamma_phi, bit for bit
    gamma, gamma_phi = 0.37, 0.11
    cols = collapse_set(SystemParams(), DecoherenceParams(gamma, gamma_phi), space11)
    expected = {"gamma_eg": np.sqrt(gamma) * space11.qutrit_op("g", "e"),
                "gamma_fe": np.sqrt(2 * gamma) * space11.qutrit_op("e", "f"),
                "gamma_p_ee": np.sqrt(gamma_phi) * space11.qutrit_op("e", "e"),
                "gamma_p_ff": np.sqrt(2 * gamma_phi) * space11.qutrit_op("f", "f")}
    assert cols.labels() == ["kappa1", "kappa2", *expected]
    for label, op in expected.items():
        assert cols.get(label).tobytes() == op.tobytes(), label
    only_gamma = collapse_set(SystemParams(), DecoherenceParams(gamma=gamma), space11)
    assert only_gamma.labels() == ["kappa1", "kappa2", "gamma_eg", "gamma_fe"]
    with pytest.raises(ValueError, match="gamma_phi must be >= 0"):
        DecoherenceParams(gamma_phi=-0.1)


def test_zero_rates_empty_dynamics(space11):
    cols = collapse_set(SystemParams(kappa1=0, kappa2=0), DecoherenceParams(), space11)
    assert cols.labels() == ["kappa1", "kappa2"]
    assert all(np.allclose(m, 0) for m in cols.matrices())


def test_jump_psd(space11):
    p = SystemParams(kappa1=0.2, kappa2=1.1)
    cols = collapse_set(p, DecoherenceParams(0.1, 0.05), space11)
    for _, c in cols.jumps:
        cdc = c.conj().T @ c
        assert is_hermitian(cdc, tol=1e-10)
        assert np.linalg.eigvalsh(cdc).min() > -1e-12


def test_nonhermitian_structure(space11):
    p = SystemParams(g1=0.05, g2=1, omega=2, kappa1=0, kappa2=0.9)
    h = hamiltonian_ideal(p, space11)
    cols = collapse_set(p, None, space11)
    h_nh = nonhermitian(h, cols)
    assert np.allclose(nonhermitian(h, CollapseSet([])), h)
    anti = 1j * (h_nh - h_nh.conj().T)
    assert np.linalg.eigvalsh(anti).min() > -1e-12
    for i in range(space11.dim):
        m, n1, n2 = space11.labels(i)
        assert h_nh[i, i].imag == pytest.approx(-0.5 * p.kappa2 * n2)


def test_nonhermitian_dressed_diagonal(space11):
    # dressed-basis rotation of the 4-state excited block: Im diag = -kappa2/4
    from spt.dressed import dressed_basis

    p = SystemParams(g1=0.0, g2=1, omega=2, kappa1=0, kappa2=0.08)
    h = hamiltonian_ideal(p, space11)
    cols = collapse_set(p, None, space11)
    h_nh = nonhermitian(h, cols)
    idx = [space11.index(*lab) for lab in EXCITED_BLOCK]
    block = h_nh[np.ix_(idx, idx)]
    db = dressed_basis(1.0, 2.0)
    rotated = db.p_matrix.T @ block @ db.p_matrix
    assert np.allclose(np.diag(rotated).imag, -p.kappa2 / 4, atol=1e-12)
    assert np.allclose(np.diag(rotated).real, db.energies, atol=1e-12)


def test_norm_decay_rate_matches_jump_rates(space11):
    # d|psi|^2/dt = -sum <psi|C^dag C|psi>, by finite difference on exp(-iHt)
    from scipy.linalg import expm

    p = SystemParams(g1=0.1, g2=1, omega=1.5, kappa1=0.2, kappa2=0.8)
    h = hamiltonian_ideal(p, space11)
    cols = collapse_set(p, DecoherenceParams(0.03, 0.01), space11)
    h_nh = nonhermitian(h, cols)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=space11.dim) + 1j * rng.normal(size=space11.dim)
    psi /= np.linalg.norm(psi)
    expected = -sum(np.linalg.norm(c @ psi) ** 2 for c in cols.matrices())
    for dt in (1e-5, 5e-6):
        u = expm(-1j * h_nh * dt)
        phi = u @ psi
        deriv = (np.vdot(phi, phi).real - 1.0) / dt
        assert deriv == pytest.approx(expected, rel=1e-3)
