import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spt.dynamics
from spt.dynamics import liouvillian
from spt.effective import setting_rate
from spt.hilbert import QUTRIT_LEVELS, HilbertSpec, build_space, is_hermitian
from spt.model import (DecoherenceParams, SystemParams, collapse_set, hamiltonian_finite_A,
                       hamiltonian_ideal)


def test_dimensions():
    assert HilbertSpec(1, 1).dim == 12
    assert HilbertSpec(2, 16).dim == 153


@pytest.mark.parametrize("n1, n2", [(1.5, 2), (1, 2.0), ("1", 2), (None, 2)])
def test_non_integer_truncation_is_value_error(n1, n2):
    # HilbertSpec(1.5, 2) once reported dim 22.5 and built 27 x 27 operators
    with pytest.raises(ValueError, match="integers"):
        HilbertSpec(n1, n2)


def test_numpy_integer_truncation_is_accepted():
    spec = HilbertSpec(np.int64(1), np.int32(2))
    assert spec.dim == 18
    assert build_space(spec).basis_state("f", 1, 2)[-1] == 1.0


def test_ordering_convention():
    space = build_space(HilbertSpec(1, 1))
    assert space.index("g", 0, 0) == 0
    assert space.labels(0) == ("g", 0, 0)
    # qutrit-major, then n1, then n2
    assert space.index("g", 0, 1) == 1
    assert space.index("g", 1, 0) == 2
    assert space.index("e", 0, 0) == 4


@given(n1=st.integers(0, 3), n2=st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_index_roundtrip(n1, n2):
    space = build_space(HilbertSpec(n1, n2))
    for i in range(space.dim):
        assert space.index(*space.labels(i)) == i


def test_annihilation_matrix_elements():
    space = build_space(HilbertSpec(1, 2))
    a2 = space.annihilation("cavity2")
    assert a2[space.index("e", 0, 0), space.index("e", 0, 1)] == pytest.approx(1.0)
    assert a2[space.index("f", 0, 1), space.index("f", 0, 2)] == pytest.approx(np.sqrt(2))
    a1 = space.annihilation("cavity1")
    assert a1[space.index("g", 0, 0), space.index("g", 1, 0)] == pytest.approx(1.0)


def test_number_operator_spectrum():
    space = build_space(HilbertSpec(0, 1))
    n2 = space.number("cavity2")
    vals = np.sort(np.linalg.eigvalsh(n2))
    assert np.allclose(vals[: space.dim // 2], 0)
    assert np.allclose(vals[space.dim // 2:], 1)


def test_commutator_truncation_artifact():
    space = build_space(HilbertSpec(0, 3))
    a2 = space.annihilation("cavity2")
    comm = a2 @ a2.conj().T - a2.conj().T @ a2
    for i in range(space.dim):
        m, n1, n2 = space.labels(i)
        expected = 1.0 if n2 < 3 else -3.0   # deviation confined to the top layer
        assert comm[i, i] == pytest.approx(expected)


def test_qutrit_ops():
    space = build_space(HilbertSpec(1, 1))
    s_plus = space.qutrit_op("e", "g")    # |e><g|
    s_minus = space.qutrit_op("g", "e")
    block = space.qutrit_projector("g", "e")
    assert np.allclose(s_minus @ s_plus + s_plus @ s_minus, block)
    s_ee = space.qutrit_op("e", "e")
    assert np.allclose(s_plus @ s_minus, s_ee)
    s_fe_plus = space.qutrit_op("f", "e")
    assert np.allclose(s_fe_plus @ s_fe_plus, 0)


def test_projector_completeness_and_adjoints():
    space = build_space(HilbertSpec(1, 2))
    total = space.qutrit_projector("g", "e", "f")
    assert np.allclose(total, np.eye(space.dim))
    for sub in ("cavity1", "cavity2"):
        a = space.annihilation(sub)
        n = space.number(sub)
        assert is_hermitian(n)
        diag = np.diag(n).real
        assert np.allclose(diag, np.round(diag))
        assert diag.min() >= 0


# -- the label-loop builders the Kronecker products replaced: bitwise oracles ----

def _loop_annihilation(space, subsystem):
    a = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.dim):
        m, n1, n2 = space.labels(i)
        if subsystem == "cavity1" and n1 > 0:
            a[space.index(m, n1 - 1, n2), i] = np.sqrt(n1)
        elif subsystem == "cavity2" and n2 > 0:
            a[space.index(m, n1, n2 - 1), i] = np.sqrt(n2)
    return a


def _loop_qutrit_op(space, to_level, from_level):
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(space.dim):
        m, n1, n2 = space.labels(i)
        if m == (from_level if isinstance(from_level, str) else QUTRIT_LEVELS[from_level]):
            op[space.index(to_level, n1, n2), i] = 1.0
    return op


def _loop_top_layer_projectors(space):
    top1 = np.zeros(space.dim)
    top2 = np.zeros(space.dim)
    for i in range(space.dim):
        _, n1, n2 = space.labels(i)
        if n1 == space.spec.n1_max and space.spec.n1_max > 0:
            top1[i] = 1.0
        if n2 == space.spec.n2_max and space.spec.n2_max > 0:
            top2[i] = 1.0
    return top1, top2


_TRUNCATIONS = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (0, 5), (1, 10), (2, 8), (2, 16), (4, 16)]


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n1, n2", _TRUNCATIONS)
def test_kronecker_operators_equal_label_loops(n1, n2):
    from spt.dynamics import _top_layer_projectors

    space = build_space(HilbertSpec(n1, n2))
    for sub in ("cavity1", "cavity2"):
        assert _bitwise_equal(space.annihilation(sub), _loop_annihilation(space, sub))
    for to_level in (*QUTRIT_LEVELS, 0, 1, 2):
        for from_level in (*QUTRIT_LEVELS, 0, 1, 2):
            assert _bitwise_equal(space.qutrit_op(to_level, from_level),
                                  _loop_qutrit_op(space, to_level, from_level))
    for levels in (("g",), ("e", "f"), ("g", "e", "f"), (0, 2), ("e", "e")):
        oracle = sum(_loop_qutrit_op(space, lv, lv) for lv in levels)
        assert _bitwise_equal(space.qutrit_projector(*levels), oracle)
    for fast, oracle in zip(_top_layer_projectors(space), _loop_top_layer_projectors(space)):
        assert _bitwise_equal(fast, oracle)


@pytest.mark.parametrize("call", [
    lambda s: s.qutrit_op("g", "x"),
    lambda s: s.qutrit_op("g", -1),
    lambda s: s.qutrit_op(3, "g"),
    lambda s: s.qutrit_op("G", "g"),
    lambda s: s.qutrit_op("g", 1.0),
    lambda s: s.qutrit_projector("g", "h"),
    lambda s: s.index("x", 0, 0),
    lambda s: s.index(-1, 0, 0),
    lambda s: s.basis_state("ground"),
], ids=["op-to-name", "op-negative", "op-three", "op-case", "op-float", "projector",
        "index-name", "index-negative", "basis-state"])
def test_bad_qutrit_level_is_value_error(call):
    with pytest.raises(ValueError, match="qutrit level"):
        call(build_space(HilbertSpec(1, 1)))


# -- the excitation number Q = n1 + [qutrit in e or f] -----------------------

def test_excitations_label_by_label():
    space = build_space(HilbertSpec(3, 2))
    q = space.excitations()
    assert [q[i] for i in range(space.dim)] == [
        n1 + (m != "g") for m, n1, _ in map(space.labels, range(space.dim))]


def _q_shifts(op, q) -> set:
    """Q[row] - Q[column] over the nonzeros of ``op``: index pairs, not
    Q C - C Q, whose dense products round at N1 >= 2."""
    rows, cols = np.nonzero(op)
    return set((q[rows] - q[cols]).tolist())


_GAMMA = DecoherenceParams(0.01, 0.005)


@pytest.mark.parametrize("n1", [1, 2, 4])
@pytest.mark.parametrize("dec", [None, _GAMMA], ids=["ideal", "decoherence"])
def test_excitation_number_is_a_weak_symmetry(n1, dec):
    # the ideal H keeps Q, and no jump raises it; finite A breaks it, which is
    # why the dark-count paths stay on the full space
    space = build_space(HilbertSpec(n1, 16))
    q = space.excitations()
    p = SystemParams(g1=0.15, g2=1, omega=2, kappa1=0.1, kappa2=1)
    assert _q_shifts(hamiltonian_ideal(p, space), q) == {0}
    jumps = collapse_set(p, dec, space)
    assert len(jumps) == (2 if dec is None else 6)
    for label, c in jumps.items():
        assert _q_shifts(c, q) == ({-1} if label in ("kappa1", "gamma_eg") else {0}), label
    h_a = hamiltonian_finite_A(p.replace(anharmonicity=40.0), space)
    assert _q_shifts(h_a, q) == {-1, 0, 1}


def _reach_support(lv, space):
    """Oracle: (col, src, sup) of the hierarchy by graph search in L's sparsity
    (``spt.dynamics._support``): x from |g,1,0> in the |g,0,0> column, the
    source on rows g,1,0 (x's states) and g,0,0 (a1 x's states) and their
    transposes, and rho_11 from those places."""
    dim = space.dim
    i_g00, i_g10 = space.index("g", 0, 0), space.index("g", 1, 0)
    a1d = space.annihilation("cavity1").conj().T
    col = np.arange(dim) * dim + i_g00
    on_x = spt.dynamics._support(lv[col][:, col], np.arange(dim) == i_g10)
    src = np.zeros((dim, dim), dtype=bool)
    src[i_g10, on_x] = True
    src[i_g00, np.abs(a1d[on_x]).sum(axis=0) > 0] = True
    src[i_g00, i_g00] = True
    src |= src.T
    return col, src, spt.dynamics._support(lv, src.reshape(-1))


@pytest.mark.parametrize("spec, dec", [(HilbertSpec(1, 10), None), (HilbertSpec(1, 10), _GAMMA),
                                       (HilbertSpec(2, 6), None)],
                         ids=["pulse-point", "decoherence", "n1-2"])
def test_q_blocks_are_the_reach_of_l(spec, dec):
    p0 = SystemParams(g1=0.15, g2=1, omega=2, kappa2=1)   # the benchmark's pulse point
    p = p0.replace(kappa1=setting_rate(p0, 10).value)
    space = build_space(spec)
    lv = liouvillian(hamiltonian_ideal(p, space), collapse_set(p, dec, space))
    for got, want in zip(spt.dynamics._hierarchy_support(space), _reach_support(lv, space)):
        assert np.array_equal(got, want)
