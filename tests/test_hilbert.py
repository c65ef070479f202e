import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spt.hilbert import QUTRIT_LEVELS, HilbertSpec, build_space, is_hermitian


def test_dimensions():
    assert HilbertSpec(1, 1).dim == 12
    assert HilbertSpec(2, 16).dim == 153


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
