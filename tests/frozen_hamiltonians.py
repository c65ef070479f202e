"""The two Hamiltonians with their seven detuning terms, frozen as a bitwise oracle.

``spt.model`` builds the resonant model only.  These are the detuned formulas
it replaced, term for term and in the same order of summation; at zero
detunings (the defaults) they must give the library's matrices bit for bit,
signs of zeros included.
"""

import math

SQRT2 = math.sqrt(2.0)


def hamiltonian_ideal(params, space, delta_e=0.0, delta_f=0.0, delta_cav1=0.0, delta_cav2=0.0):
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    s_ee = space.qutrit_op("e", "e")
    s_ff = space.qutrit_op("f", "f")
    s_ge = space.qutrit_op("g", "e")
    s_ef = space.qutrit_op("e", "f")
    return (
        delta_e * s_ee
        + (delta_e + delta_f) * s_ff
        + delta_cav1 * (a1.conj().T @ a1)
        + delta_cav2 * (a2.conj().T @ a2)
        + params.g1 * (a1.conj().T @ s_ge + s_ge.conj().T @ a1)
        + params.g2 * (a2.conj().T @ s_ef + s_ef.conj().T @ a2)
        + 0.5 * params.omega * (s_ef + s_ef.conj().T)
    )


def hamiltonian_finite_A(params, space, Delta=0.0, delta1=0.0, delta2=0.0):
    a_anh = params.anharmonicity
    a1 = space.annihilation("cavity1")
    a2 = space.annihilation("cavity2")
    n1 = a1.conj().T @ a1
    n2 = a2.conj().T @ a2
    s_ee = space.qutrit_op("e", "e")
    s_ff = space.qutrit_op("f", "f")
    s_ge = space.qutrit_op("g", "e")
    s_ef = space.qutrit_op("e", "f")
    return (
        (Delta + a_anh) * s_ee
        + (2 * Delta + a_anh) * s_ff
        + (Delta + a_anh + delta1) * n1
        + (Delta + delta2) * n2
        + params.g1 * (a1.conj().T @ s_ge + s_ge.conj().T @ a1)
        + params.g2 * (a2.conj().T @ s_ef + s_ef.conj().T @ a2)
        + 0.5 * params.omega * (s_ef + s_ef.conj().T)
        + SQRT2 * params.g1 * (a1.conj().T @ s_ef + s_ef.conj().T @ a1)
        + (params.g2 / SQRT2) * (a2.conj().T @ s_ge + s_ge.conj().T @ a2)
        + (0.5 * params.omega / SQRT2) * (s_ge + s_ge.conj().T)
    )
