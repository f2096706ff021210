from fractions import Fraction

import pytest

from weakhopf.algebra import direct_sum, field_algebra, make_algebra, matrix_algebra
from weakhopf.linalg import LinMap, unit_vec
from weakhopf.separability import (NotFaithful, NotIdempotentE,
                                   build_E_from_functional, dual_basis,
                                   modular_automorphism, regular_trace,
                                   slice_property_holds, trace_form_radical)


def dual_numbers():
    # 1 and x with x^2 = 0
    return make_algebra(["1", "x"], {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})


def trace_functional(n, weights=None):
    # functional tr(d .) on M_n in the matrix-unit basis
    weights = weights or [1] * n
    return {i * n + i: Fraction(w) for i, w in zip(range(n), weights)}


def test_modular_automorphism_identity_for_commutative():
    b = make_algebra(["p", "q"], {(0, 0, 0): 1, (1, 1, 1): 1})
    phi = {0: Fraction(1), 1: Fraction(3)}
    sigma = modular_automorphism(b, phi)
    assert sigma == LinMap.identity(2)


def test_modular_automorphism_weighted_trace():
    m2 = matrix_algebra(2)
    phi = trace_functional(2, [1, 2])
    sigma = modular_automorphism(m2, phi)
    # sigma(x) = d x d^{-1} with d = diag(1, 2)
    d = {0: Fraction(1), 3: Fraction(2)}
    dinv = {0: Fraction(1), 3: Fraction(1, 2)}
    for i in range(4):
        expected = m2.mul(d, m2.mul(unit_vec(i), dinv))
        assert sigma.apply(unit_vec(i)) == expected


def test_modular_automorphism_plain_trace_is_identity():
    m2 = matrix_algebra(2)
    sigma = modular_automorphism(m2, trace_functional(2))
    assert sigma == LinMap.identity(4)


def test_not_faithful_detected():
    b = make_algebra(["p", "q"], {(0, 0, 0): 1, (1, 1, 1): 1})
    with pytest.raises(NotFaithful):
        modular_automorphism(b, {0: Fraction(1)})


def test_dual_basis_property():
    m2 = matrix_algebra(2)
    phi = {i: Fraction(2) if i in (0, 3) else Fraction(0) for i in (0, 3)}
    duals = dual_basis(m2, phi)
    for i in range(4):
        for j in range(4):
            prod = m2.mul(duals[i], unit_vec(j))
            val = sum((phi.get(k, Fraction(0)) * c for k, c in prod.items()),
                      Fraction(0))
            assert val == (Fraction(1) if i == j else Fraction(0))


def test_m2_double_trace_idempotent():
    m2 = matrix_algebra(2)
    phi = {0: Fraction(2), 3: Fraction(2)}  # 2*tr
    idem = build_E_from_functional(m2, phi)
    # E = (1/2) sum e_ij (x) e_ji inside B (x) B^op
    n = 2
    expected = {}
    for i in range(n):
        for j in range(n):
            left = i * n + j
            right = j * n + i
            expected[left * 4 + right] = Fraction(1, 2)
    assert idem.e == expected
    assert idem.check_invariants() == []
    assert slice_property_holds(idem)


def test_dual_numbers_not_idempotent():
    b = dual_numbers()
    phi = {1: Fraction(1)}  # picks the x-coefficient
    with pytest.raises(NotIdempotentE) as info:
        build_E_from_functional(b, phi)
    # E = 1 (x) x + x (x) 1 and E^2 = 2 x (x) x
    defect = info.value.defect
    e = {0 * 2 + 1: Fraction(1), 1 * 2 + 0: Fraction(1)}
    ee = dict(defect)
    for k, v in e.items():
        ee[k] = ee.get(k, Fraction(0)) + v
    assert {k: v for k, v in ee.items() if v} == {1 * 2 + 1: Fraction(2)}


def test_field_case_trivial():
    f = field_algebra()
    idem = build_E_from_functional(f, {0: Fraction(1)})
    assert idem.e == {0: Fraction(1)}
    assert idem.check_invariants() == []


def test_certify_m2_plus_m3():
    # the regular trace separates a semisimple base
    b = direct_sum(matrix_algebra(2), matrix_algebra(3))
    idem = build_E_from_functional(b, regular_trace(b))
    assert idem.check_invariants() == []


def test_certify_refutes_dual_numbers():
    # the radical witness is the nilpotent direction
    assert trace_form_radical(dual_numbers()).rows[0] == {1: Fraction(1)}


def test_radical_of_semisimple_is_zero():
    assert trace_form_radical(matrix_algebra(2)).dim == 0
    assert trace_form_radical(dual_numbers()).dim == 1


def test_derive_right_handed_data_trace_case():
    m2 = matrix_algebra(2)
    full = build_E_from_functional(m2, {0: Fraction(2), 3: Fraction(2)})
    # tracial case: sigma = id so S_C = S_B^{-1} and sigma_C = id
    assert full.s_c == full.s_b.inverse()
    assert full.sigma_c == LinMap.identity(4)
    assert slice_property_holds(full)


def test_derive_right_handed_weighted_case():
    # the separating normalization of tr(diag(1,2) .) is (3/2) tr(diag(1,2) .)
    m2 = matrix_algebra(2)
    full = build_E_from_functional(
        m2, trace_functional(2, [Fraction(3, 2), Fraction(3)]))
    assert full.sigma_c != LinMap.identity(4)
    assert full.check_invariants() == []
    assert slice_property_holds(full)


def test_weighted_trace_needs_normalization():
    # tr(diag(1,2) .) itself gives E with E^2 = (3/2) E: failure with a
    # defect proportional to E, which a central rescale repairs
    m2 = matrix_algebra(2)
    phi = trace_functional(2, [1, 2])
    with pytest.raises(NotIdempotentE) as info:
        build_E_from_functional(m2, phi)
    defect = info.value.defect
    # E has first-leg weights 1/d_l: reconstruct it and compare
    e = {}
    weights = {0: Fraction(1), 1: Fraction(1, 2)}
    for k in range(2):
        for l in range(2):
            e[(l * 2 + k) * 4 + (k * 2 + l)] = weights[l]
    assert defect == {idx: Fraction(1, 2) * c for idx, c in e.items()}
    # and the correctly normalized functional succeeds
    idem = build_E_from_functional(
        m2, trace_functional(2, [Fraction(3, 2), Fraction(3)]))
    assert idem.check_invariants() == []
