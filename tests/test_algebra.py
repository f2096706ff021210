from fractions import Fraction

import pytest

from weakhopf.algebra import (DegenerateProduct, Multiplier,
                              NonAssociative, NotIdempotent, TensorSquare,
                              direct_sum, field_algebra, make_algebra,
                              matrix_algebra, multiplier_algebra,
                              opposite_algebra, tensor_algebra)
from weakhopf.linalg import LinMap, unit_vec


def test_field_is_valid():
    f = field_algebra()
    assert f.dim == 1
    assert f.unit() == {0: Fraction(1)}


def test_matrix_units_m2():
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    # e11 + e22 is the unit
    assert m2.unit() == {0: Fraction(1), 3: Fraction(1)}
    # e12 * e21 = e11
    assert m2.mul(unit_vec(1), unit_vec(2)) == unit_vec(0)
    assert m2.mul(unit_vec(1), unit_vec(1)) == {}


def test_zero_product_algebra_is_degenerate():
    with pytest.raises(DegenerateProduct):
        make_algebra(["a", "b"], {})


def test_nonassociative_detected():
    # e0 acts as unit, but e1*e1 = e0 with a twist breaking associativity:
    struct = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
              (1, 1, 1): 1}
    # (e1 e1) e1 = e0 e1 + e1 e1 = e1 + e0 + e1;  e1 (e1 e1) likewise -- tweak
    struct[(0, 1, 1)] = 2  # e0*e1 = 2 e1 while e1*e0 = e1
    with pytest.raises(NonAssociative):
        make_algebra(["u", "x"], struct)


def test_not_idempotent_detected():
    # 2-dim algebra where products only reach the first coordinate but
    # both one-sided actions are faithful: x*y = 0 except e0 e0 = e0,
    # e0 e1 = e1 e0 = e1 ... that is idempotent; instead use span gap:
    struct = {(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1}
    with pytest.raises((NotIdempotent, DegenerateProduct)):
        make_algebra(["a", "b"], struct)


def test_tensor_of_fields_is_field_like():
    f = field_algebra()
    m2 = matrix_algebra(2)
    t = tensor_algebra(f, m2)
    assert t.dim == 4
    # isomorphic copy of M_2: same structure constants under index map
    assert t.mul(unit_vec(1), unit_vec(2)) == unit_vec(0)


def test_tensor_dimension_product():
    m2 = matrix_algebra(2)
    t = tensor_algebra(m2, m2)
    assert t.dim == 16
    t.validate()  # inherited validity agrees with a full check


def test_opposite_is_involution_and_transpose_intertwines():
    m2 = matrix_algebra(2)
    op = opposite_algebra(m2)
    opop = opposite_algebra(op)
    assert all(opop.mul_basis(i, j) == m2.mul_basis(i, j)
               for i in range(4) for j in range(4))
    # transpose map e_ij -> e_ji is an isomorphism M_2 -> M_2^op
    n = 2
    transpose = LinMap.from_entries(4, 4, {(j * n + i, i * n + j): 1
                                           for i in range(n) for j in range(n)})
    for a in range(4):
        for b in range(4):
            lhs = transpose.apply(m2.mul_basis(a, b))
            rhs = op.mul(transpose.apply(unit_vec(a)), transpose.apply(unit_vec(b)))
            assert lhs == rhs


def test_commutative_opposite_unchanged():
    f = field_algebra()
    assert opposite_algebra(f).mul_basis(0, 0) == f.mul_basis(0, 0)


def test_multiplier_compatibility_and_product():
    m2 = matrix_algebra(2)
    x = {0: Fraction(2), 3: Fraction(1)}  # diag(2, 1)
    m = Multiplier.from_element(m2, x)
    ok, _ = m.is_compatible()
    assert ok
    assert (m * m).reify() == m2.mul(x, x)
    assert m.reify() == x


def test_multiplier_algebra_of_unital_is_isomorphic():
    for alg in (field_algebra(), matrix_algebra(2)):
        m, embed = multiplier_algebra(alg)
        assert m.dim == alg.dim
        assert embed.rank() == alg.dim


def test_multiplier_algebra_m2_plus_m3():
    a = direct_sum(matrix_algebra(2), matrix_algebra(3))
    a.validate()
    assert a.dim == 13
    m, embed = multiplier_algebra(a)
    assert m.dim == 13
    assert embed.rank() == 13
    m.validate()


def test_unit_of_direct_sum():
    a = direct_sum(matrix_algebra(2), matrix_algebra(3))
    e = a.unit()
    assert e is not None
    for i in range(a.dim):
        assert a.mul(e, unit_vec(i)) == unit_vec(i)
        assert a.mul(unit_vec(i), e) == unit_vec(i)


def test_tensor_square_leg_operations():
    m2 = matrix_algebra(2)
    t2 = TensorSquare(m2)
    # labels: 0=e11 1=e12 2=e21 3=e22
    x = t2.tensor(unit_vec(1), unit_vec(2))  # e12 (x) e21
    assert t2.flip(t2.flip(x)) == x
    # (e11 (x) 1) * (e12 (x) e21) = e12 (x) e21 since e11 e12 = e12
    assert t2.mul_left_leg1(unit_vec(0), x) == x
    # second leg right product: e21 * e11 = e21
    assert t2.mul_right_leg2(x, unit_vec(0)) == x
    # second leg right product by e22 kills e21
    assert t2.mul_right_leg2(x, unit_vec(3)) == {}


def test_tensor_square_mul_is_componentwise():
    m2 = matrix_algebra(2)
    t2 = TensorSquare(m2)
    a = t2.tensor(unit_vec(1), unit_vec(1))
    b = t2.tensor(unit_vec(2), unit_vec(2))
    assert t2.mul(a, b) == t2.tensor(unit_vec(0), unit_vec(0))
    assert t2.mul(b, a) == t2.tensor(unit_vec(3), unit_vec(3))


def test_tensor_product_of_different_algebras():
    # B = Q + Q (orthogonal idempotents e0, e1), C = M_2 (0=e11 1=e12 2=e21 3=e22);
    # (alpha, beta) sits at alpha * dim C + beta
    bc = TensorSquare(direct_sum(field_algebra(), field_algebra()), matrix_algebra(2))
    assert (bc.dim, bc.size) == (4, 8)
    assert bc.tensor(unit_vec(1), unit_vec(1)) == {5: 1}
    x = {1 * 4 + 1: Fraction(1), 0 * 4 + 3: Fraction(2)}  # e1 (x) e12 + 2 e0 (x) e22
    assert bc.mul(x, x) == {3: 4}
    assert bc.mul_left_leg1(unit_vec(1), x) == {5: 1}
    assert bc.mul_right_leg1(x, unit_vec(0)) == {3: 2}
    # e21 e12 = e22 and e21 e22 = 0
    assert bc.mul_left_leg2(unit_vec(2), x) == {1 * 4 + 3: 1}
    # e12 e21 = e11 and e22 e21 = e21
    assert bc.mul_right_leg2(x, unit_vec(2)) == {1 * 4 + 0: 1, 0 * 4 + 2: 2}
    assert bc.functional_leg1({1: Fraction(3)}, x) == {1: 3}
    trace = {0: Fraction(1), 3: Fraction(1)}
    assert bc.functional_leg2(trace, x) == {0: 2}


def test_tensor_of_function_algebras_counts_arrow_pairs():
    from weakhopf.groupoids import function_algebra, pair_groupoid
    g = pair_groupoid(2)
    k = function_algebra(g)
    t = tensor_algebra(k, k)
    assert t.dim == 16  # one basis vector per arrow pair
    t.validate()
    # still a pointwise algebra: products are diagonal
    assert t.mul(unit_vec(3), unit_vec(3)) == unit_vec(3)
    assert t.mul(unit_vec(3), unit_vec(5)) == {}


def test_multiplier_algebra_of_function_algebra():
    from weakhopf.groupoids import function_algebra, pair_groupoid
    k = function_algebra(pair_groupoid(2))
    m, embed = multiplier_algebra(k)
    assert m.dim == 4
    assert embed.rank() == 4
