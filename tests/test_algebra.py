import gc
import random
import weakref
from fractions import Fraction

import pytest

import weakhopf.algebra
from weakhopf.algebra import (DegenerateProduct, FiniteAlgebra, NonAssociative,
                              NotIdempotent, TensorSquare, direct_sum,
                              field_algebra, make_algebra, matrix_algebra, opposite_algebra,
                              tensor_algebra)
from weakhopf.algebroid import forward_construct
from weakhopf.balanced import relation_space
from weakhopf.base_algebras import SubalgebraView, run_base_suite
from weakhopf.examples import scalar_extension_wmha, swap_crossed_setup
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.linalg import LinMap, Subspace, apply_legs, on_leg, unit_vec, vaxpy, vtensor
from weakhopf.reconstruction import reconstruction_pipeline
from weakhopf.separability import build_E_from_functional
from weakhopf.slices import CoproductSlices
from weakhopf.wmha import CanonicalMaps, check_E_identities, run_suite


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


def test_failed_validation_is_not_remembered():
    """A success is remembered on the algebra; a failure raises again."""
    table = [[{0: 1}, {1: 2}], [{1: 1}, {0: 1, 1: 1}]]  # e0 e1 = 2 e1, e1 e0 = e1
    bad = FiniteAlgebra(["u", "x"], table)
    for _ in range(2):
        with pytest.raises(NonAssociative):
            bad.validate()


def test_associativity_flag_is_set_by_validation_and_inherited():
    """A passing associativity scan sets the flag, a failing one does
    not; the constructors that inherit validity pass it on, and only
    when every input carries it."""
    table = [[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]]    # Q[Z2]
    bare = FiniteAlgebra(["u", "x"], table)
    assert not bare.associative
    bad = FiniteAlgebra(["u", "x"], [[{0: 1}, {1: 2}], [{1: 1}, {0: 1, 1: 1}]])
    with pytest.raises(NonAssociative):
        bad.validate()
    assert not bad.associative
    m2 = matrix_algebra(2)
    assert m2.associative and as_wmha(pair_groupoid(2)).algebra.associative
    assert swap_crossed_setup()[0].algebra.associative
    builds = (lambda a: direct_sum(a, m2), lambda a: direct_sum(m2, a),
              lambda a: tensor_algebra(a, m2), lambda a: tensor_algebra(m2, a),
              opposite_algebra, lambda a: SubalgebraView(a, [unit_vec(0)]).algebra)
    assert not any(build(bare).associative for build in builds)
    bare.validate()
    assert bare.associative
    assert all(build(bare).associative for build in builds)


def test_projections_do_not_keep_their_square_alive():
    """A tensor square memoizes its projections, which do not refer back
    to it: once the last outside reference goes, the square and its maps
    are freed without waiting for the cycle collector, while a projection
    held elsewhere can still build its map."""
    m2 = matrix_algebra(2)
    t2 = TensorSquare(m2)
    unit = m2.unit()
    x = t2.tensor(unit, unit)
    proj = t2.projection(x, "EL")
    assert proj.apply(x) == x
    square = weakref.ref(t2)
    gc.disable()
    try:
        del t2
        assert square() is None
        assert proj.map == LinMap.identity(16)
        del proj
    finally:
        gc.enable()


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


def test_multiplier_algebra_m2_plus_m3():
    # M2 + M3 is unital, so M(A) = A: the left regular representation
    # a -> L_a embeds all 13 dimensions faithfully.
    a = direct_sum(matrix_algebra(2), matrix_algebra(3))
    a.validate()
    assert a.dim == 13
    flat = [{j * a.dim + r: c for j, col in enumerate(a.left_mult(unit_vec(i)).cols)
             for r, c in col.items()}
            for i in range(a.dim)]
    assert LinMap(a.dim * a.dim, a.dim, flat).rank() == 13


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


def test_leg_vectors_span_legs_not_support():
    # (e11 + e21) (x) e12 in M_2 has two coordinates but one first-leg vector
    t2 = TensorSquare(matrix_algebra(2))
    x = t2.tensor({0: Fraction(1), 2: Fraction(1)}, unit_vec(1))
    assert len(x) == 2
    first = t2.leg_vectors(x, 1)
    assert first == {1: {0: Fraction(1), 2: Fraction(1)}}
    assert Subspace.from_vectors(4, first.values()).dim == 1
    assert t2.leg_vectors(x, 2) == {0: {1: Fraction(1)}, 2: {1: Fraction(1)}}
    assert Subspace.from_vectors(4, t2.leg_vectors(x, 2).values()).dim == 1


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



def _reference_projector(t2, f, which):
    """Column by column through the leg products: the F sandwich for
    F_1, F_2, the wrapped product for F_3, F_4."""
    cols = []
    for a in range(t2.dim):
        for b in range(t2.dim):
            ea, eb = unit_vec(a), unit_vec(b)
            if which in (1, 2):
                cols.append(t2.sandwich(ea, f, eb))
            else:
                cols.append(t2.mul_left_leg2(eb, t2.mul_right_leg1(f, ea)))
    return LinMap(t2.size, t2.size, cols)


def _kernel_bundles():
    weighted = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
    return [as_wmha(pair_groupoid(3)), swap_crossed_setup()[0],
            scalar_extension_wmha(weighted)]


@pytest.mark.parametrize("bundle", _kernel_bundles(),
                         ids=["pair-3", "crossed-swap", "base-m2-weighted"])
def test_structure_constant_maps_match_leg_products(bundle):
    """The projectors and E-multiplication maps read off the structure
    constants equal their column-by-column leg-product construction, for
    every F_i and for a seeded random non-idempotent element.  A fresh
    tensor square builds every map here instead of recalling one."""
    t2 = TensorSquare(bundle.algebra)
    rng = random.Random(7)
    x = {}
    for _ in range(8):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            x[rng.randrange(t2.size)] = c
    assert t2.mul(x, x) != x
    for elt in [bundle.maps.kernel_idempotent(i) for i in (1, 2, 3, 4)] + [bundle.E, x]:
        for which in (1, 2, 3, 4):
            assert t2.projection(elt, which).map == _reference_projector(t2, elt, which)
        assert t2.projection(elt, "EL").map == LinMap(
            t2.size, t2.size, [t2.mul(elt, unit_vec(j)) for j in range(t2.size)])
        assert t2.projection(elt, "ER").map == LinMap(
            t2.size, t2.size, [t2.mul(unit_vec(j), elt) for j in range(t2.size)])


def _reference_on_leg(t2, x, leg, image):
    """The leg kernel written with one-entry unit vectors per term."""
    d = t2.dim
    out = {}
    for p, c in x.items():
        p1, p2 = divmod(p, d)
        if leg == 1:
            for k, e in image(p1).items():
                vaxpy(out, c * e, {k * d + p2: Fraction(1)})
        else:
            for k, e in image(p2).items():
                vaxpy(out, c * e, {p1 * d + k: Fraction(1)})
    return out


def _reference_cover(t2, z, leg, left, i):
    alg, d = t2.algebra, t2.dim
    stride = d ** (3 - leg)
    out = {}
    for p, c in z.items():
        x = p // stride % d
        rest = p - x * stride
        prod = alg.mul_basis(i, x) if left else alg.mul_basis(x, i)
        for k, e in prod.items():
            vaxpy(out, c * e, {rest + k * stride: Fraction(1)})
    return out


def _reference_functional(t2, phi, x, leg):
    d = t2.dim
    out = {}
    for p, c in x.items():
        p1, p2 = divmod(p, d)
        w = phi.get(p1 if leg == 1 else p2)
        if w:
            vaxpy(out, c * w, {(p2 if leg == 1 else p1): Fraction(1)})
    return out


def _same(got, ref):
    """Equal as vectors and in the order their entries were written."""
    return list(got.items()) == list(ref.items())


def _random_vec(rng, size, terms):
    x = {}
    for _ in range(terms):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            x[rng.randrange(size)] = c
    return x


@pytest.mark.parametrize("bundle", _kernel_bundles()[1:], ids=["crossed-swap", "base-m2-weighted"])
def test_leg_kernels_match_unit_vector_formulas(bundle):
    """Every leg kernel writes the entries the unit-vector formulas write,
    in the same order, on noncommutative algebras with entries other
    than 0 and 1."""
    t2, alg, d = bundle.t2, bundle.algebra, bundle.dim
    rng = random.Random(11)
    elements = [bundle.E, *bundle.delta, _random_vec(rng, t2.size, 10)]
    t3, unit, probes = TensorSquare(tensor_algebra(alg, alg), alg), alg.unit(), (0, 1, d - 1)
    ws = [_random_vec(rng, d, 3), unit_vec(1)]
    for x in elements:
        for w in ws:
            assert _same(t2.mul_left_leg1(w, x),
                         _reference_on_leg(t2, x, 1, lambda k: alg.mul(w, unit_vec(k))))
            assert _same(t2.mul_right_leg1(x, w),
                         _reference_on_leg(t2, x, 1, lambda k: alg.mul(unit_vec(k), w)))
            assert _same(t2.mul_left_leg2(w, x),
                         _reference_on_leg(t2, x, 2, lambda k: alg.mul(w, unit_vec(k))))
            assert _same(t2.mul_right_leg2(x, w),
                         _reference_on_leg(t2, x, 2, lambda k: alg.mul(unit_vec(k), w)))
        m = bundle.antipode
        assert _same(t2.map_leg1(m, x), _reference_on_leg(t2, x, 1, lambda k: m.apply(unit_vec(k))))
        assert _same(t2.map_leg2(m, x), _reference_on_leg(t2, x, 2, lambda k: m.apply(unit_vec(k))))
        for phi in (bundle.counit, ws[0]):
            assert _same(t2.functional_leg1(phi, x), _reference_functional(t2, phi, x, 1))
            assert _same(t2.functional_leg2(phi, x), _reference_functional(t2, phi, x, 2))
        f = bundle.delta.__getitem__
        ref1, ref2 = {}, {}
        for p, c in x.items():
            u, v = divmod(p, d)
            vaxpy(ref1, c, vtensor(f(u), unit_vec(v), d))
            vaxpy(ref2, c, vtensor(unit_vec(u), f(v), d * d))
        z1, z2 = t2.expand_leg1(x, f), t2.expand_leg2(x, f)
        assert _same(z1, ref1) and _same(z2, ref2)
        for z in (z1, z2):
            for leg in (1, 2, 3):
                for left in (True, False):
                    for i in range(d):
                        assert _same(t2.cover(z, leg, left, i),
                                     _reference_cover(t2, z, leg, left, i))
                    # against the componentwise product in A (x) A (x) A
                    for i in probes:
                        legs = [unit] * 3
                        legs[leg - 1] = unit_vec(i)
                        m = vtensor(vtensor(legs[0], legs[1], d), legs[2], d)
                        dense = t3.mul(m, z) if left else t3.mul(z, m)
                        assert t2.cover(z, leg, left, i) == dense


def _kronecker(left, right):
    """The dense Kronecker matrix: index (i, j) -> i * right.ncols + j on
    the columns and i * right.nrows + j on the rows."""
    return LinMap(left.nrows * right.nrows, left.ncols * right.ncols,
                  [vtensor(c1, c2, right.nrows) for c1 in left.cols for c2 in right.cols])


def _random_map(rng, nrows, ncols):
    return LinMap(nrows, ncols, [_random_vec(rng, nrows, 3) for _ in range(ncols)])


@pytest.mark.parametrize("first, second", [(4, 5), (5, 4)])
def test_leg_kernels_on_unequal_legs(first, second):
    """On M_2 (x) (Q + M_2) and (Q + M_2) (x) M_2, where the two legs
    have different dimensions, the leg products, leg maps, functionals
    and expansions write the entries the unit-vector formulas write."""
    m2, q_m2 = matrix_algebra(2), direct_sum(field_algebra(), matrix_algebra(2))
    a, b = (m2, q_m2) if first == 4 else (q_m2, m2)
    t2 = TensorSquare(a, b)
    rng = random.Random(5)
    for x in (_random_vec(rng, t2.size, 12), {t2.size - 1: 1, 0: 2}):
        for w in (_random_vec(rng, first, 3), unit_vec(first - 1)):
            assert _same(t2.mul_left_leg1(w, x),
                         _reference_on_leg(t2, x, 1, lambda k: a.mul(w, unit_vec(k))))
            assert _same(t2.mul_right_leg1(x, w),
                         _reference_on_leg(t2, x, 1, lambda k: a.mul(unit_vec(k), w)))
        for w in (_random_vec(rng, second, 3), unit_vec(second - 1)):
            assert _same(t2.mul_left_leg2(w, x),
                         _reference_on_leg(t2, x, 2, lambda k: b.mul(w, unit_vec(k))))
            assert _same(t2.mul_right_leg2(x, w),
                         _reference_on_leg(t2, x, 2, lambda k: b.mul(unit_vec(k), w)))
        m1, m2_ = _random_map(rng, first, first), _random_map(rng, second, second)
        assert _same(t2.map_leg1(m1, x), _reference_on_leg(t2, x, 1, m1.cols.__getitem__))
        assert _same(t2.map_leg2(m2_, x), _reference_on_leg(t2, x, 2, m2_.cols.__getitem__))
        phi1, phi2 = _random_vec(rng, first, 3), _random_vec(rng, second, 3)
        assert _same(t2.functional_leg1(phi1, x), _reference_functional(t2, phi1, x, 1))
        assert _same(t2.functional_leg2(phi2, x), _reference_functional(t2, phi2, x, 2))
        # f(u) fills the first slot, g(v) a slot of size second^2
        f = [_random_vec(rng, second * second, 4) for _ in range(first)]
        g = [_random_vec(rng, second * second, 4) for _ in range(second)]
        ref1, ref2 = {}, {}
        for p, c in x.items():
            u, v = divmod(p, second)
            vaxpy(ref1, c, vtensor(f[u], unit_vec(v), second))
            vaxpy(ref2, c, vtensor(unit_vec(u), g[v], second * second))
        assert _same(t2.expand_leg1(x, f.__getitem__), ref1)
        assert _same(t2.expand_leg2(x, g.__getitem__), ref2)


def test_apply_legs_matches_the_kronecker_matrix():
    """(L (x) R)(x) leg by leg equals the dense Kronecker matrix applied
    to x, for rectangular maps of four different shapes."""
    rng = random.Random(3)
    for shape in ((3, 2, 4, 5), (2, 3, 5, 4), (1, 4, 3, 1)):
        left, right = _random_map(rng, *shape[:2]), _random_map(rng, *shape[2:])
        kron = _kronecker(left, right)
        for x in (_random_vec(rng, kron.ncols, 6), {kron.ncols - 1: 1}):
            assert apply_legs(left, right, x) == kron.apply(x)


def test_triple_leg_maps_match_blockwise_application():
    """TripleQuotient._apply, given the columns of a map on A (x) A,
    equals LinMap.apply on each block: on legs (1,2) with leg 3 fixed,
    on legs (2,3) with leg 1 fixed, for a section, reduction modulo a
    relation space and a seeded map."""
    alg, report = forward_construct(as_wmha(pair_groupoid(2)))
    assert report.ok
    tq = alg.graph.triple("l", "r")
    d, rng = tq.d, random.Random(9)
    relations = relation_space("l", alg.graph)
    columns = [tq.space12.column, lambda j: relations.reduce(unit_vec(j)),
               _random_map(rng, d * d, d * d).cols.__getitem__]
    for column in columns:
        m = LinMap(d * d, d * d, [column(j) for j in range(d * d)])
        for x in (_random_vec(rng, d ** 3, 20), {d ** 3 - 1: 1}):
            ref12, ref23 = {}, {}
            for other in range(d):
                block12 = {pair: x[pair * d + other] for pair in range(d * d)
                           if pair * d + other in x}
                for pair, c in m.apply(block12).items():
                    ref12[pair * d + other] = c
                block23 = {pair: x[other * d * d + pair] for pair in range(d * d)
                           if other * d * d + pair in x}
                for pair, c in m.apply(block23).items():
                    ref23[other * d * d + pair] = c
            assert tq._apply(column, x, 12) == ref12
            assert tq._apply(column, x, 23) == ref23


@pytest.mark.parametrize("bundle", _kernel_bundles(),
                         ids=["pair-3", "crossed-swap", "base-m2-weighted"])
def test_generalized_inverses_match_the_kronecker_formula(bundle):
    """R_i = L T_partner L^-1, applied leg map by leg map, equals column
    by column the product of Kronecker matrices it replaced, for each i.
    On base-m2-weighted S^2 is not the identity, so S and S^-1 are told
    apart."""
    s, si, ident = bundle.antipode, bundle.maps.antipode_inv, LinMap.identity(bundle.dim)
    t = bundle.slices.canonical_map
    want = {1: _kronecker(ident, s) @ t(3) @ _kronecker(ident, si),
            2: _kronecker(s, ident) @ t(4) @ _kronecker(si, ident),
            3: _kronecker(ident, si) @ t(1) @ _kronecker(ident, s),
            4: _kronecker(si, ident) @ t(2) @ _kronecker(s, ident)}
    for i, m in want.items():
        r = bundle.maps[i, "R"]
        assert [r.apply(unit_vec(p)) for p in range(m.ncols)] == m.cols
        assert bundle.maps.kernel_idempotent(i) == _kronecker(
            *[(ident, s), (s, ident), (ident, si), (si, ident)][i - 1]).apply(bundle.E)
    with pytest.raises(ValueError):
        bundle.maps.kernel_idempotent(5)


def test_leg_products_compute_each_image_once(monkeypatch):
    """A leg product computes w e_k (or e_k w, or m(e_k)) once per distinct
    leg index k of its argument, not once per term."""
    calls = terms = 0

    def counting(x, stride, n, image, width):
        nonlocal calls, terms
        asked: list[int] = []

        def counted(k):
            asked.append(k)
            return image(k)
        out = on_leg(x, stride, n, counted, width)
        assert len(asked) == len(set(asked))
        calls += len(asked)
        terms += len(x)
        return out

    monkeypatch.setattr(weakhopf.algebra, "on_leg", counting)
    bundle = as_wmha(pair_groupoid(4))
    run_suite(bundle)
    run_base_suite(bundle)
    assert calls < terms


def test_expansions_compute_each_image_once(monkeypatch):
    """expand_leg1/2 ask f(u) resp. g(v) once per distinct leg index, so
    the E identities of the wmha suite and of reconstruction compute
    each leg product over E once per index, not once per term of E."""
    calls = terms = 0

    def counting(expand):
        def wrapped(self, x, f):
            nonlocal calls, terms
            asked: list[int] = []

            def counted(k):
                asked.append(k)
                return f(k)
            out = expand(self, x, counted)
            assert len(asked) == len(set(asked))
            calls += len(asked)
            terms += len(x)
            return out
        return wrapped

    for name in ("expand_leg1", "expand_leg2"):
        monkeypatch.setattr(TensorSquare, name, counting(getattr(TensorSquare, name)))
    bundle = as_wmha(pair_groupoid(4))
    assert check_E_identities(bundle).ok
    # three expansions of E, whose 64 terms have 16 distinct indices per leg
    assert (calls, terms) == (48, 192)
    alg, _ = forward_construct(bundle)
    reconstruction_pipeline(alg)
    assert calls < terms


# -- the kernel rule ------------------------------------------------------

# On A = Q + Q, T_1 column (a, b) keeps the terms of Delta(e_a) whose
# second leg is b, so Delta(e_0) = e_0 (x) e_1, Delta(e_1) = e_1 (x) e_1
# gives T_1 = 0 on the block b = 0 (coordinates 0, 2) and the identity on
# b = 1 (coordinates 1, 3): rank 2, kernel span(e_0, e_2).  x cuts out
# P = diag(x) under T_1's flags, as A is commutative with idempotent basis.
_KERNEL_CASES = {
    # tr P = rank T, TP = T, PP = P, rank(id - P) = 4 - rank T, im(id - P) = ker T
    "certified": ({1: 1, 3: 1}, (True, True, True, True, True)),
    "trace": ({0: 1, 1: 1, 2: 1, 3: 1}, (False, True, True, False, False)),
    "product": ({0: 1, 1: 1}, (True, False, True, True, False)),
    "idempotent-equal": ({0: 2, 1: 1, 2: -2, 3: 1}, (True, True, False, True, True)),
    "idempotent-unequal": ({0: 1, 1: 1, 2: -1, 3: 1}, (True, True, False, False, False)),
    "trace-and-idempotent-equal": ({0: 2, 1: 1, 2: 3, 3: 1}, (False, True, False, True, True)),
}


def _t1_maps():
    q2 = direct_sum(field_algebra(), field_algebra())
    family = [{1: 1}, {3: 1}]
    slices = CoproductSlices(TensorSquare(q2), family, family)
    assert slices.canonical_map(1) == LinMap(4, 4, [{}, {1: 1}, {}, {3: 1}])
    return CanonicalMaps(slices, LinMap.identity(2), {})


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_kernel_certificate_agrees_with_echelon_equality(case):
    """Each condition of the rule T P = T and rank(id - P) = d^2 -
    rank T broken in turn, P idempotent or not, with tr P = rank T or
    not: ``kernel_failure`` gives the echelon comparison's verdict, and
    the two dimensions when it fails."""
    x, expected = _KERNEL_CASES[case]
    maps = _t1_maps()
    proj = maps.t2.projection(x, 1)
    p, t, n = proj.map, maps.slices.canonical_map(1), LinMap.identity(4)
    assert p == LinMap(4, 4, [{j: x[j]} if j in x else {} for j in range(4)])
    described, kernel = (n - p).image(), t.kernel()
    conditions = (sum(p.entry(j, j) for j in range(4)) == t.rank(), t @ p == t, p @ p == p,
                  described.dim == 4 - t.rank(), described == kernel)
    assert conditions == expected
    assert not maps.kernel_shortcut(1, proj)
    assert maps.kernel_failure(1, proj) == (None if expected[4] else (described.dim, kernel.dim))
