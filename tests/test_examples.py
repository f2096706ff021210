from fractions import Fraction

import pytest

from weakhopf.algebra import matrix_algebra
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.balanced import relation_space
from weakhopf.examples import (ScalarExtension, TwistConditionFailed,
                               TwistData, identity_twist, mixed_algebroid,
                               obstruction_scenario, scalar_extension_wmha,
                               swap_crossed_setup, twist_wmha,
                               weighted_m2_twist_setup)
from weakhopf.linalg import unit_vec
from weakhopf.separability import build_E_from_functional
from weakhopf.wmha import run_suite


@pytest.fixture(scope="module")
def m2_idem():
    return build_E_from_functional(matrix_algebra(2),
                                   {0: Fraction(2), 3: Fraction(2)})


@pytest.fixture(scope="module")
def m2_bundle(m2_idem):
    return scalar_extension_wmha(m2_idem)


def test_trivial_base_scalar_extension():
    from weakhopf.algebra import field_algebra
    idem = build_E_from_functional(field_algebra(), {0: Fraction(1)})
    bundle = scalar_extension_wmha(idem)
    assert bundle.dim == 1
    assert run_suite(bundle).ok


def test_m2_scalar_extension_suite(m2_bundle):
    assert m2_bundle.dim == 16
    report = run_suite(m2_bundle)
    assert report.ok, report.to_text()


def test_source_target_formulas(m2_idem, m2_bundle):
    # source value of y x is S_C(y) x, target value is y S_B(x)
    ext = ScalarExtension(m2_idem)
    nb, nc = ext.nb, ext.nc
    for beta in range(nc):
        for alpha in range(nb):
            idx = beta * nb + alpha
            sc_y = m2_idem.s_c.apply(unit_vec(beta))
            expected_s = ext.algebra.mul(ext.embed_b(sc_y),
                                         ext.embed_b(unit_vec(alpha)))
            assert m2_bundle.source_value(idx) == expected_s
            sb_x = m2_idem.s_b.apply(unit_vec(alpha))
            expected_t = ext.algebra.mul(ext.embed_c(unit_vec(beta)),
                                         ext.embed_c(sb_x))
            assert m2_bundle.target_value(idx) == expected_t


def test_counit_two_expressions(m2_idem, m2_bundle):
    # phi_C(y S_B(x)) agrees with phi_B(S_C(y) x)
    ext = ScalarExtension(m2_idem)
    nb, nc = ext.nb, ext.nc
    for beta in range(nc):
        for alpha in range(nb):
            via_c = Fraction(0)
            for k, cf in m2_idem.c.mul(unit_vec(beta),
                                       m2_idem.s_b.apply(unit_vec(alpha))).items():
                w = m2_idem.phi_c.get(k)
                if w:
                    via_c += cf * w
            via_b = Fraction(0)
            for k, cf in m2_idem.b.mul(m2_idem.s_c.apply(unit_vec(beta)),
                                       unit_vec(alpha)).items():
                w = m2_idem.phi_b.get(k)
                if w:
                    via_b += cf * w
            assert via_b == via_c == m2_bundle.counit.get(beta * nb + alpha,
                                                          Fraction(0))


def test_forward_of_m2_bundle_identifications(m2_bundle):
    # the left balanced product has the dimension of C (x) A / relations,
    # which for the trivial-Hopf-part bundle is dim C * dim A / dim B ...
    # concretely: dim E(AxA) = dim A * dim C
    alg, report = forward_construct(m2_bundle)
    assert report.ok, report.to_text()
    bal = alg.graph.balanced("l")
    assert bal.q_dim == 64  # = dim C x dim A = 4 * 16
    suite = check_algebroid_axioms(alg)
    assert suite.ok, suite.to_text()


def test_counital_formula_on_scalar_extension(m2_idem, m2_bundle):
    # eps_B(x y) = x S_B^{-1}(y) under the x y = y x identification
    alg, report = forward_construct(m2_bundle)
    assert report.ok
    ext = ScalarExtension(m2_idem)
    nb, nc = ext.nb, ext.nc
    sb_inv = m2_idem.s_b.inverse()
    for beta in range(nc):
        for alpha in range(nb):
            idx = beta * nb + alpha
            expected = ext.algebra.mul(ext.embed_b(unit_vec(alpha)),
                                       ext.embed_b(sb_inv.apply(unit_vec(beta))))
            assert alg.eps_b.apply(unit_vec(idx)) == expected


def test_obstruction_scenarios_pass_algebroid_axioms():
    for name in ("radical", "auto-swap", "auto-weighted"):
        alg, _ = obstruction_scenario(name)
        report = check_algebroid_axioms(alg)
        assert report.ok, f"{name}:\n{report.to_text()}"


def test_twist_condition_rejects_bad_pair(m2_bundle):
    one = dict(m2_bundle.algebra.unit())
    with pytest.raises(TwistConditionFailed):
        TwistData(m2_bundle, one, {k: 2 * v for k, v in one.items()})


def test_identity_twist_is_identity(m2_bundle):
    tw = identity_twist(m2_bundle)
    same = twist_wmha(m2_bundle, tw)
    assert same.delta == m2_bundle.delta
    assert same.counit == m2_bundle.counit
    assert same.E == m2_bundle.E


def test_weighted_twist_bundle(m2_bundle):
    bundle, twist = weighted_m2_twist_setup()
    twisted = twist_wmha(bundle, twist)
    assert twisted.delta != bundle.delta
    report = run_suite(twisted)
    assert report.ok, report.to_text()
    # new canonical idempotent is (u x 1) E (v x 1)
    t2 = bundle.t2
    expected_e = t2.mul_left_leg1(twist.u, t2.mul_right_leg1(bundle.E, twist.v))
    assert twisted.E == expected_e


def test_twist_primed_source_target_formulas():
    bundle, twist = weighted_m2_twist_setup()
    twisted = twist_wmha(bundle, twist)
    alg = bundle.algebra
    u, u_inv = twist.u, twist.u_inv
    v_prime = bundle.antipode.apply(twist.v)
    v_prime_inv = bundle.antipode.apply(twist.v_inv)
    for i in range(bundle.dim):
        via_formula = alg.mul(u, _source_of(bundle, alg.mul(u_inv, unit_vec(i))))
        assert twisted.source_value(i) == via_formula
        via_t = alg.mul(_target_of(bundle, alg.mul(unit_vec(i), v_prime_inv)),
                        v_prime)
        assert twisted.target_value(i) == via_t


def _source_of(bundle, x):
    from weakhopf.linalg import vaxpy
    out = {}
    for i, c in x.items():
        vaxpy(out, c, bundle.source_value(i))
    return out


def _target_of(bundle, x):
    from weakhopf.linalg import vaxpy
    out = {}
    for i, c in x.items():
        vaxpy(out, c, bundle.target_value(i))
    return out


def test_crossed_product_suite():
    bundle, twist = swap_crossed_setup()
    assert bundle.dim == 8
    report = run_suite(bundle)
    assert report.ok, report.to_text()
    twisted = twist_wmha(bundle, twist)
    assert twisted.delta != bundle.delta
    assert run_suite(twisted).ok


def test_mixed_algebroid_axioms():
    bundle, twist = swap_crossed_setup()
    mixed = mixed_algebroid(bundle, twist)
    report = check_algebroid_axioms(mixed)
    assert report.ok, report.to_text()
    # the mixed antipode is u S(.) u^{-1} on basis elements
    alg = bundle.algebra
    for i in range(bundle.dim):
        expected = alg.mul(twist.u, alg.mul(bundle.antipode.apply(unit_vec(i)),
                                            twist.u_inv))
        assert mixed.antipode.apply(unit_vec(i)) == expected


def test_left_quotient_identification_map(m2_idem, m2_bundle):
    # the left balanced product is the corner C (x) A through
    # y'x' (x) a  ->  y' (x) S_B(x') a, and the left coproduct value of
    # yx lands on y (x) x under it
    from weakhopf.linalg import LinMap, Subspace, vaxpy, vtensor

    alg, report = forward_construct(m2_bundle)
    assert report.ok
    ext = ScalarExtension(m2_idem)
    a = ext.algebra
    nb, nc, d = ext.nb, ext.nc, a.dim

    def identify(pair_elt):
        out = {}
        for p, coeff in pair_elt.items():
            left, right = divmod(p, d)
            beta, alpha = divmod(left, nb)
            tail = a.mul(ext.embed_c(m2_idem.s_b.apply(unit_vec(alpha))),
                         unit_vec(right))
            for k, c in tail.items():
                vaxpy(out, coeff * c, {beta * d + k: 1})
        return out

    cols = [identify({j: 1}) for j in range(d * d)]
    ident_map = LinMap(nc * d, d * d, cols)
    assert ident_map.kernel() == relation_space("l", alg.graph)
    for beta in range(nc):
        for alpha in range(nb):
            idx = beta * nb + alpha
            got = ident_map.apply(alg.delta_b[idx])
            want = vtensor(unit_vec(beta), ext.embed_b(unit_vec(alpha)), d)
            assert got == want


def test_central_twist_is_trivial(m2_bundle):
    unit = m2_bundle.algebra.unit()
    tw = TwistData(m2_bundle, {i: Fraction(1, 2) * c for i, c in unit.items()},
                   {i: 2 * c for i, c in unit.items()})
    twisted = twist_wmha(m2_bundle, tw)
    assert twisted.delta == m2_bundle.delta
    assert twisted.E == m2_bundle.E
    assert twisted.counit == m2_bundle.counit
    assert twisted.antipode == m2_bundle.antipode
