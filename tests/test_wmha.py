from fractions import Fraction

import pytest

from weakhopf.groupoids import (action_groupoid, as_wmha, composability_element,
                                cyclic_group, group_groupoid, pair_groupoid)
from weakhopf.linalg import unit_vec, vtensor
from weakhopf.wmha import (WeakMultiplierHopfAlgebra,
                           check_counit, check_E_identities,
                           check_generalized_inverses, compute_E,
                           opposite_bundle, run_suite)


@pytest.fixture(scope="module")
def p2():
    return pair_groupoid(2)


@pytest.fixture(scope="module")
def p2_bundle(p2):
    return as_wmha(p2)


@pytest.fixture(scope="module")
def z2_bundle():
    return as_wmha(group_groupoid(cyclic_group(2)))


def test_p2_full_suite_passes(p2_bundle):
    report = run_suite(p2_bundle)
    assert report.ok, report.to_text()


def test_z2_group_is_hopf_like(z2_bundle):
    report = run_suite(z2_bundle)
    assert report.ok, report.to_text()
    d = z2_bundle.dim
    ones = {}
    for p in range(d):
        for q in range(d):
            ones[p * d + q] = Fraction(1)
    assert z2_bundle.E == ones  # composability is total for a group


def test_action_groupoid_suite_passes():
    z2 = cyclic_group(2)
    act = {("g0", "1"): "1", ("g0", "2"): "2",
           ("g1", "1"): "2", ("g1", "2"): "1"}
    bundle = as_wmha(action_groupoid(z2, ["1", "2"], act))
    report = run_suite(bundle)
    assert report.ok, report.to_text()


def test_trivial_groupoid_suite_passes():
    report = run_suite(as_wmha(pair_groupoid(1)))
    assert report.ok, report.to_text()


def test_canonical_map_values(p2, p2_bundle):
    n = p2.size
    t1 = p2_bundle.canonical_map(1)

    def tensor_delta(a, b):
        return vtensor(unit_vec(p2.index[a]), unit_vec(p2.index[b]), n)

    # (1,2)(2,1) = (1,1), so Delta(d_{(1,1)})(1 (x) d_{(2,1)}) keeps that pair
    assert t1.apply(tensor_delta("(1,1)", "(2,1)")) == tensor_delta("(1,2)", "(2,1)")
    # no factorization of (1,1) has second leg (1,2)
    assert t1.apply(tensor_delta("(1,1)", "(1,2)")) == {}


def test_kernel_idempotent_is_source_indicator(p2, p2_bundle):
    # with S applied to its second leg, the composability indicator
    # becomes the equal-source indicator
    f1 = p2_bundle.kernel_idempotent(1)
    n = p2.size
    expected = {}
    for p in range(n):
        for q in range(n):
            if p2.source[p] == p2.source[q]:
                expected[p * n + q] = Fraction(1)
    assert f1 == expected


def test_counit_failure_witness(p2):
    bundle = as_wmha(p2)
    bad = WeakMultiplierHopfAlgebra(
        algebra=bundle.algebra,
        delta=bundle.delta,
        counit={p2.index["(1,1)"]: Fraction(1)},  # evaluation at (1,1) only
        antipode=bundle.antipode,
        canonical_idempotent=bundle.E,
    )
    rec = check_counit(bad)
    assert not rec.ok
    # the pair ((2,2), (2,2)) is among the violations: its coproduct
    # slice is d_{(2,2)} (x) d_{(2,2)} which the functional sends to zero
    a = p2.index["(2,2)"]
    lhs = bad.t2.functional_leg1(bad.counit, bad.slices.r2(a, a))
    assert lhs == {} != bad.algebra.mul_basis(a, a)


def test_compute_E_matches_groupoid_indicator(p2, p2_bundle):
    e = compute_E(p2_bundle.algebra, p2_bundle.delta)
    assert e == composability_element(p2)


def test_compute_E_generic_solver_agrees(p2, p2_bundle):
    e = compute_E(p2_bundle.algebra, p2_bundle.delta, force_generic=True)
    assert e == composability_element(p2)


def test_compute_E_hopf_case(z2_bundle):
    e = compute_E(z2_bundle.algebra, z2_bundle.delta)
    assert e == z2_bundle.E


def test_corrupted_E_detected(p2_bundle):
    e = dict(p2_bundle.E)
    some = next(iter(e))
    e[some] = e[some] + 1
    bad = WeakMultiplierHopfAlgebra(p2_bundle.algebra, p2_bundle.delta,
                                    p2_bundle.counit, p2_bundle.antipode, e)
    assert not check_E_identities(bad).ok


def test_corrupted_antipode_detected(p2_bundle):
    s = p2_bundle.antipode
    cols = [dict(c) for c in s.cols]
    cols[0], cols[1] = cols[1], cols[0]
    bad = WeakMultiplierHopfAlgebra(
        p2_bundle.algebra, p2_bundle.delta, p2_bundle.counit,
        type(s)(s.nrows, s.ncols, cols), p2_bundle.E)
    assert not check_generalized_inverses(bad).ok


def test_hopf_case_tr_is_identity(z2_bundle):
    # composability is total, so T1 R1 = multiplication by 1 (x) 1
    t1 = z2_bundle.canonical_map(1)
    r1 = z2_bundle.generalized_inverse(1)
    from weakhopf.linalg import LinMap
    assert t1 @ r1 == LinMap.identity(z2_bundle.dim ** 2)


def test_opposite_bundle_passes_and_swaps_maps(p2_bundle):
    op = opposite_bundle(p2_bundle)
    report = run_suite(op)
    assert report.ok, report.to_text()
    assert op.canonical_map(1) == p2_bundle.canonical_map(3)
    assert op.canonical_map(2) == p2_bundle.canonical_map(4)
    assert op.canonical_map(3) == p2_bundle.canonical_map(1)
    assert op.canonical_map(4) == p2_bundle.canonical_map(2)


def test_source_values_match_pointwise_oracle(p2, p2_bundle):
    # independent oracle: eps_s(f)(q) = f(unit at source of q)
    for i in range(p2.size):
        oracle = {}
        for q in range(p2.size):
            if p2.source[q] == i:  # i must be a unit for a nonzero answer
                oracle[q] = Fraction(1)
        got = p2_bundle.source_value(i)
        if i in p2.units:
            assert got == oracle
        else:
            assert got == {}


def test_target_values_match_pointwise_oracle(p2, p2_bundle):
    for i in range(p2.size):
        got = p2_bundle.target_value(i)
        if i in p2.units:
            assert got == {q: Fraction(1) for q in range(p2.size)
                           if p2.target[q] == i}
        else:
            assert got == {}


def test_suite_flags_unreproduced_axioms_as_skipped(p2_bundle):
    report = run_suite(p2_bundle)
    rec = next(r for r in report.records
               if r.name == "axioms-outside-reproduced-list")
    assert rec.status == "skipped-not-applicable"
    assert report.ok
