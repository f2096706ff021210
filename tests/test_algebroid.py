import pytest

from weakhopf.algebroid import (algebroid_canonical_maps, NotBijective,
                                check_algebroid_axioms, forward_construct)
from weakhopf.groupoids import (as_wmha, cyclic_group, group_groupoid,
                                pair_groupoid)
from weakhopf.linalg import unit_vec


@pytest.fixture(scope="module")
def p2_bundle():
    return as_wmha(pair_groupoid(2))


@pytest.fixture(scope="module")
def p2_algebroid(p2_bundle):
    alg, report = forward_construct(p2_bundle)
    assert report.ok, report.to_text()
    return alg


def test_forward_p2_passes_suite(p2_algebroid):
    report = check_algebroid_axioms(p2_algebroid)
    assert report.ok, report.to_text()


def test_forward_hopf_case():
    bundle = as_wmha(group_groupoid(cyclic_group(2)))
    alg, report = forward_construct(bundle)
    assert report.ok
    suite = check_algebroid_axioms(alg)
    assert suite.ok, suite.to_text()
    # trivial base: quotients are the full tensor square
    assert alg.graph.balanced("l").q_dim == bundle.dim ** 2


def test_base_dimension_is_unit_count(p2_algebroid):
    assert p2_algebroid.graph.b_view.dim == 2


def test_canonical_maps_are_8x8(p2_algebroid):
    # each is bijective, else NotBijective is raised
    assert algebroid_canonical_maps(p2_algebroid) == {
        name: (8, 8) for name in ("T_lambda", "T_rho", "lambda_T", "rho_T")}


def test_corrupted_left_coproduct_detected(p2_bundle, p2_algebroid):
    from weakhopf.algebroid import MultiplierHopfAlgebroid

    delta_b = [dict(v) for v in p2_algebroid.delta_b]
    # zero out one coproduct value: T_rho loses rank
    delta_b[0] = {}
    bad = MultiplierHopfAlgebroid(p2_algebroid.graph, delta_b,
                                  p2_algebroid.delta_c, p2_algebroid.eps_b,
                                  p2_algebroid.eps_c, p2_algebroid.antipode)
    with pytest.raises(NotBijective):
        algebroid_canonical_maps(bad)


def test_counital_image_spans_base(p2_algebroid):
    from weakhopf.linalg import Subspace
    d = p2_algebroid.dim
    img = Subspace(d)
    for j in range(d):
        img.insert(p2_algebroid.eps_b.apply(unit_vec(j)))
    assert img == p2_algebroid.graph.b_view.subspace


def test_counital_maps_from_source_target(p2_bundle, p2_algebroid):
    # eps_B = S^{-1} o target map, eps_C = S^{-1} o source map, elementwise
    si = p2_bundle.maps.antipode_inv
    for i in range(p2_bundle.dim):
        assert p2_algebroid.eps_b.apply(unit_vec(i)) == si.apply(
            p2_bundle.target_value(i))
        assert p2_algebroid.eps_c.apply(unit_vec(i)) == si.apply(
            p2_bundle.source_value(i))


def test_action_groupoid_algebroid():
    from weakhopf.groupoids import action_groupoid
    z2 = cyclic_group(2)
    act = {("g0", "1"): "1", ("g0", "2"): "2",
           ("g1", "1"): "2", ("g1", "2"): "1"}
    bundle = as_wmha(action_groupoid(z2, ["1", "2"], act))
    alg, report = forward_construct(bundle)
    assert report.ok
    suite = check_algebroid_axioms(alg)
    assert suite.ok, suite.to_text()
