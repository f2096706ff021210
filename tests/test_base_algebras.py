from fractions import Fraction

import pytest

from weakhopf.base_algebras import check_characterizations, run_base_suite
from weakhopf.groupoids import (as_wmha, cyclic_group, group_groupoid,
                                pair_groupoid, source_indicator,
                                target_indicator)
from weakhopf.linalg import Subspace
from weakhopf.wmha import WeakMultiplierHopfAlgebra


@pytest.fixture(scope="module")
def p2():
    return pair_groupoid(2)


@pytest.fixture(scope="module")
def p2_bundle(p2):
    return as_wmha(p2)


@pytest.fixture(scope="module")
def p2_data(p2_bundle):
    data, report = run_base_suite(p2_bundle)
    assert report.ok, report.to_text()
    return data


def test_base_dimensions_match_units(p2, p2_data):
    assert p2_data.b_view.dim == len(p2.units) == 2
    assert p2_data.c_view.dim == 2


def test_base_is_span_of_source_indicators(p2, p2_data):
    expected = Subspace.from_vectors(
        p2.size, [source_indicator(p2, u) for u in p2.units])
    assert p2_data.b_view.subspace == expected
    expected_c = Subspace.from_vectors(
        p2.size, [target_indicator(p2, u) for u in p2.units])
    assert p2_data.c_view.subspace == expected_c


def test_antipode_restriction_swaps_indicators(p2, p2_bundle, p2_data):
    # S_B sends the equal-source indicator at a unit to the equal-target one
    for u in p2.units:
        x = source_indicator(p2, u)
        coords = p2_data.b_view.to_coords(x)
        image = p2_data.c_view.from_coords(p2_data.s_b.apply(coords))
        assert image == target_indicator(p2, u)


def test_hopf_case_bases_are_scalars():
    bundle = as_wmha(group_groupoid(cyclic_group(2)))
    data, report = run_base_suite(bundle)
    assert report.ok, report.to_text()
    assert data.b_view.dim == 1
    assert data.c_view.dim == 1
    # the base is spanned by the unit of the algebra
    assert data.b_view.basis[0] == bundle.algebra.unit()


def test_phi_b_is_one_on_indicators(p2, p2_data):
    # solving (phi_B (x) id)E = 1 gives the all-ones functional on the
    # source-indicator basis
    assert p2_data.phi_b == {i: Fraction(1) for i in range(p2_data.b_view.dim)}
    assert p2_data.phi_c == {i: Fraction(1) for i in range(p2_data.c_view.dim)}


def test_characterizations_detect_corruption(p2_bundle, p2_data):
    rec = check_characterizations(p2_bundle, p2_data)
    assert rec.ok
    delta = [dict(v) for v in p2_bundle.delta]
    some = next(iter(delta[0]))
    delta[0][some] = delta[0][some] + 1
    bad = WeakMultiplierHopfAlgebra(p2_bundle.algebra, delta, p2_bundle.counit,
                                    p2_bundle.antipode, p2_bundle.E)
    rec_bad = check_characterizations(bad, p2_data)
    assert not rec_bad.ok


def test_p3_base_suite():
    bundle = as_wmha(pair_groupoid(3))
    data, report = run_base_suite(bundle)
    assert report.ok, report.to_text()
    assert data.b_view.dim == 3
