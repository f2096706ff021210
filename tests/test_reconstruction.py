from fractions import Fraction

import pytest

from weakhopf.algebra import matrix_algebra
from weakhopf.algebroid import forward_construct
from weakhopf.examples import (identity_twist, mixed_algebroid,
                               obstruction_scenario, scalar_extension_wmha,
                               swap_crossed_setup, weighted_m2_twist_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.linalg import unit_vec
from weakhopf.reconstruction import (ObstructionReport, PipelineResult,
                                     STAGE_COUNITS_DIFFER,
                                     STAGE_MODULAR_MISMATCH,
                                     STAGE_NOT_SEPARABLE, rebuilt_coproducts,
                                     reconstruction_pipeline)
from weakhopf.separability import build_E_from_functional


def roundtrip(bundle, candidates=()):
    alg, report = forward_construct(bundle)
    assert report.ok, report.to_text()
    got = reconstruction_pipeline(alg, candidates)
    assert isinstance(got, PipelineResult), getattr(got, "narrative", "")
    return got


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_roundtrip(n):
    w = as_wmha(pair_groupoid(n))
    got = roundtrip(w)
    assert got.bundle.delta == w.delta
    assert got.bundle.counit == w.counit
    assert got.bundle.antipode == w.antipode
    assert got.bundle.E == w.E


def test_group_roundtrip():
    w = as_wmha(group_groupoid(cyclic_group(2)))
    got = roundtrip(w)
    assert got.bundle.delta == w.delta
    assert got.bundle.counit == w.counit


def test_action_groupoid_roundtrip():
    z2 = cyclic_group(2)
    act = {("g0", "1"): "1", ("g0", "2"): "2",
           ("g1", "1"): "2", ("g1", "2"): "1"}
    w = as_wmha(action_groupoid(z2, ["1", "2"], act))
    got = roundtrip(w)
    assert got.bundle.delta == w.delta
    assert got.bundle.E == w.E


def test_m2_scalar_extension_roundtrip():
    idem = build_E_from_functional(matrix_algebra(2),
                                   {0: Fraction(2), 3: Fraction(2)})
    w = scalar_extension_wmha(idem)
    got = roundtrip(w)
    assert got.bundle.delta == w.delta
    assert got.bundle.counit == w.counit
    assert got.bundle.antipode == w.antipode
    assert got.bundle.E == w.E


def test_crossed_product_roundtrip():
    w, _ = swap_crossed_setup()
    got = roundtrip(w)
    assert got.bundle.delta == w.delta
    assert got.bundle.E == w.E


def test_radical_obstruction():
    alg, expected = obstruction_scenario("radical")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport)
    assert got.stage == expected == STAGE_NOT_SEPARABLE
    assert got.witness["radical_element"]


def test_modular_mismatch_obstruction():
    alg, expected = obstruction_scenario("auto-swap")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport)
    assert got.stage == expected == STAGE_MODULAR_MISMATCH
    assert "sigma_target" in got.witness
    assert "moved_center_element" in got.witness


def test_weighted_inner_automorphism_succeeds():
    alg, expected = obstruction_scenario("auto-weighted")
    assert expected is None
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult), getattr(got, "narrative", "")
    # the found separating functional matches the weighted trace shape
    assert got.report.ok


def test_counits_differ_obstruction():
    w, twist = swap_crossed_setup()
    mixed = mixed_algebroid(w, twist)
    got = reconstruction_pipeline(mixed)
    assert isinstance(got, ObstructionReport)
    assert got.stage == STAGE_COUNITS_DIFFER
    assert got.witness["eps"] != got.witness["eps_prime"]


def test_identity_twist_mixed_succeeds():
    w, _ = swap_crossed_setup()
    mixed = mixed_algebroid(w, identity_twist(w))
    got = reconstruction_pipeline(mixed)
    assert isinstance(got, PipelineResult)
    assert got.bundle.delta == w.delta


def test_weighted_m2_twist_mixed_merges():
    # trivial-Hopf-part base: the rebuilt idempotent absorbs the twist,
    # the two rebuilt coproducts coincide and the pipeline certifies the
    # merged bundle (the counit obstruction needs a nontrivial group part)
    w, twist = weighted_m2_twist_setup()
    mixed = mixed_algebroid(w, twist)
    got = reconstruction_pipeline(mixed)
    assert isinstance(got, PipelineResult)
    assert got.eps == got.eps_prime


def test_meta_identity_recorded_on_every_run():
    runs = []
    w, twist = swap_crossed_setup()
    runs.append(reconstruction_pipeline(mixed_algebroid(w, twist)))
    runs.append(reconstruction_pipeline(forward_construct(w)[0]))
    for got in runs:
        report = got.report if isinstance(got, PipelineResult) else got.report
        names = [r.name for r in report.records]
        assert "counit-antipode-invariance-meta" in names
        rec = next(r for r in report.records
                   if r.name == "counit-antipode-invariance-meta")
        assert rec.ok


def test_cached_slices_match_leg_products():
    """Every cached slice of the bundle, its forward algebroid and the
    rebuilt coproducts equals the uncached leg product."""
    idem = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
    bundle = scalar_extension_wmha(idem)
    alg, report = forward_construct(bundle)
    assert report.ok
    t2, d = bundle.t2, bundle.dim
    sides_differ = False
    for slices in (bundle.slices, alg.slices, rebuilt_coproducts(alg, bundle.E)):
        for a in range(d):
            for b in range(d):
                eb = unit_vec(b)
                r1 = t2.mul_right_leg1(slices.left[a], eb)
                l1 = t2.mul_left_leg1(eb, slices.right[a])
                assert slices.r1(a, b) == r1
                assert slices.r2(a, b) == t2.mul_right_leg2(slices.left[a], eb)
                assert slices.l1(a, b) == l1
                assert slices.l2(a, b) == t2.mul_left_leg2(eb, slices.right[a])
                sides_differ = sides_differ or r1 != t2.mul_left_leg1(eb, slices.left[a])
    # the algebra is noncommutative, so the side of the cover matters
    assert sides_differ
