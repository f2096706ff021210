from fractions import Fraction

import pytest

from weakhopf import io
from weakhopf.algebra import TensorSquare, matrix_algebra
from weakhopf.algebroid import forward_construct
from weakhopf.examples import (identity_twist, mixed_algebroid,
                               obstruction_scenario, scalar_extension_wmha,
                               swap_crossed_setup, weighted_m2_twist_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.linalg import LinMap, Subspace, unit_vec
from weakhopf.reconstruction import (ObstructionReport, PipelineResult,
                                     STAGE_COUNITS_DIFFER,
                                     STAGE_MODULAR_MISMATCH,
                                     STAGE_NOT_SEPARABLE, rebuilt_coproducts,
                                     reconstruction_pipeline)
from weakhopf.separability import build_E_from_functional
from weakhopf.cli import main


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


def test_pipeline_leaves_its_input_untouched(tmp_path, capsys):
    """A file-loaded algebroid carries no idempotent; reconstruction finds
    one but must not write it into the caller's graph pair."""
    wmha_path, alg_path = tmp_path / "m2.json", tmp_path / "m2-algebroid.json"
    assert main(["gen-example", "base-m2", "--variant", "weighted",
                 "--out", str(wmha_path)]) == 0
    assert main(["wmha-to-algebroid", str(wmha_path), "--out", str(alg_path)]) == 0
    capsys.readouterr()
    alg = io.parse_document(io.load(str(alg_path)))
    assert alg.graph.e_element is None and alg.graph.e_coords is None
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult)
    assert alg.graph.e_element is None
    assert alg.graph.e_coords is None


def _counting_projectors(monkeypatch):
    calls = []
    original = TensorSquare.twisted_projector

    def counted(self, f, which):
        calls.append(which)
        return original(self, f, which)

    monkeypatch.setattr(TensorSquare, "twisted_projector", counted)
    return calls


@pytest.mark.parametrize("make", [lambda: as_wmha(pair_groupoid(3)),
                                  lambda: swap_crossed_setup()[0]],
                         ids=["pair-3", "crossed-swap"])
def test_final_suite_shares_the_kernel_certificate(make, monkeypatch):
    """A passing pipeline builds each F_i projector once: the kernel stage
    builds four, and the final suite takes them over after comparing
    F_i exactly, together with the slices, E-maps and E-ranges."""
    alg, report = forward_construct(make())
    assert report.ok
    calls = _counting_projectors(monkeypatch)
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    assert sorted(calls) == [1, 2, 3, 4]
    names = [r.name for r in got.report.records]
    assert "kernel-subspaces" in names and "range-conditions" in names


def test_unequal_certificate_is_recomputed(monkeypatch):
    """A projector or E-map offered for a different element is refused,
    and the bundle builds its own."""
    bundle = swap_crossed_setup()[0]
    fresh = swap_crossed_setup()[0]
    f1, f2 = bundle.kernel_idempotent(1), bundle.kernel_idempotent(2)
    assert f1 != f2
    size = bundle.t2.size
    decoy, empty = LinMap.identity(size), Subspace(size)
    assert not bundle.adopt_kernel_description(1, f2, decoy, empty)
    assert not bundle.adopt_E_maps(f2, decoy, decoy, empty, empty)
    calls = _counting_projectors(monkeypatch)
    assert bundle.kernel_projector(1) == fresh.kernel_projector(1) != decoy
    assert bundle.kernel_description(1) == fresh.kernel_description(1) != empty
    assert bundle.E_left_map() == fresh.E_left_map() != decoy
    assert bundle.E_right_range() == fresh.E_right_range() != empty
    assert calls == [1, 1]
    # offered for the element it was built from, it is taken over as is
    assert bundle.adopt_kernel_description(2, f2, decoy, empty)
    assert bundle.kernel_projector(2) is decoy
