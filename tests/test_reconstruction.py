from collections import Counter
from fractions import Fraction

import pytest

from weakhopf import algebroid, io, wmha
from weakhopf.algebra import (PROJECTION_FLAGS, CoproductSlices, Projection, TensorSquare,
                              matrix_algebra)
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.examples import (identity_twist, mixed_algebroid,
                               obstruction_scenario, scalar_extension_wmha,
                               swap_crossed_setup, weighted_m2_twist_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.linalg import LinMap, unit_vec
from weakhopf.reconstruction import (ObstructionReport, PipelineResult,
                                     STAGE_COUNITS_DIFFER,
                                     STAGE_MODULAR_MISMATCH,
                                     STAGE_NOT_SEPARABLE, rebuilt_coproducts,
                                     reconstruction_pipeline)
from weakhopf.separability import build_E_from_functional
from weakhopf.cli import main


def roundtrip(bundle):
    alg, report = forward_construct(bundle)
    assert report.ok, report.to_text()
    got = reconstruction_pipeline(alg)
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
    """Reconstruction reads the idempotent the graph pair found for itself
    and writes nothing into the caller's algebroid: its tensors and its
    algebroid report are the same before and after the pipeline, and the
    same as for a fresh read of its file."""
    alg_path = _base_m2_weighted_file(tmp_path, capsys)
    alg = io.parse_document(io.load(alg_path))
    tensors = io.algebroid_to_dict(alg)
    report = check_algebroid_axioms(alg).to_json()
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult)
    assert io.algebroid_to_dict(alg) == tensors
    assert check_algebroid_axioms(alg).to_json() == report
    assert check_algebroid_axioms(io.parse_document(io.load(alg_path))).to_json() == report


def _base_m2_weighted_file(tmp_path, capsys) -> str:
    """The base-m2-weighted algebroid written by wmha-to-algebroid."""
    wmha_path, alg_path = tmp_path / "m2.json", tmp_path / "m2-algebroid.json"
    assert main(["gen-example", "base-m2", "--variant", "weighted",
                 "--out", str(wmha_path)]) == 0
    assert main(["wmha-to-algebroid", str(wmha_path), "--out", str(alg_path)]) == 0
    capsys.readouterr()
    return str(alg_path)


def _counting_builds(monkeypatch):
    """The `which` of every ``TensorSquare.projection`` call, and the
    (flags, element) of every covered map built."""
    asked, built = [], []
    projection, covered = TensorSquare.projection, TensorSquare._covered_map

    def counted_projection(self, x, which):
        asked.append(which)
        return projection(self, x, which)

    def counted_covered(self, x, left1, left2):
        built.append(((left1, left2), frozenset(x.items())))
        return covered(self, x, left1, left2)

    monkeypatch.setattr(TensorSquare, "projection", counted_projection)
    monkeypatch.setattr(TensorSquare, "_covered_map", counted_covered)
    return asked, built


def _cut_by_e(bundle):
    """(flags, element) of the six maps E and F_1..F_4 cut out."""
    return {(PROJECTION_FLAGS[w], frozenset(
        (bundle.E if w in ("EL", "ER") else bundle.kernel_idempotent(w)).items()))
            for w in PROJECTION_FLAGS}


@pytest.mark.parametrize("make", [lambda: as_wmha(pair_groupoid(3)),
                                  lambda: swap_crossed_setup()[0]],
                         ids=["pair-3", "crossed-swap"])
def test_final_suite_shares_the_kernel_certificate(make, monkeypatch):
    """A passing pipeline builds each map E and F_i cut out once: the
    range and kernel stages build them on the algebroid's tensor square,
    and the final suite, whose bundle holds that square, asks again for
    every one of them and finds it."""
    alg, report = forward_construct(make())
    assert report.ok
    asked, built = _counting_builds(monkeypatch)
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    assert got.bundle.t2 is alg.t2
    assert Counter(asked) == {which: 3 for which in PROJECTION_FLAGS}
    assert Counter(built) == {b: 1 for b in _cut_by_e(got.bundle)}
    names = [r.name for r in got.report.records]
    assert "kernel-subspaces" in names and "range-conditions" in names


@pytest.mark.parametrize("make", [lambda: as_wmha(pair_groupoid(3)),
                                  lambda: swap_crossed_setup()[0]],
                         ids=["pair-3", "crossed-swap"])
def test_passing_pipeline_certifies_kernels_without_echelons(make, monkeypatch):
    """The kernel stage and the final suite decide ker T_i = im(id - P_i)
    by the certificate: no complement and no kernel of T_i is
    echelonized, and the final suite's kernel check, finding the
    certificate the kernel stage proved for the same maps, computes no
    map product."""
    alg, report = forward_construct(make())
    assert report.ok
    built, products, inside = [], [], []
    complement = Projection.complement.func
    kernel, matmul = CoproductSlices.canonical_kernel, LinMap.__matmul__
    check = wmha.check_kernel_subspaces

    def watched_check(bundle):
        inside.append(True)
        try:
            return check(bundle)
        finally:
            inside.pop()

    def counted_matmul(self, other):
        if inside:
            products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(Projection, "complement",
                        property(lambda self: built.append("complement") or complement(self)))
    monkeypatch.setattr(CoproductSlices, "canonical_kernel",
                        lambda self, which: built.append(which) or kernel(self, which))
    monkeypatch.setattr(LinMap, "__matmul__", counted_matmul)
    monkeypatch.setattr(wmha, "check_kernel_subspaces", watched_check)
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    names = [r.name for r in got.report.records]
    assert "rebuilt-kernel-conditions" in names and "kernel-subspaces" in names
    assert built == [] and products == []


def test_forward_path_builds_each_cut_map_once(tmp_path, capsys, monkeypatch):
    """wmha-to-algebroid on base-m2-weighted: the wmha suite builds the
    six maps E and F_i cut out, and the forward graph pair, holding the
    bundle's tensor square, takes its l, r, s, t, s-up and t-up sections
    from them instead of building them again."""
    path = tmp_path / "m2.json"
    assert main(["gen-example", "base-m2", "--variant", "weighted", "--out", str(path)]) == 0
    six = _cut_by_e(io.parse_document(io.load(str(path))))
    assert len(six) == 6
    asked, built = _counting_builds(monkeypatch)
    assert main(["wmha-to-algebroid", str(path)]) == 0
    capsys.readouterr()
    assert Counter(b for b in built if b in six) == {b: 1 for b in six}
    assert Counter(asked)["EL"] > 1 and all(Counter(asked)[w] > 1 for w in (1, 2, 3, 4))


def test_projections_are_shared_by_equal_elements_only():
    """One map per flags and exact element: equal elements passed as
    distinct dicts share it, with its image and complement; F_1 and F_2,
    under the same flags, do not, nor do E and E with one entry changed."""
    bundle = swap_crossed_setup()[0]
    t2 = TensorSquare(bundle.algebra)
    e = bundle.E
    first, again = t2.projection(dict(e), "EL"), t2.projection(dict(e), "EL")
    assert first is again
    assert first.image is again.image and first.complement is again.complement
    assert bundle.projection("EL") is bundle.t2.projection(dict(e), "EL")
    assert bundle.projection("EL") is not first  # another tensor square
    f1, f2 = bundle.kernel_idempotent(1), bundle.kernel_idempotent(2)
    assert f1 != f2 and PROJECTION_FLAGS[1] == PROJECTION_FLAGS[2]
    assert t2.projection(f1, 1).map != t2.projection(f2, 2).map
    changed = dict(e)
    p = next(iter(changed))
    changed[p] += 1
    assert t2.projection(changed, "EL").map != first.map
    assert t2.projection(dict(e), "EL") is first


def test_file_loaded_pipeline_reuses_the_prechecked_maps(tmp_path, capsys, monkeypatch):
    """algebroid-to-wmha's order on a file: the algebroid suite cuts the
    six sections out of A (x) A with the idempotent the graph pair found,
    and reconstruction's range and kernel stages, and its final suite,
    find every map they ask for there."""
    alg = io.parse_document(io.load(_base_m2_weighted_file(tmp_path, capsys)))
    assert check_algebroid_axioms(alg).ok
    asked, built = _counting_builds(monkeypatch)
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    assert set(asked) == set(PROJECTION_FLAGS)
    assert built == []


def test_mixed_algebroid_searches_its_base_once(monkeypatch):
    """The graph pair of a mixed algebroid searches for its separating
    functional once, for the algebroid suite and reconstruction alike."""
    calls = []
    search = algebroid.find_separating_functional

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(algebroid, "find_separating_functional", counted)
    alg = mixed_algebroid(*swap_crossed_setup())
    assert check_algebroid_axioms(alg).ok
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport) and got.stage == STAGE_COUNITS_DIFFER
    assert len(calls) == 1
