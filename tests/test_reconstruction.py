import gc
import json
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from weakhopf import algebroid, io, reconstruction, wmha
from weakhopf.algebra import (PROJECTION_FLAGS, Projection, TensorSquare, matrix_algebra,
                              multiplicativity)
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.base_algebras import run_base_suite
from weakhopf.balanced import BalancedTensorSpace
from weakhopf.examples import (identity_twist, mixed_algebroid,
                               obstruction_scenario, scalar_extension_wmha,
                               swap_crossed_setup, weighted_m2_twist_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.linalg import LinMap, Subspace, unit_vec
from weakhopf.reconstruction import (ObstructionReport, PipelineResult, ReconstructionError,
                                     STAGE_COUNITS_DIFFER,
                                     STAGE_MODULAR_MISMATCH,
                                     STAGE_NOT_SEPARABLE, build_counits, build_delta,
                                     check_ranges_and_fullness,
                                     check_separability_assumption, embed_idempotent,
                                     reconstruction_pipeline)
from weakhopf.reporting import Report
from weakhopf.separability import build_E_from_functional
from weakhopf.slices import CoproductSlices, first_difference
from weakhopf.wmha import CanonicalMaps, run_suite
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



@pytest.mark.parametrize("name", ["pair-2", "pair-3", "pair-4", "base-m2-weighted",
                                  "counit-twist"])
def test_passed_ranges_imply_full_legs(name, tmp_path, capsys):
    """Once the range stage has passed, both leg spans of the r2 slices
    are A, as the proof in ``check_ranges_and_fullness`` says: the
    fullness check it no longer runs could not fail.  counit-twist is
    read from its file and ends at CounitsDiffer, after the range stage."""
    if name == "counit-twist":
        path = tmp_path / "twist.json"
        assert main(["gen-example", "counit-twist", "--out", str(path)]) == 0
        capsys.readouterr()
        alg = io.parse_document(io.load(str(path)))
    else:
        bundle = (scalar_extension_wmha(build_E_from_functional(
            matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)}))
                  if name == "base-m2-weighted" else as_wmha(pair_groupoid(int(name[-1]))))
        alg = forward_construct(bundle)[0]
    report = Report("reconstruction")
    idem = check_separability_assumption(alg, report)
    e_elt = embed_idempotent(alg.graph, idem)
    cops = build_delta(alg, e_elt)
    assert check_ranges_and_fullness(CanonicalMaps(cops, alg.antipode, e_elt), report)
    t2, d = alg.t2, alg.dim
    for leg in (1, 2):
        span = Subspace.from_vectors(d, (v for a in range(d) for b in range(d)
                                         for v in t2.leg_vectors(cops.r2(a, b), leg).values()))
        assert span.dim == d

def test_cached_slices_match_leg_products():
    """Every cached slice of the bundle, its forward algebroid and the
    rebuilt coproducts equals the uncached leg product."""
    idem = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
    bundle = scalar_extension_wmha(idem)
    alg, report = forward_construct(bundle)
    assert report.ok
    t2, d = bundle.t2, bundle.dim
    sides_differ = False
    for slices in (bundle.slices, alg.slices, build_delta(alg, bundle.E)):
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
    alg_path = _algebroid_file(tmp_path, capsys)
    alg = io.parse_document(io.load(alg_path))
    tensors = io.algebroid_to_dict(alg)
    report = check_algebroid_axioms(alg).to_json()
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult)
    assert io.algebroid_to_dict(alg) == tensors
    assert check_algebroid_axioms(alg).to_json() == report
    assert check_algebroid_axioms(io.parse_document(io.load(alg_path))).to_json() == report


def _algebroid_file(tmp_path, capsys, *example) -> str:
    """The algebroid that wmha-to-algebroid writes for a gen-example
    bundle, by default base-m2-weighted."""
    wmha_path, alg_path = tmp_path / "wmha.json", tmp_path / "algebroid.json"
    assert main(["gen-example", *(example or ("base-m2", "--variant", "weighted")),
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
        (bundle.E if w in ("EL", "ER") else bundle.maps.kernel_idempotent(w)).items()))
            for w in PROJECTION_FLAGS}


@pytest.mark.parametrize("make", [lambda: as_wmha(pair_groupoid(3)),
                                  lambda: swap_crossed_setup()[0]],
                         ids=["pair-3", "crossed-swap"])
def test_final_suite_shares_the_kernel_certificate(make, monkeypatch):
    """A passing pipeline builds none of the maps E and F_i cut out:
    the range and kernel stages decide on the module generators, and
    the final suite, whose bundle holds the algebroid's tensor square,
    asks for all six and reads each off its element."""
    alg, report = forward_construct(make())
    assert report.ok
    asked, built = _counting_builds(monkeypatch)
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    assert got.bundle.t2 is alg.t2
    assert set(asked) == set(PROJECTION_FLAGS)
    assert Counter(built) == {}
    names = [r.name for r in got.report.records]
    assert "kernel-subspaces" in names and "range-conditions" in names


@pytest.mark.parametrize("make", [lambda: as_wmha(pair_groupoid(3)),
                                  lambda: swap_crossed_setup()[0]],
                         ids=["pair-3", "crossed-swap"])
def test_passing_pipeline_certifies_kernels_without_echelons(make, monkeypatch):
    """The kernel stage and the final suite decide ker T_i = im(id - P_i)
    by the shortcut: no complement and no kernel of T_i is echelonized,
    and the final suite's kernel check, decided by its projector
    certificate, computes no map product."""
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
    """wmha-to-algebroid on base-m2-weighted builds none of the six maps
    E and F_i cut out, nor any other covered map: the wmha suite asks for
    them and reads them off their elements, and the forward graph pair,
    holding the bundle's tensor square, applies its l, r, s, t, s-up and
    t-up sections through the same memoized projections without building
    them."""
    path = tmp_path / "m2.json"
    assert main(["gen-example", "base-m2", "--variant", "weighted", "--out", str(path)]) == 0
    six = _cut_by_e(io.parse_document(io.load(str(path))))
    assert len(six) == 6
    asked, built = _counting_builds(monkeypatch)
    assert main(["wmha-to-algebroid", str(path)]) == 0
    capsys.readouterr()
    assert built == []
    assert Counter(asked)["EL"] > 1 and all(Counter(asked)[w] > 1 for w in (1, 2, 3, 4))


def test_each_twisted_idempotent_is_built_once(tmp_path, capsys, monkeypatch):
    """check-wmha, roundtrip and algebroid-to-wmha on pair-3 each build
    F_1..F_4 once: the maps build them on the first ``projection`` call
    per which, and the graph pair's ``f_element`` returns the value it
    built first, however often it is asked."""
    alg_path = _algebroid_file(tmp_path, capsys, "pair-groupoid", "--n", "3")
    wmha_path = str(tmp_path / "wmha.json")
    built = {"maps": [], "graph": []}
    kernel_idempotent = CanonicalMaps.kernel_idempotent
    f_element = algebroid.QuantumGraphPair.f_element
    monkeypatch.setattr(CanonicalMaps, "kernel_idempotent", lambda self, which: built[
        "maps"].append(kernel_idempotent(self, which)) or built["maps"][-1])
    monkeypatch.setattr(algebroid.QuantumGraphPair, "f_element", lambda self, which: built[
        "graph"].append(f_element(self, which)) or built["graph"][-1])
    counts = []
    for argv in (["check-wmha", wmha_path], ["roundtrip", wmha_path],
                 ["algebroid-to-wmha", alg_path]):
        assert main(argv) == 0
        capsys.readouterr()
        counts.append({key: (len(got), len({id(v) for v in got}))
                       for key, got in built.items()})
        for got in built.values():
            got.clear()
    assert counts == [{"maps": (4, 4), "graph": (0, 0)}, {"maps": (4, 4), "graph": (4, 4)},
                      {"maps": (4, 4), "graph": (8, 4)}]


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
    assert bundle.maps.projection("EL") is bundle.t2.projection(dict(e), "EL")
    assert bundle.maps.projection("EL") is not first  # another tensor square
    f1, f2 = bundle.maps.kernel_idempotent(1), bundle.maps.kernel_idempotent(2)
    assert f1 != f2 and PROJECTION_FLAGS[1] == PROJECTION_FLAGS[2]
    assert t2.projection(f1, 1).map != t2.projection(f2, 2).map
    changed = dict(e)
    p = next(iter(changed))
    changed[p] += 1
    assert t2.projection(changed, "EL").map != first.map
    assert t2.projection(dict(e), "EL") is first


def test_file_loaded_pipeline_reuses_the_prechecked_maps(tmp_path, capsys, monkeypatch):
    """algebroid-to-wmha's order on a file: the algebroid suite applies
    the six sections the graph pair's idempotent cuts out of A (x) A
    without building any of them, and reconstruction's range and kernel
    stages and its final suite find every map they ask for among the
    same memoized projections and build none.  Neither echelonizes the
    image or kernel of a canonical map or a cut map."""
    alg = io.parse_document(io.load(_algebroid_file(tmp_path, capsys)))
    asked, built = _counting_builds(monkeypatch)
    echelons = []
    space = CoproductSlices._space
    monkeypatch.setattr(CoproductSlices, "_space", lambda self, kind, which:
                        echelons.append((kind, which)) or space(self, kind, which))
    for name in ("image", "complement"):
        echelon = getattr(Projection, name).func
        monkeypatch.setattr(Projection, name, property(
            lambda self, name=name, echelon=echelon: echelons.append(name) or echelon(self)))
    assert check_algebroid_axioms(alg).ok
    assert built == []
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult) and got.report.ok
    assert set(asked) == set(PROJECTION_FLAGS)
    assert Counter(built) == {} and echelons == []


@pytest.mark.parametrize("source", ["pair-3", "base-m2-weighted-file"])
def test_passing_canonical_maps_form_no_echelon_and_no_column(source, tmp_path, capsys,
                                                              monkeypatch):
    """On sections the canonical maps are decided on the module
    generators: a passing ``check_canonical_maps`` echelonizes nothing
    (no ``Subspace.from_vectors``) and reads no column P(e_j) of a
    balanced space.  The graph pair's search for its idempotent runs
    before the count starts."""
    if source == "pair-3":
        alg, report = forward_construct(as_wmha(pair_groupoid(3)))
        assert report.ok
    else:
        alg = io.parse_document(io.load(_algebroid_file(tmp_path, capsys)))
    assert alg.graph.e_element is not None
    calls = Counter()
    from_vectors, column = Subspace.from_vectors, BalancedTensorSpace.column
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(
        lambda *args: calls.update(["from_vectors"]) or from_vectors(*args)))
    monkeypatch.setattr(BalancedTensorSpace, "column",
                        lambda *args: calls.update(["column"]) or column(*args))
    assert algebroid.check_canonical_maps(alg).status == "pass"
    assert calls == Counter()
    assert set(alg.canonical_paths.values()) == {"generators"}


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


def test_counits_outside_their_base_fail_the_precheck(tmp_path, capsys):
    """``build_counits`` raises only where eps_B(A) leaves B, which
    ``check-algebroid`` refuses first at ``left-counital-image``."""
    alg = io.parse_document(io.load(_algebroid_file(tmp_path, capsys, "pair-groupoid")))
    idem = check_separability_assumption(alg)
    outside = next(k for k in range(alg.dim) if alg.graph.b_view.to_coords(unit_vec(k)) is None)
    cols = [dict(alg.eps_b.cols[0]), *alg.eps_b.cols[1:]]
    cols[0][outside] = cols[0].get(outside, 0) + 1
    bad = algebroid.MultiplierHopfAlgebroid(alg.graph, alg.delta_b, alg.delta_c,
                                            LinMap(alg.dim, alg.dim, cols), alg.eps_c,
                                            alg.antipode)
    assert "left-counital-image" in {r.name for r in check_algebroid_axioms(bad).failures()}
    with pytest.raises(ReconstructionError, match="eps_B outside B"):
        build_counits(bad, idem)


def test_corrupted_rebuilt_coproducts_never_certify(tmp_path, capsys, monkeypatch):
    """With one entry of E Delta_B or Delta_C E raised by 1, the pipeline
    never certifies: it ends in an obstruction whose witness does not
    re-validate, or in ``internal-inconsistency``, both exit 1."""
    path = _algebroid_file(tmp_path, capsys, "pair-groupoid")
    d = io.parse_document(io.load(path)).dim
    honest = reconstruction.build_delta
    endings = Counter()
    for side in ("left", "right"):
        for a in range(d):
            for p in range(d * d):
                def corrupted(alg, e_elt, side=side, a=a, p=p):
                    cops = honest(alg, e_elt)
                    family = list(getattr(cops, side))
                    family[a] = {**family[a], p: family[a].get(p, 0) + 1}
                    family[a] = {k: c for k, c in family[a].items() if c}
                    return CoproductSlices(cops.t2, *((family, cops.right) if side == "left"
                                                      else (cops.left, family)))

                monkeypatch.setattr(reconstruction, "build_delta", corrupted)
                code = main(["--format", "json", "algebroid-to-wmha", path])
                report = json.loads(capsys.readouterr().out)
                assert code == 1 and report["summary"] == "fail"
                failures = [r["check"] for r in report["checks"] if r["status"] == "fail"]
                assert failures in (["internal-inconsistency"],
                                    ["rebuilt-range-conditions",
                                     "obstruction-RangeConditionFailed",
                                     "witness-revalidation"]), failures
                endings[failures[-1]] += 1
    assert set(endings) == {"internal-inconsistency", "witness-revalidation"}


def _rebind(monkeypatch, original, replacement):
    """Replace every binding of original in the engine's modules."""
    for module in [m for n, m in list(sys.modules.items()) if n.startswith("weakhopf.")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def _pipeline_input(name, tmp_path, capsys):
    """(command, path): algebroid-to-wmha of the base-m2-weighted
    algebroid file, wmha-to-algebroid of the base-m2-weighted wmha file,
    or roundtrip of the pair-3 wmha file."""
    if name == "base-m2-weighted-file":
        return "algebroid-to-wmha", _algebroid_file(tmp_path, capsys)
    if name == "base-m2-weighted-wmha":
        _algebroid_file(tmp_path, capsys)
        return "wmha-to-algebroid", str(tmp_path / "wmha.json")
    path = str(tmp_path / "pair-3.json")
    assert main(["gen-example", "pair-groupoid", "--n", "3", "--out", path]) == 0
    capsys.readouterr()
    return "roundtrip", path


@pytest.mark.parametrize("name", ["base-m2-weighted-file", "pair-3"])
def test_final_suite_reads_the_stages_comparisons(name, tmp_path, capsys, monkeypatch):
    """The final suite of a passing pipeline makes no comparison: its
    certificate, projection-formulas and kernel-subspaces read the
    comparisons the range and kernel stages left in the maps they hand
    to the rebuilt bundle."""
    command, path = _pipeline_input(name, tmp_path, capsys)
    inside, calls, suites = [], [], []
    suite = reconstruction.run_suite

    def counted(*args, **kwargs):
        calls.extend(inside)
        return first_difference(*args, **kwargs)

    def watched(bundle):
        suites.append(bundle)
        inside.append(True)
        try:
            return suite(bundle)
        finally:
            inside.pop()

    _rebind(monkeypatch, first_difference, counted)
    monkeypatch.setattr(reconstruction, "run_suite", watched)
    assert main([command, path]) == 0
    capsys.readouterr()
    assert len(suites) == 1 and suites[0].maps.certificate is not None
    assert calls == []


def test_roundtrip_scans_antipode_antimultiplicativity_once(tmp_path, capsys, monkeypatch):
    """A passing roundtrip (pair-3), algebroid-to-wmha or
    wmha-to-algebroid (base-m2-weighted) inverts S once and scans
    S(e_i e_j) = S(e_j) S(e_i) over the basis pairs of A once: the maps
    of the algebroid and of the rebuilt bundle are ``over`` the maps
    that first held S, so every later record reads that inverse and
    that scan."""
    scans, inversions = [], []
    inverse = LinMap.inverse

    def counted(alg, images, product, anti=False):
        if anti:
            scans.append(alg.dim)
        return multiplicativity(alg, images, product, anti)

    _rebind(monkeypatch, multiplicativity, counted)
    monkeypatch.setattr(LinMap, "inverse",
                        lambda self: inversions.append(self.nrows) or inverse(self))
    for name in ("pair-3", "base-m2-weighted-file", "base-m2-weighted-wmha"):
        command, path = _pipeline_input(name, tmp_path, capsys)
        d = io.parse_document(io.load(path)).dim
        scans.clear()
        inversions.clear()
        assert main([command, path]) == 0
        capsys.readouterr()
        assert scans.count(d) == 1, name
        assert inversions.count(d) == 1, name


@pytest.mark.parametrize("name", ["base-m2-weighted-file", "pair-3"])
def test_passing_pipeline_compares_only_the_suites_identities(name, tmp_path, capsys,
                                                              monkeypatch):
    """A passing algebroid-to-wmha or roundtrip makes the comparisons
    check-wmha makes, T_iR_i = Q_i and R_iT_i = P_i once each for
    i = 1..4: the range stage decides under H, the kernel stage adds
    R_iT_i = P_i, and the final suite reads both."""
    command, path = _pipeline_input(name, tmp_path, capsys)
    calls = Counter()
    compare = CanonicalMaps.first_difference

    def counted(self, which, lhs, rhs, basis=False):
        calls[lhs, rhs] += 1
        return compare(self, which, lhs, rhs, basis)

    monkeypatch.setattr(CanonicalMaps, "first_difference", counted)
    assert main([command, path]) == 0
    capsys.readouterr()
    assert calls == {("TR", "Q"): 4, ("RT", "P"): 4}


def test_e_laws_name_the_first_basis_element_of_either_family():
    """On slices whose left and right families differ, the E laws are
    E left[a] = left[a] and right[a] E = right[a]; the failure names the
    first a, here one where only the right family fails, before a later
    a where the left one does."""
    bundle = as_wmha(pair_groupoid(2))
    t2, e, d = bundle.t2, bundle.E, bundle.dim
    assert CanonicalMaps(bundle.slices, bundle.antipode, e).e_law_failure is None
    left_bad = next(unit_vec(p) for p in range(d * d) if t2.mul(e, unit_vec(p)) != unit_vec(p))
    right_bad = next(unit_vec(p) for p in range(d * d) if t2.mul(unit_vec(p), e) != unit_vec(p))
    left, right = list(bundle.delta), list(bundle.delta)
    left[3] = {**left[3], **left_bad}
    right[1] = {**right[1], **right_bad}
    maps = CanonicalMaps(CoproductSlices(t2, left, right), bundle.antipode, e)
    assert t2.mul(e, left[3]) != left[3] and t2.mul(right[1], e) != right[1]
    assert maps.e_law_failure == ("canonical-idempotent-absorbs-coproduct",
                                  {"basis": bundle.algebra.labels[1]})


def _echelon_kernel_failure(slices, which, proj):
    """None when im(id - P) = ker T_which, both echelonized afresh, else
    their dimensions."""
    n = slices.t2.size
    described = (LinMap.identity(n) - proj.map).image()
    kernel = slices.canonical_map(which).kernel()
    return None if described == kernel else (described.dim, kernel.dim)


def test_kernel_decision_keeps_the_echelon_verdict_when_s_is_singular():
    """With S singular there is no P_i of the maps' own and no R_i: the
    kernel decision raises nothing, takes the rule for P_i and for the
    map E cuts out, and gives the echelon comparison's verdict and
    dimensions."""
    bundle = as_wmha(pair_groupoid(2))
    d = bundle.dim
    singular = LinMap(d, d, [bundle.antipode.cols[0], *bundle.antipode.cols[:-1]])
    assert singular.rank() < d
    maps = CanonicalMaps(bundle.slices, singular, bundle.E)
    verdicts = []
    for i in (1, 2, 3, 4):
        for proj in (bundle.maps.projection(i), bundle.maps.projection("EL")):
            assert not maps.kernel_shortcut(i, proj)
            got = maps.kernel_failure(i, proj)
            assert got == _echelon_kernel_failure(bundle.slices, i, proj)
            verdicts.append(got is None)
    assert maps.antipode_inv is None
    assert set(verdicts) == {True, False}


def test_kernel_decision_certifies_only_the_maps_own_projection():
    """H and R_iT_i = P_i decide ker T_i = im(id - P_i) by the shortcut
    for the maps' own P_i only: another map, here the one E cuts out,
    is decided by the rule, which refuses it with the echelon
    comparison's dimensions."""
    bundle = as_wmha(pair_groupoid(2))
    maps = bundle.maps
    assert maps.certificate is not None
    other = maps.projection("EL")
    assert other is not maps.projection(1)
    assert not maps.kernel_shortcut(1, other)
    got = maps.kernel_failure(1, other)
    assert got is not None and got == _echelon_kernel_failure(bundle.slices, 1, other)
    assert maps.kernel_shortcut(1, maps.projection(1))
    assert maps.kernel_failure(1, maps.projection(1)) is None


def test_engine_objects_die_with_their_last_reference():
    """With the cycle collector off, a bundle and its ``CanonicalMaps``
    after both suites, a forward-built algebroid after its suite, and a
    reconstruction's result and rebuilt bundle are freed as soon as
    their last reference goes.  An engine object in a reference cycle
    would keep its memory until a collection."""
    def suites():
        bundle = as_wmha(pair_groupoid(2))
        assert run_suite(bundle).ok and run_base_suite(bundle)[1].ok
        return bundle, bundle.maps

    def forward():
        alg = forward_construct(as_wmha(pair_groupoid(2)))[0]
        assert check_algebroid_axioms(alg).ok
        return alg, alg.maps, alg.graph

    def rebuilt():
        got = roundtrip(as_wmha(pair_groupoid(2)))
        return got, got.bundle, got.bundle.maps

    gc.collect()
    gc.disable()
    try:
        for make in (suites, forward, rebuilt):
            refs = [weakref.ref(obj) for obj in make()]
            assert [ref() for ref in refs] == [None] * len(refs), make.__name__
    finally:
        gc.enable()
