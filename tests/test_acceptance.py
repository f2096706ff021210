"""Acceptance gate: one test per criterion, each printing a verdict line.

All comparisons are exact (tolerance zero); the runtime budgets are the
stated wall-clock limits for the work done inside the criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from weakhopf.algebra import matrix_algebra
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.base_algebras import run_base_suite
from weakhopf.examples import (mixed_algebroid, obstruction_scenario,
                               scalar_extension_wmha, swap_crossed_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.lazy import check_lazy_groupoid, lazy_pair_groupoid
from weakhopf.linalg import LinMap
from weakhopf.reconstruction import (ObstructionReport, PipelineResult,
                                     reconstruction_pipeline)
from weakhopf.reporting import PASS, PROBES
from weakhopf.separability import NotIdempotentE, build_E_from_functional
from weakhopf.wmha import WeakMultiplierHopfAlgebra, run_suite
from weakhopf.witnesses import revalidate


def _groupoid_corpus():
    z2 = cyclic_group(2)
    swap_action = {("g0", "1"): "1", ("g0", "2"): "2",
                   ("g1", "1"): "2", ("g1", "2"): "1"}
    items = [(f"pair-groupoid-{n}", pair_groupoid(n)) for n in (1, 2, 3, 4)]
    items.append(("cyclic-2", group_groupoid(z2)))
    items.append(("action-swap", action_groupoid(z2, ["1", "2"], swap_action)))
    return items


def _wmha_corpus():
    corpus = [(name, as_wmha(g)) for name, g in _groupoid_corpus()]
    idem = build_E_from_functional(matrix_algebra(2),
                                   {0: Fraction(2), 3: Fraction(2)})
    corpus.append(("base-m2-trace", scalar_extension_wmha(idem)))
    corpus.append(("crossed-swap", swap_crossed_setup()[0]))
    return corpus


@pytest.fixture(scope="module")
def wmha_corpus():
    return _wmha_corpus()


def _verdict(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_groupoid_suites():
    t0 = time.time()
    for name, g in _groupoid_corpus():
        bundle = as_wmha(g)
        suite = run_suite(bundle)
        assert suite.ok, f"{name}:\n{suite.to_text()}"
        data, base = run_base_suite(bundle)
        assert base.ok, f"{name}:\n{base.to_text()}"
        # dim B = number of units, dim E(AxA) = number of composable pairs
        assert data.b_view.dim == len(g.units), name
        assert bundle.maps.projection("EL").map.rank() == len(g.compose), name
        if name == "pair-groupoid-2":
            assert data.b_view.dim == 2
            assert bundle.maps.projection("EL").map.rank() == 8
    elapsed = time.time() - t0
    _verdict(1, elapsed < 10, f"{elapsed:.2f}s for six bundles, budget 10s")


def test_criterion_2_separability():
    t0 = time.time()
    m2 = matrix_algebra(2)
    idem = build_E_from_functional(m2, {0: Fraction(2), 3: Fraction(2)})
    assert idem.check_invariants() == []
    # (phi_B x id)E = 1 exactly
    assert idem.bc.functional_leg1(idem.phi_b, idem.e) == idem.c.unit()
    from weakhopf.algebra import make_algebra
    dual = make_algebra(["1", "x"], {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    with pytest.raises(NotIdempotentE) as info:
        build_E_from_functional(dual, {1: Fraction(1)})
    # E^2 = defect + E must equal 2 x (x) x
    ee = dict(info.value.defect)
    for k, v in {0 * 2 + 1: Fraction(1), 1 * 2 + 0: Fraction(1)}.items():
        ee[k] = ee.get(k, Fraction(0)) + v
    assert {k: v for k, v in ee.items() if v} == {1 * 2 + 1: Fraction(2)}
    elapsed = time.time() - t0
    _verdict(2, elapsed < 1, f"{elapsed:.2f}s, budget 1s")


def test_criterion_3_forward_construction(wmha_corpus):
    t0 = time.time()
    for name, bundle in wmha_corpus:
        alg, report = forward_construct(bundle)
        assert alg is not None and report.ok, f"{name}:\n{report.to_text()}"
        suite = check_algebroid_axioms(alg)
        assert suite.ok, f"{name}:\n{suite.to_text()}"
        # counital maps agree with the antipode-twisted source/target maps
        si = bundle.maps.antipode_inv
        for i in range(bundle.dim):
            from weakhopf.linalg import unit_vec
            assert alg.eps_b.apply(unit_vec(i)) == si.apply(bundle.target_value(i))
            assert alg.eps_c.apply(unit_vec(i)) == si.apply(bundle.source_value(i))
    elapsed = time.time() - t0
    _verdict(3, elapsed < 10, f"{elapsed:.2f}s for {len(wmha_corpus)} bundles, budget 10s")


def test_criterion_4_roundtrip(wmha_corpus):
    t0 = time.time()
    meta_records = []
    for name, bundle in wmha_corpus:
        alg, report = forward_construct(bundle)
        assert report.ok, name
        got = reconstruction_pipeline(alg)
        assert isinstance(got, PipelineResult), f"{name}: {got}"
        assert got.bundle.delta == bundle.delta, name
        assert got.bundle.counit == bundle.counit, name
        assert got.bundle.antipode == bundle.antipode, name
        assert got.bundle.E == bundle.E, name
        meta_records.append(_meta_record(got.report))
    elapsed = time.time() - t0
    assert all(rec.ok for rec in meta_records)
    _verdict(4, elapsed < 30, f"{elapsed:.2f}s for {len(wmha_corpus)} round trips, budget 30s")


def _meta_record(report):
    return next(r for r in report.records
                if r.name == "counit-antipode-invariance-meta")


def test_criterion_5_obstructions():
    t0 = time.time()
    meta = []
    alg, expected = obstruction_scenario("radical")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport) and got.stage == expected
    assert revalidate(got, alg), "radical witness must re-validate"

    alg, expected = obstruction_scenario("auto-swap")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport) and got.stage == expected
    assert revalidate(got, alg), "mismatch witness must re-validate"

    bundle, twist = swap_crossed_setup()
    mixed = mixed_algebroid(bundle, twist)
    got = reconstruction_pipeline(mixed)
    assert isinstance(got, ObstructionReport) and got.stage == "CounitsDiffer"
    assert revalidate(got, mixed), "counit witness must re-validate"
    meta.append(_meta_record(got.report))

    alg, expected = obstruction_scenario("auto-weighted")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, PipelineResult), "inner automorphism case must succeed"
    meta.append(_meta_record(got.report))
    assert all(rec.ok for rec in meta)
    elapsed = time.time() - t0
    _verdict(5, elapsed < 10, f"{elapsed:.2f}s, budget 10s")


def _first_failure(bundle):
    from weakhopf import wmha as w

    checks = (w.check_homomorphism, w.check_counit, w.check_E_identities,
              w.check_antipode_antihom, w.check_antipode_identities,
              w.check_coassociativity, w.check_antipode_flips_coproduct,
              w.check_generalized_inverses, w.check_projection_formulas,
              w.check_range_conditions, w.check_counit_uniqueness,
              w.check_kernel_subspaces, w.check_fullness)
    if bundle.maps.antipode_inv is None:
        return "antipode-not-bijective", {"singular": True}
    for check in checks:
        rec = check(bundle)
        if not rec.ok:
            return rec.name, rec.witness
    return None, None


def _mutate(bundle, rng):
    which = rng.choice(("delta", "antipode", "counit", "E"))
    d = bundle.dim
    delta = [dict(v) for v in bundle.delta]
    counit = dict(bundle.counit)
    cols = [dict(c) for c in bundle.antipode.cols]
    e = dict(bundle.E)
    if which == "delta":
        a = rng.randrange(d)
        idx = rng.randrange(d * d)
        delta[a][idx] = delta[a].get(idx, Fraction(0)) + 1
    elif which == "antipode":
        j = rng.randrange(d)
        i = rng.randrange(d)
        cols[j][i] = cols[j].get(i, Fraction(0)) + 1
    elif which == "counit":
        i = rng.randrange(d)
        counit[i] = counit.get(i, Fraction(0)) + 1
    else:
        idx = rng.randrange(d * d)
        e[idx] = e.get(idx, Fraction(0)) + 1
    mutated = WeakMultiplierHopfAlgebra(
        bundle.algebra, delta, counit,
        LinMap(d, d, cols), e)
    return which, mutated


def test_criterion_6_mutation_sensitivity(wmha_corpus):
    rng = random.Random(20260810)
    total = 0
    for name, bundle in wmha_corpus:
        for k in range(20):
            which, mutated = _mutate(bundle, rng)
            fail_name, witness = _first_failure(mutated)
            assert fail_name is not None, (
                f"{name}: mutation #{k} of {which} escaped the suite")
            assert witness is not None or fail_name == "antipode-not-bijective"
            total += 1
    _verdict(6, True, f"{total} mutations all caught")


def test_criterion_7_meta_identity(wmha_corpus):
    # collected on every pipeline run of criteria 4 and 5; rerun two
    # representative pipelines here so the criterion stands alone
    runs = []
    alg, _ = forward_construct(as_wmha(pair_groupoid(2)))
    runs.append(reconstruction_pipeline(alg))
    bundle, twist = swap_crossed_setup()
    runs.append(reconstruction_pipeline(mixed_algebroid(bundle, twist)))
    for got in runs:
        report = got.report
        rec = _meta_record(report)
        assert rec.ok, rec
        transport = [r for r in report.records if r.name == "counit-antipode-transport"]
        assert not transport or all(r.ok for r in transport)
    _verdict(7, True, "eps = eps' holds exactly when eps is antipode-invariant")


def test_criterion_8_lazy_honesty():
    g = lazy_pair_groupoid(6)
    report = check_lazy_groupoid(g)
    assert report.ok, report.to_text()
    statuses = {r.name: r.status for r in report.records}
    element_level = ["elements-pointwise-products", "counit-laws-on-elements",
                     "antipode-involution", "antipode-antihomomorphism",
                     "antipode-triple-product", "source-map-values"]
    multiplier_level = ["idempotent-squared", "idempotent-absorbs-coproduct",
                        "coproduct-homomorphism", "coproduct-coassociativity",
                        "idempotent-comultiplicative"]
    for name in element_level:
        assert statuses[name] == PASS, name
    for name in multiplier_level:
        assert statuses[name] == PROBES, name
        assert statuses[name] != PASS
    _verdict(8, True, "multiplier-level checks report verified-on-probes")
