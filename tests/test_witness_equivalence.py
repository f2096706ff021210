"""Every check names the witness a plain nested loop would name.

The wmha and reconstruction suites decide coassociativity and the
comultiplicativity of E by comparing elements of A (x) A (x) A, and the
algebroid suite its coassociativity and compatibility by comparing them
in a triple balanced space; all of them only scan basis covers to name
the first failing triple.  The reference loops below are the covered
forms themselves, written out plainly, so those tests compare the
engine's witness with the first failure a full covered loop finds.

The basis-indexed checks go through ``first_failure``: the
first basis tuple in lexicographic order, then the first law failing
there.  Their references are the nested loops the checks were written
as before, and the tests compare whole records over single-entry
mutants.  Every failed record (but ``ambient-local-units``) names a
witness, and the law it names fails there when evaluated directly.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from test_balanced import _path_rule_algebroids, _section_path_algebroids

from weakhopf import algebroid, io
from weakhopf.algebra import (PROJECTION_FLAGS, AlgebraError, FiniteAlgebra, NonAssociative,
                              Projection, TensorSquare, direct_sum, field_algebra, first_failure,
                              matrix_algebra, tensor_algebra)
from weakhopf.algebroid import (MultiplierHopfAlgebroid, NotBijective, QuantumGraphPair,
                                check_algebroid_axioms, check_algebroid_coassociativity,
                                check_algebroid_homomorphism, check_antipode_diagrams,
                                check_antipode_structure, check_base_behavior,
                                check_canonical_maps, check_compatibility, check_counital_maps,
                                check_regularity, forward_construct)
from weakhopf.base_algebras import (SubalgebraView, first_anti_homomorphism_failure,
                                    run_base_suite)
from weakhopf.balanced import TripleQuotient, relation_space
from weakhopf.examples import mixed_algebroid, scalar_extension_wmha, swap_crossed_setup
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group, group_groupoid,
                                pair_groupoid)
from weakhopf.linalg import LinMap, Subspace, lincomb, solve, unit_vec, vaxpy, vsub, vtensor
from weakhopf.reconstruction import (STAGE_COUNITS_DIFFER, ObstructionReport, PipelineResult,
                                     RebuiltCoproducts, build_delta, check_E_comultiplicativity,
                                     check_kernels, check_mixed_coassociativity,
                                     check_ranges_and_fullness, check_separability_assumption,
                                     embed_idempotent, reconstruction_pipeline)
from weakhopf.reporting import CheckRecord, Report, failed, passed
from weakhopf.separability import build_E_from_functional
from weakhopf.slices import T_COVERS, CoproductSlices
from weakhopf.witnesses import revalidate
from weakhopf.wmha import (TWISTS, CanonicalMaps, WeakMultiplierHopfAlgebra,
                           check_antipode_antihom, check_antipode_flips_coproduct,
                           check_antipode_identities,
                           check_coassociativity, check_counit, check_E_identities,
                           check_fullness,
                           check_generalized_inverses, check_homomorphism,
                           check_kernel_subspaces, check_projection_formulas,
                           check_range_conditions, run_suite)


# -- covered reference loops -----------------------------------------------

def _cover(t2, x, y_left, y_mid, y_right, left):
    """(y_left (x) y_mid (x) y_right) x or x (y_left (x) y_mid (x) y_right)
    for x in A (x) A (x) A, by way of the tensor square of A (x) A and A."""
    d = t2.dim
    out = {}
    for p, c in x.items():
        i, rest = divmod(p, d * d)
        j, k = divmod(rest, d)
        legs = []
        for leg, y in ((i, y_left), (j, y_mid), (k, y_right)):
            legs.append(t2.algebra.mul(y, unit_vec(leg)) if left
                        else t2.algebra.mul(unit_vec(leg), y))
        for q1, c1 in legs[0].items():
            for q2, c2 in legs[1].items():
                for q3, c3 in legs[2].items():
                    key = (q1 * d + q2) * d + q3
                    out[key] = out.get(key, Fraction(0)) + c * c1 * c2 * c3
    return {k: c for k, c in out.items() if c}


def reference_coassociativity(bundle):
    """First (a, b, c) in the loop order b, c, a at which
    (a(x)1(x)1)(Delta(x)id)(Delta(b)(1(x)c)) and
    (id(x)Delta)((a(x)1)Delta(b))(1(x)1(x)c) differ; no cover is skipped."""
    t2, d, sl = bundle.t2, bundle.dim, bundle.slices
    for b in range(d):
        for c in range(d):
            for a in range(d):
                lhs = t2.expand_leg1(sl.r2(b, c), lambda u: sl.l1(u, a))
                rhs = t2.expand_leg2(sl.l1(b, a), lambda v: sl.r2(v, c))
                if lhs != rhs:
                    return [bundle.algebra.labels[i] for i in (a, b, c)]
    return None


def reference_E_comultiplicative(bundle):
    """(Delta (x) id)E, (id (x) Delta)E and (E (x) 1)(1 (x) E), each
    covered on the right by every basis triple."""
    t2, d, e = bundle.t2, bundle.dim, bundle.E
    lhs = t2.expand_leg1(e, lambda j: bundle.delta[j])
    mid = t2.expand_leg2(e, lambda k: bundle.delta[k])
    for u in range(d):
        for v in range(d):
            for w in range(d):
                eu, ev, ew = unit_vec(u), unit_vec(v), unit_vec(w)
                # (E (x) 1)(e_u (x) E(e_v (x) e_w))
                inner = t2.mul(e, vtensor(ev, ew, d))
                rhs = {}
                for p, c in inner.items():
                    j, k = divmod(p, d)
                    for q, x in vtensor(t2.mul(e, vtensor(eu, unit_vec(j), d)),
                                        unit_vec(k), d).items():
                        rhs[q] = rhs.get(q, Fraction(0)) + c * x
                rhs = {q: x for q, x in rhs.items() if x}
                for side, x in (("delta-leg1", lhs), ("delta-leg2", mid)):
                    if _cover(t2, x, eu, ev, ew, left=False) != rhs:
                        return {"triple": [bundle.algebra.labels[i] for i in (u, v, w)],
                                "side": side}
    return None


def reference_coassociativity_failure(cops, equations):
    """First (a, b, c, k) at which equation k = (outer, inner) of slice
    kinds fails in its covered form, looping over a, b, c, then k."""
    t2, d = cops.t2, cops.t2.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for k, (outer, inner) in enumerate(equations):
                    outer_s, inner_s = getattr(cops, outer), getattr(cops, inner)
                    lhs = t2.expand_leg1(outer_s(a, b), lambda u: inner_s(u, c))
                    rhs = t2.expand_leg2(inner_s(a, c), lambda v: outer_s(v, b))
                    if lhs != rhs:
                        return a, b, c, k
    return None


def _e_products(t2, e):
    """(E (x) 1)(1 (x) E) and (1 (x) E)(E (x) 1), summed term by term."""
    d = t2.dim
    e_then_e, e_after_e = {}, {}
    for p, c in e.items():
        for q, x in e.items():
            (j, k), (m, n) = divmod(p, d), divmod(q, d)
            # (E (x) 1)(1 (x) E) has terms e_j (x) e_k e_m (x) e_n
            for r, y in t2.algebra.mul_basis(k, m).items():
                key = (j * d + r) * d + n
                e_then_e[key] = e_then_e.get(key, Fraction(0)) + c * x * y
            # (1 (x) E)(E (x) 1) has terms e_m (x) e_j e_n (x) e_k
            for r, y in t2.algebra.mul_basis(j, n).items():
                key = (m * d + r) * d + k
                e_after_e[key] = e_after_e.get(key, Fraction(0)) + c * x * y
    return {k: v for k, v in e_then_e.items() if v}, {k: v for k, v in e_after_e.items() if v}


def reference_rebuilt_E(cops, e):
    """(id (x) Delta)E against (E (x) 1)(1 (x) E) covered on the right,
    then (id (x) Delta')E against the same covered on the left, for
    every basis triple."""
    t2, d = cops.t2, cops.t2.dim
    mid = t2.expand_leg2(e, lambda k: cops.left[k])
    mid_prime = t2.expand_leg2(e, lambda k: cops.right[k])
    e_then_e = _e_products(t2, e)[0]
    for u in range(d):
        for v in range(d):
            for w in range(d):
                eu, ev, ew = unit_vec(u), unit_vec(v), unit_vec(w)
                for left, side, x in ((False, "left-covered", mid),
                                      (True, "right-covered", mid_prime)):
                    if _cover(t2, x, eu, ev, ew, left) != _cover(t2, e_then_e, eu, ev, ew, left):
                        return {"triple": [u, v, w], "side": side}
    return None


# -- wmha ------------------------------------------------------------------

def _with_delta(bundle, delta):
    return WeakMultiplierHopfAlgebra(bundle.algebra, delta, bundle.counit,
                                     bundle.antipode, bundle.E)


def _delta_mutants(bundle, shifts=(Fraction(1), Fraction(-1))):
    d = bundle.dim
    for a in range(d):
        for p in range(d * d):
            for shift in shifts:
                delta = [dict(v) for v in bundle.delta]
                delta[a][p] = delta[a].get(p, Fraction(0)) + shift
                if not delta[a][p]:
                    del delta[a][p]
                yield _with_delta(bundle, delta)


def test_coassociativity_checks_covers_where_the_slice_vanishes():
    """Delta(b)(1 (x) c) = 0 at the first failing covered triple, yet the
    other side of the covered identity does not vanish there."""
    bundle = as_wmha(pair_groupoid(4))
    delta = [dict(v) for v in bundle.delta]
    delta[11][11 * 16 + 14] = delta[11].get(11 * 16 + 14, Fraction(0)) - 1
    bad = _with_delta(bundle, delta)
    expected = reference_coassociativity(bad)
    assert expected == ["(1,3)", "(1,4)", "(4,3)"]
    labels = bad.algebra.labels
    b, c = labels.index(expected[1]), labels.index(expected[2])
    assert bad.slices.r2(b, c) == {}
    rec = check_coassociativity(bad)
    assert not rec.ok
    assert rec.witness == {"triple": expected}


@pytest.mark.parametrize("n", [2, 3])
def test_coassociativity_witness_matches_covered_scan(n):
    for bad in _delta_mutants(as_wmha(pair_groupoid(n))):
        expected = reference_coassociativity(bad)
        rec = check_coassociativity(bad)
        assert rec.ok == (expected is None)
        if expected is not None:
            assert rec.witness == {"triple": expected}


def test_E_comultiplicativity_witness_matches_covered_scan():
    seen = 0
    for bad in _delta_mutants(as_wmha(pair_groupoid(2))):
        rec = check_E_identities(bad)
        if rec.name != "canonical-idempotent-comultiplicative":
            continue
        seen += 1
        assert rec.witness == reference_E_comultiplicative(bad)
    assert seen


# -- reconstruction --------------------------------------------------------

@pytest.fixture(scope="module", params=["pair-2", "crossed-swap"])
def rebuilt(request):
    """The rebuilt coproducts of a commutative and of a noncommutative
    (d = 8) forward algebroid, where left and right covers differ."""
    if request.param == "pair-2":
        bundle = as_wmha(pair_groupoid(2))
    else:
        bundle = swap_crossed_setup()[0]
    alg, report = forward_construct(bundle)
    assert report.ok
    return alg, bundle.E, build_delta(alg, bundle.E)


def _corrupted(alg, honest, count):
    """Rebuilt coproducts with one entry of Delta or Delta-prime raised
    by 1, for about `count` coproduct values times `count` coordinates
    spread over each family."""
    d = alg.dim
    for side in ("left", "right"):
        for a in range(0, d, max(1, d // count)):
            for p in range(0, d * d, max(1, d * d // count)):
                left, right = list(honest.left), list(honest.right)
                family = left if side == "left" else right
                family[a] = dict(family[a])
                family[a][p] = family[a].get(p, Fraction(0)) + 1
                if not family[a][p]:
                    del family[a][p]
                yield RebuiltCoproducts(alg.t2, left, right)


def test_rebuilt_E_comultiplicativity_witness_matches_covered_scan(rebuilt):
    """Corrupted coproducts with the honest E, then the honest coproducts
    with one entry of E raised."""
    alg, e, honest = rebuilt
    d = alg.dim
    cases = [(cops, e) for cops in _corrupted(alg, honest, 3)]
    for p in range(0, d * d, max(1, d * d // 6)):
        cases.append((honest, {**e, p: e.get(p, Fraction(0)) + 1}))
    sides = set()
    for cops, idem in cases:
        report = Report("corrupted")
        ok = check_E_comultiplicativity(alg, cops, idem, report)
        expected = reference_rebuilt_E(cops, idem)
        assert ok == (expected is None)
        if not ok:
            sides.add(expected["side"])
            assert report.records[-1].witness == expected
    assert sides == {"left-covered", "right-covered"}


def test_rebuilt_coassociativity_witnesses_match_covered_scan(rebuilt):
    alg, _, honest = rebuilt
    failures = 0
    for cops in _corrupted(alg, honest, 4):
        # the decision build_delta makes on its rebuilt coproducts
        got = cops.first_coassociativity_failure([("r2", "r1"), ("l2", "l1")])
        assert got == reference_coassociativity_failure(cops, [("r2", "r1"), ("l2", "l1")])
        failures += got is not None
        report = Report("corrupted")
        expected = reference_coassociativity_failure(cops, [("r2", "l1"), ("l2", "r1")])
        assert check_mixed_coassociativity(alg, cops, report) == (expected is None)
        if expected is not None:
            a, b, c, k = expected
            assert report.records[-1].witness == {"equation": ("first", "second")[k],
                                                  "triple": [a, b, c]}
    assert failures


# -- pair-indexed scans ----------------------------------------------------
#
# The checks below name the first basis pair (or triple) in lexicographic
# order, then the first law failing there.  The references are the plain
# nested loops each check used to be written as.

def _labels(alg, *index):
    return [alg.labels[i] for i in index]


def ref_homomorphism(bundle):
    alg, t2 = bundle.algebra, bundle.t2
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = bundle.delta_of(alg.mul_basis(i, j))
            rhs = t2.mul(bundle.delta[i], bundle.delta[j])
            if lhs != rhs:
                return failed("coproduct-homomorphism",
                              {"pair": _labels(alg, i, j), "lhs": lhs, "rhs": rhs})
    return passed("coproduct-homomorphism")


def ref_counit(bundle):
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    for a in range(d):
        for b in range(d):
            lhs = t2.functional_leg1(bundle.counit, bundle.slices.r2(a, b))
            ab = alg.mul_basis(a, b)
            if lhs != ab:
                return failed("counit-left-law",
                              {"pair": _labels(alg, a, b), "lhs": lhs, "rhs": ab})
            rhs = t2.functional_leg2(bundle.counit, bundle.slices.l1(b, a))
            if rhs != ab:
                return failed("counit-right-law",
                              {"pair": _labels(alg, a, b), "lhs": rhs, "rhs": ab})
    return passed("counit-laws")


def ref_antipode_identities(bundle):
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    s, si = bundle.maps.antipode_pair()
    target_map = LinMap(d, d, [bundle.target_value(j) for j in range(d)])
    source_map = LinMap(d, d, [bundle.source_value(j) for j in range(d)])
    for a in range(d):
        for b in range(d):
            eb = unit_vec(b)
            acc = t2.mul_map(t2.map_leg1(target_map, bundle.slices.r2(a, b)))
            ab = alg.mul_basis(a, b)
            if acc != ab:
                return failed("antipode-triple-product-first",
                              {"pair": _labels(alg, a, b), "lhs": acc, "rhs": ab})
            y = t2.mul_left_leg2(si.apply(eb), bundle.delta[a])
            acc2 = t2.mul_map(t2.map_leg1(source_map, t2.map_leg2(s, y)))
            sab = alg.mul(s.apply(unit_vec(a)), eb)
            if acc2 != sab:
                return failed("antipode-triple-product-second",
                              {"pair": _labels(alg, a, b), "lhs": acc2, "rhs": sab})
    return passed("antipode-triple-products")


def _first_antihom_pair(s, source, target):
    for i in range(source.dim):
        for j in range(source.dim):
            if s.apply(source.mul_basis(i, j)) != target.mul(s.apply(unit_vec(j)),
                                                              s.apply(unit_vec(i))):
                return i, j
    return None


def ref_antipode_antihom(bundle):
    alg = bundle.algebra
    bad = _first_antihom_pair(bundle.antipode, alg, alg)
    if bad is not None:
        return failed("antipode-antihomomorphism", {"pair": _labels(alg, *bad)})
    return passed("antipode-antihomomorphism")


def ref_antipode_flips_coproduct(bundle):
    t2, d, s = bundle.t2, bundle.dim, bundle.antipode
    for a in range(d):
        lhs = bundle.delta_of(s.apply(unit_vec(a)))
        rhs = t2.map_leg1(s, t2.map_leg2(s, t2.flip(bundle.delta[a])))
        if lhs != rhs:
            return failed("antipode-flips-coproduct",
                          {"basis": bundle.algebra.labels[a], "lhs": lhs, "rhs": rhs})
    return passed("antipode-flips-coproduct")


def ref_E_absorption(bundle):
    """The first failure of E^2 = E and of E Delta(a) = Delta(a) =
    Delta(a) E, which check_E_identities tests before comultiplicativity;
    None when they hold."""
    t2, d, e = bundle.t2, bundle.dim, bundle.E
    if t2.mul(e, e) != e:
        return failed("canonical-idempotent-squared", {"EE": t2.mul(e, e), "E": e})
    for a in range(d):
        da = bundle.delta[a]
        if t2.mul(e, da) != da or t2.mul(da, e) != da:
            return failed("canonical-idempotent-absorbs-coproduct",
                          {"basis": bundle.algebra.labels[a]})
    return None


def _outcome(check, *args):
    """A check's record as a dict, or the exception it raised."""
    try:
        return check(*args).to_dict()
    except (AlgebraError, ValueError) as exc:
        return type(exc).__name__


def _shifted(v, p, shift):
    out = dict(v)
    out[p] = out.get(p, Fraction(0)) + shift
    if not out[p]:
        del out[p]
    return out


def _map_mutants(m):
    """Every copy of a LinMap with one entry moved by +1 or -1."""
    for j in range(m.ncols):
        for i in range(m.nrows):
            for shift in (1, -1):
                cols = list(m.cols)
                cols[j] = _shifted(cols[j], i, shift)
                yield LinMap(m.nrows, m.ncols, cols)


def _bundle_mutants(bundle):
    """Every single-entry +1 / -1 mutant of Delta, the counit and S, with
    the checks that read the mutated tensor; the others see the honest
    bundle."""
    reads_delta = [(check_homomorphism, ref_homomorphism), (check_counit, ref_counit),
                   (check_antipode_flips_coproduct, ref_antipode_flips_coproduct),
                   (check_antipode_identities, ref_antipode_identities)]
    for bad in _delta_mutants(bundle):
        yield bad, reads_delta
    for a in range(bundle.dim):
        for shift in (1, -1):
            yield WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta,
                                            _shifted(bundle.counit, a, shift),
                                            bundle.antipode, bundle.E), [(check_counit, ref_counit)]
    for s in _map_mutants(bundle.antipode):
        yield WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit, s,
                                        bundle.E), [
            (check_antipode_antihom, ref_antipode_antihom),
            (check_antipode_flips_coproduct, ref_antipode_flips_coproduct),
            (check_antipode_identities, ref_antipode_identities)]


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_wmha_pair_scans_match_nested_loops(name):
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    failures = Counter()
    for bad, checks in _bundle_mutants(bundle):
        for check, reference in checks:
            got = _outcome(check, bad)
            assert got == _outcome(reference, bad)
            if isinstance(got, dict) and got["status"] != "pass":
                failures[got["check"]] += 1
    assert set(failures) == {"coproduct-homomorphism", "counit-left-law", "counit-right-law",
                             "antipode-triple-product-first",
                             "antipode-triple-product-second", "antipode-antihomomorphism",
                             "antipode-flips-coproduct"}


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_E_absorption_matches_nested_loop(name):
    """Over the Delta and E mutants, check_E_identities names the record
    and basis element the nested loop names, or gets past both tests."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    e_mutants = (WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit,
                                           bundle.antipode, _shifted(bundle.E, p, shift))
                 for p in range(bundle.dim ** 2) for shift in (1, -1))
    failures = Counter()
    for bad in itertools.chain(_delta_mutants(bundle), e_mutants):
        got, expected = check_E_identities(bad), ref_E_absorption(bad)
        if expected is None:
            assert got.name not in ("canonical-idempotent-squared",
                                    "canonical-idempotent-absorbs-coproduct")
        else:
            assert got.to_dict() == expected.to_dict()
            failures[got.name] += 1
    assert set(failures) == {"canonical-idempotent-squared",
                             "canonical-idempotent-absorbs-coproduct"}


def test_pair_comes_before_law():
    """A counit mutant of pair-2 whose left law fails only at a later pair
    than its right law: the record names the right law at the earlier pair."""
    bundle = as_wmha(pair_groupoid(2))
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    seen = 0
    for a in range(d):
        for shift in (1, -1):
            bad = WeakMultiplierHopfAlgebra(alg, bundle.delta, _shifted(bundle.counit, a, shift),
                                            bundle.antipode, bundle.E)
            sl = bad.slices
            pairs = [(i, j) for i in range(d) for j in range(d)]
            left = [p for p in pairs
                    if t2.functional_leg1(bad.counit, sl.r2(*p)) != alg.mul_basis(*p)]
            right = [p for p in pairs
                     if t2.functional_leg2(bad.counit, sl.l1(p[1], p[0])) != alg.mul_basis(*p)]
            if left and right and right[0] < left[0]:
                seen += 1
                rec = check_counit(bad)
                assert rec.name == "counit-right-law"
                assert rec.witness["pair"] == _labels(alg, *right[0])
    assert seen


# -- unital reductions ------------------------------------------------------
# The counit, antipode, counit-uniqueness and fullness laws are decided on
# the d generators, and the E laws by E = Delta(1); pairs are scanned only
# where the generators fail.  The references are today's scans over every
# basis pair.

def ref_fullness(bundle):
    """Both leg spans over every cover Delta(a)(1 (x) b), resp.
    (a (x) 1)Delta(b)."""
    t2, d = bundle.t2, bundle.dim
    left, right = Subspace(d), Subspace(d)
    for a in range(d):
        for b in range(d):
            for vec in t2.leg_vectors(t2.mul_right_leg2(bundle.delta[a], unit_vec(b)), 1).values():
                left.insert(vec)
            for vec in t2.leg_vectors(t2.mul_left_leg1(unit_vec(a), bundle.delta[b]), 2).values():
                right.insert(vec)
    if left.dim != d:
        return failed("coproduct-fullness", {"leg": "first", "span_dim": left.dim})
    if right.dim != d:
        return failed("coproduct-fullness", {"leg": "second", "span_dim": right.dim})
    return passed("coproduct-fullness")


def ref_counit_uniqueness(bundle):
    """The functionals f with (f (x) id)(Delta(a)(1 (x) b)) = ab and
    (id (x) f)((a (x) 1)Delta(b)) = ab: 2 d^2 vector equations."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    rows, rhs = [], {}
    for a in range(d):
        for b in range(d):
            ab = alg.mul_basis(a, b)
            for x, leg in ((t2.mul_right_leg2(bundle.delta[a], unit_vec(b)), 1),
                           (t2.mul_left_leg1(unit_vec(a), bundle.delta[b]), 2)):
                coeffs = t2.leg_vectors(x, leg)
                for k in range(d):
                    rows.append(coeffs.get(k, {}))
                    if ab.get(k):
                        rhs[len(rows) - 1] = ab[k]
    system = LinMap.from_rows(d, rows)
    sol = solve(system, rhs)
    if sol is None:
        return failed("counit-uniqueness", {"error": "no functional satisfies the laws"})
    hom = system.kernel()
    if hom.dim:
        return failed("counit-uniqueness",
                      {"degrees_of_freedom": hom.dim, "direction": hom.rows[0]})
    if sol != bundle.counit:
        return failed("counit-uniqueness", {"solved": sol, "stored": bundle.counit})
    return passed("counit-uniqueness")


def ref_E_identities(bundle):
    """The E record with E^2 = E and the absorption laws scanned."""
    return ref_E_absorption(bundle) or check_E_identities(bundle)


# report position -> the reference of that record in ``run_suite``
REDUCED_RECORDS = {3: ref_fullness, 4: ref_counit, 5: ref_counit_uniqueness,
                   6: ref_E_identities, 11: ref_antipode_identities}


def _wmha_reduction_mutants(bundle):
    """The honest bundle and every single-entry +1 / -1 mutant of Delta,
    the counit, S and E."""
    yield bundle
    yield from _base_mutants(bundle)
    for a in range(bundle.dim):
        for shift in (1, -1):
            yield WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta,
                                            _shifted(bundle.counit, a, shift),
                                            bundle.antipode, bundle.E)


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_unital_reductions_match_pair_scans_on_every_mutant(name):
    """Over every +1 / -1 mutant of Delta, eps, S and E, the five reduced
    records of ``run_suite`` equal today's pair scans, status and
    witness.  The sweep fails each record, reaches the second
    triple-product law with S not anti-multiplicative, and takes
    E = Delta(1)."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    failures, paths = Counter(), Counter()
    for bad in _wmha_reduction_mutants(bundle):
        records = run_suite(bad).records
        fresh = WeakMultiplierHopfAlgebra(bad.algebra, bad.delta, bad.counit, bad.antipode,
                                          bad.E)
        for at, reference in REDUCED_RECORDS.items():
            if at < len(records):
                assert records[at].to_dict() == reference(fresh).to_dict(), records[at].name
                if records[at].status != "pass":
                    failures[records[at].name] += 1
        if len(records) > 11 and bad.maps.antihom_failure is not None:
            paths["second law scanned in full"] += 1
        if records[1].status == "pass" and bad.delta_of(bad.algebra.unit()) == bad.E:
            paths["E = Delta(1)"] += 1
    assert {"counit-left-law", "counit-right-law", "counit-uniqueness",
            "canonical-idempotent-squared", "canonical-idempotent-absorbs-coproduct",
            "antipode-triple-product-first", "antipode-triple-product-second"} <= set(failures)
    assert set(paths) == {"second law scanned in full", "E = Delta(1)"}, paths


def test_fullness_fails_where_a_leg_span_is_short():
    """A coproduct whose first legs span a proper subspace fails fullness
    with the span dimension of every cover."""
    bundle = as_wmha(pair_groupoid(2))
    # project the second basis element out of every first leg
    d = bundle.dim
    short = [{p: c for p, c in v.items() if p // d != 1} for v in bundle.delta]
    bad = _with_delta(bundle, short)
    assert check_fullness(bad).to_dict() == ref_fullness(bad).to_dict()
    assert check_fullness(bad).witness == {"leg": "first", "span_dim": d - 1}


def _counted_pair_laws(module, monkeypatch, counts):
    """Wrap module's ``first_failure`` so that counts[caller] gains one
    for each law evaluated at a basis pair."""
    scan = module.first_failure

    def counting(shape, laws, live=None):
        caller = sys._getframe(1).f_code.co_name
        if len(shape) == 2:
            laws = [(lambda *index, lhs=lhs: counts.update([caller]) or lhs(*index), *rest)
                    for lhs, *rest in laws]
        return scan(shape, laws, live)

    monkeypatch.setattr(module, "first_failure", counting)


def test_passing_suites_form_no_pair_indexed_value(monkeypatch):
    """check-wmha on pair-3 forms no slice and evaluates no law at a
    basis pair for fullness, the counit laws, counit uniqueness and the
    triple products, and no E-law product; the forward-built algebroid's
    counit and antipode diagrams evaluate none either."""
    from weakhopf import wmha
    counts, slices, products = Counter(), Counter(), Counter()
    current = [None]
    cut, mul = CoproductSlices._slice, TensorSquare.mul
    monkeypatch.setattr(CoproductSlices, "_slice", lambda self, *key: (
        slices.update([current[0]]), cut(self, *key))[1])
    monkeypatch.setattr(TensorSquare, "mul", lambda self, x, y: (
        products.update([current[0]]), mul(self, x, y))[1])
    _counted_pair_laws(wmha, monkeypatch, counts)
    _counted_pair_laws(algebroid, monkeypatch, counts)
    reduced = {"check_fullness", "check_counit", "check_counit_uniqueness",
               "check_E_identities", "check_antipode_identities",
               "check_counital_maps", "check_antipode_diagrams"}
    for module in (wmha, algebroid):
        for name in reduced & set(vars(module)):
            def watched(*args, check=getattr(module, name), name=name):
                current[0] = name
                try:
                    return check(*args)
                finally:
                    current[0] = None
            monkeypatch.setattr(module, name, watched)
    bundle = as_wmha(pair_groupoid(3))
    assert run_suite(bundle).ok
    assert check_algebroid_axioms(forward_construct(bundle)[0]).ok
    assert {name: counts[name] + slices[name] + products[name] for name in reduced} == \
        dict.fromkeys(reduced, 0)
    assert counts["check_homomorphism"] == bundle.dim ** 2      # the counter counts


# -- base suite -------------------------------------------------------------

def ref_base_records(bundle) -> dict[str, dict]:
    """The base suite's E-identity, module-relation and characterization
    records, computed with the unit-padded products, e.g. E(b (x) 1) as
    E * (b (x) 1), and nested loops over the side (B, then C), the base
    element[, the basis element of A] and the law."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    unit, s, e = alg.unit(), bundle.antipode, bundle.E
    sources = [bundle.source_value(i) for i in range(d)]
    targets = [bundle.target_value(i) for i in range(d)]
    b_view, c_view = SubalgebraView(alg, sources, "B"), SubalgebraView(alg, targets, "C")

    def antipodal():
        for side, elements in enumerate((b_view.basis, c_view.basis)):
            for x in elements:
                if side == 0:
                    holds = (t2.mul(e, vtensor(x, unit, d))
                             == t2.mul(e, vtensor(unit, s.apply(x), d)))
                else:
                    holds = (t2.mul(vtensor(unit, x, d), e)
                             == t2.mul(vtensor(s.apply(x), unit, d), e))
                if not holds:
                    return {"side": "BC"[side], "element": x}
        return None

    def integrals():
        for side, elements in enumerate((b_view.basis, c_view.basis)):
            for x in elements:
                if side == 0:
                    got = t2.mul_map(t2.map_leg2(s, t2.mul(vtensor(x, unit, d), e)))
                else:
                    got = t2.mul_map(t2.map_leg1(s, t2.mul(e, vtensor(unit, x, d))))
                if got != x:
                    return {"side": "BC"[side], "element": x}
        return None

    def module():
        for side, elements in enumerate((b_view.basis, c_view.basis)):
            for x in elements:
                for a in range(d):
                    ea = unit_vec(a)
                    source = lincomb(alg.mul(ea, x), sources)
                    target = lincomb(alg.mul(x, ea), targets)
                    if side == 0:
                        laws = ((source, alg.mul(sources[a], x)),
                                (target, alg.mul(targets[a], s.apply(x))))
                    else:
                        laws = ((source, alg.mul(s.apply(x), sources[a])),
                                (target, alg.mul(x, targets[a])))
                    for k, (lhs, rhs) in enumerate(laws):
                        if lhs != rhs:
                            return {"side": "BC"[side], "element": x,
                                    "basis": alg.labels[a], "map": ("source", "target")[k]}
        return None

    a_s = LinMap(d * d, d, [vsub(bundle.delta_of(unit_vec(j)),
                                 t2.mul(e, vtensor(unit, unit_vec(j), d)))
                            for j in range(d)]).kernel()
    a_t = LinMap(d * d, d, [vsub(bundle.delta_of(unit_vec(j)),
                                 t2.mul(vtensor(unit_vec(j), unit, d), e))
                            for j in range(d)]).kernel()
    if a_s != b_view.subspace:
        char = failed("source-target-characterizations",
                      {"algebra": "A_s", "solved_dim": a_s.dim, "B_dim": b_view.dim})
    elif a_t != c_view.subspace:
        char = failed("source-target-characterizations",
                      {"algebra": "A_t", "solved_dim": a_t.dim, "C_dim": c_view.dim})
    else:
        char = passed("source-target-characterizations")
    records = [passed(name) if witness is None else failed(name, witness)
               for name, witness in (("idempotent-antipodal-maps", antipodal()),
                                     ("idempotent-covered-integrals", integrals()),
                                     ("source-target-module-relations", module()))]
    return {r.name: r.to_dict() for r in records + [char]}


def ref_kernel_subspaces(bundle):
    """im(id - P_i) against ker T_i, both echelonized afresh: the
    subspace comparison no kernel decision makes any more."""
    n = bundle.t2.size
    for i in (1, 2, 3, 4):
        described = (LinMap.identity(n) - bundle.maps.projection(i).map).image()
        kernel = bundle.slices.canonical_map(i).kernel()
        if described != kernel:
            return failed("kernel-subspaces",
                          {"map": f"T{i}", "described_dim": described.dim,
                           "kernel_dim": kernel.dim})
    return passed("kernel-subspaces")


def _kernel_routes(bundle):
    """How ``CanonicalMaps.kernel_failure`` decides each T_i that
    ``check_kernel_subspaces`` reaches: "shortcut", "rule passes" or the
    rule failing "on T P" (equal dimensions) or "on dimension", with
    "complement" added where P(x) != x, so rank(id - P) is read off the
    echelon form of im(id - P)."""
    maps, routes = bundle.maps, []
    for i in (1, 2, 3, 4):
        proj = maps.projection(i)
        if maps.kernel_shortcut(i, proj):
            routes.append("shortcut")
            continue
        bad = maps.kernel_failure(i, proj)
        routes.append("rule passes" if bad is None else
                      "rule fails on T P" if bad[0] == bad[1] else "rule fails on dimension")
        if proj.apply(proj.cut[1]) != proj.cut[1]:
            routes.append("complement")
        if bad is not None:
            break
    return routes


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_kernel_certificate_matches_echelon_comparison(name):
    """Over the honest bundle and every single-entry +1 / -1 mutant of
    Delta, S and E, the kernel check gives the record of the echelon
    comparison, witness dimensions included, or raises as it does when
    S is singular; the sweep reaches the shortcut, the rule passing,
    failing on T P = T and failing on dimension, and the complement's
    echelon form."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    routes = Counter()
    for bad in itertools.chain([bundle], _base_mutants(bundle)):
        got = _outcome(check_kernel_subspaces, bad)
        assert got == _outcome(ref_kernel_subspaces, bad)
        if bad.maps.antipode_inv is not None:
            routes.update(_kernel_routes(bad))
    assert set(routes) == {"shortcut", "rule passes", "rule fails on T P",
                           "rule fails on dimension", "complement"}, routes


# -- the projector certificate -------------------------------------------

def ref_range_conditions(bundle):
    """The range check without the certificate: im T_i and the ranges
    of E, each echelonized."""
    left_range = bundle.maps.projection("EL").image
    right_range = bundle.maps.projection("ER").image
    images = bundle.slices.canonical_image
    for name, got, want in (("T1", images(1), left_range), ("T2", images(2), right_range),
                            ("T3", images(3), right_range), ("T4", images(4), left_range)):
        if got != want:
            return failed("range-conditions",
                          {"map": name, "range_dim": got.dim, "expected_dim": want.dim})
    return passed("range-conditions",
                  detail=f"E(AxA) dim {left_range.dim}, (AxA)E dim {right_range.dim}")


@functools.lru_cache(maxsize=8)
def generalized_inverse(bundle, which):
    """R_which as a d^2 x d^2 map: column p is L T_partner L^-1 e_p, the
    partner's slice map conjugated by L on one leg (``TWISTS``)."""
    leg, inverted, partner = TWISTS[which]
    s, si = bundle.maps.antipode_pair()
    l, l_inv = (si, s) if inverted else (s, si)
    leg_map = bundle.t2.map_leg1 if leg == 1 else bundle.t2.map_leg2
    t, size = bundle.slices.canonical_map(partner), bundle.t2.size
    return LinMap(size, size, [leg_map(l, t.apply(leg_map(l_inv, unit_vec(p))))
                               for p in range(size)])


@functools.lru_cache(maxsize=16)
def composite(bundle, which, order):
    """T_which R_which (order "TR") or R_which T_which ("RT"),
    multiplied out."""
    t, r = bundle.slices.canonical_map(which), generalized_inverse(bundle, which)
    return t @ r if order == "TR" else r @ t


def ref_generalized_inverses(bundle):
    """The generalized-inverse check by map products: TRT and RTR
    multiplied out."""
    for i in (1, 2, 3, 4):
        t, r = bundle.slices.canonical_map(i), generalized_inverse(bundle, i)
        if composite(bundle, i, "TR") @ t != t:
            return failed("generalized-inverse-TRT", {"map": f"T{i}"})
        if composite(bundle, i, "RT") @ r != r:
            return failed("generalized-inverse-RTR", {"map": f"R{i}"})
    return passed("generalized-inverses")


CERTIFIED = [(check_range_conditions, ref_range_conditions),
             (check_generalized_inverses, ref_generalized_inverses),
             (check_kernel_subspaces, ref_kernel_subspaces)]


def _premise(bundle):
    """The first premise of the certificate that fails, in the order it
    is tried, or "holds"."""
    if bundle.maps.certificate is not None:
        return "holds"
    if bundle.maps.e_law_failure is not None:
        return bundle.maps.e_law_failure[0]
    return "T_iR_i-differs" if bundle.maps.antipode_inv is not None else "antipode-singular"


def _certified_records_match(bundle):
    """The three records, on a fresh copy of bundle each side, against
    their references; returns the premise that decided the engine's."""
    def fresh():
        return WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit,
                                         bundle.antipode, bundle.E)

    engine, reference = fresh(), fresh()
    got = [_outcome(check, engine) for check, _ in CERTIFIED]
    assert got == [_outcome(ref, reference) for _, ref in CERTIFIED]
    return _premise(engine)


def _wmha_corpus():
    z2 = cyclic_group(2)
    swap = {("g0", "1"): "1", ("g0", "2"): "2", ("g1", "1"): "2", ("g1", "2"): "1"}
    return {**{f"pair-{n}": (lambda n=n: as_wmha(pair_groupoid(n))) for n in (2, 3, 4)},
            "cyclic-6": lambda: as_wmha(group_groupoid(cyclic_group(6))),
            "action-swap": lambda: as_wmha(action_groupoid(z2, ["1", "2"], swap)),
            "crossed-swap": lambda: swap_crossed_setup()[0],
            "base-m2-weighted": lambda: _base_m2_weighted()}


@pytest.mark.parametrize("name", sorted(_wmha_corpus()))
def test_certificate_gives_the_records_of_the_echelon_paths(name):
    assert _certified_records_match(_wmha_corpus()[name]()) == "holds"


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_certificate_matches_references_on_every_mutant(name):
    """The honest bundle and every single-entry +1 / -1 mutant of Delta,
    S and E give the records of the paths without the certificate; the
    sweep reaches the certificate holding and each of its premises
    failing first."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    premises = Counter(_certified_records_match(bad)
                       for bad in itertools.chain([bundle], _base_mutants(bundle)))
    assert set(premises) == {"holds", "canonical-idempotent-squared",
                             "canonical-idempotent-absorbs-coproduct", "antipode-singular",
                             "T_iR_i-differs"}, premises


@pytest.mark.parametrize("name", ["pair-3", "base-m2-weighted"])
def test_certified_suite_forms_no_extra_product_or_image(name, monkeypatch):
    """check-wmha on a passing bundle forms no LinMap product at all,
    builds no map cut out of A (x) A, and echelonizes no image of T_i
    or of an E-map: the certificate and the records it decides read
    everything off the generators."""
    bundle = _wmha_corpus()[name]()
    images, products, built = [], [], []
    image, matmul = Projection.image.func, LinMap.__matmul__
    canonical_image = CoproductSlices.canonical_image
    covered = TensorSquare._covered_map
    monkeypatch.setattr(Projection, "image",
                        property(lambda self: images.append(self) or image(self)))
    monkeypatch.setattr(CoproductSlices, "canonical_image",
                        lambda self, which: images.append(which) or canonical_image(self, which))
    monkeypatch.setattr(LinMap, "__matmul__",
                        lambda self, other: products.append((self, other)) or matmul(self, other))
    monkeypatch.setattr(TensorSquare, "_covered_map",
                        lambda self, x, *flags: built.append(flags) or covered(self, x, *flags))
    assert run_suite(bundle).ok and run_base_suite(bundle)[1].ok
    assert bundle.maps.certificate is not None
    assert images == [] and products == [] and built == []


# -- generator decisions against today's map products ----------------------

def _trace(m):
    """tr m, summed along its diagonal."""
    return sum(m.entry(j, j) for j in range(m.ncols))


def _cut_map(bundle, which):
    """The map E ("EL", "ER") or F_which cuts out of A (x) A, built
    afresh."""
    elt = bundle.E if which in ("EL", "ER") else bundle.maps.kernel_idempotent(which)
    return bundle.t2._covered_map(elt, *PROJECTION_FLAGS[which])


def ref_projection_formulas(bundle):
    """The projection check by map products: T_i R_i against EL or ER,
    then R_i T_i against P_i column by column."""
    d = bundle.dim
    for i, which in ((1, "EL"), (2, "ER"), (3, "ER"), (4, "EL")):
        if composite(bundle, i, "TR") != _cut_map(bundle, which):
            return failed("projection-formula-TR", {"map": f"T{i}R{i}"})
    for i in (1, 2, 3, 4):
        rt, want = composite(bundle, i, "RT"), _cut_map(bundle, i)
        bad = first_failure((d, d), [(lambda a, b: rt.cols[a * d + b],
                                      lambda a, b: want.cols[a * d + b])])
        if bad is not None:
            return failed("projection-formula-RT", {
                "map": f"R{i}T{i}", "pair": [bundle.algebra.labels[a] for a in bad[0]]})
    return passed("projection-formulas")


def ref_kernel_by_products(bundle):
    """The kernel check by map products: tr P_i = rank T_i, T_i P_i = T_i
    and P_i P_i = P_i multiplied out, else both subspaces echelonized."""
    for i in (1, 2, 3, 4):
        p, t = _cut_map(bundle, i), bundle.slices.canonical_map(i)
        described = (LinMap.identity(p.nrows) - p).image()
        if not ((_trace(p) == t.rank() and t @ p == t and p @ p == p)
                or described == t.kernel()):
            return failed("kernel-subspaces", {"map": f"T{i}", "described_dim": described.dim,
                                               "kernel_dim": t.kernel().dim})
    return passed("kernel-subspaces")


PRODUCT_REFERENCES = [(check_range_conditions, ref_range_conditions),
                      (check_generalized_inverses, ref_generalized_inverses),
                      (check_projection_formulas, ref_projection_formulas),
                      (check_kernel_subspaces, ref_kernel_by_products)]


def _generator_premise(bundle):
    """The first premise of the generator certificate that fails, in
    the order it is tried, or "holds"; under it, whether every
    R_i T_i == P_i."""
    if bundle.maps.certificate is not None:
        return ("holds" if all(bundle.maps.agrees(i, "RT", "P") for i in (1, 2, 3, 4))
                else "R_iT_i-differs")
    if bundle.maps.e_law_failure is not None:
        return bundle.maps.e_law_failure[0]
    if bundle.maps.antipode_inv is None:
        return "antipode-singular"
    if bundle.maps.antihom_failure is not None:
        return "antipode-not-antihomomorphism"
    return "T_iR_i-differs" if bundle.t2.generated() else "no-associativity-flag"


def _product_records_match(bundle):
    """The four records the certificate decides, on a fresh copy of
    bundle each side, against their map-product references; returns the
    premise that decided the engine's."""
    def fresh():
        return WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit,
                                         bundle.antipode, bundle.E)

    engine, reference = fresh(), fresh()
    got = [_outcome(check, engine) for check, _ in PRODUCT_REFERENCES]
    assert got == [_outcome(ref, reference) for _, ref in PRODUCT_REFERENCES]
    return _generator_premise(engine)


@pytest.mark.parametrize("name", sorted(_wmha_corpus()))
def test_generator_records_match_map_products(name):
    assert _product_records_match(_wmha_corpus()[name]()) == "holds"


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_generator_records_match_map_products_on_every_mutant(name):
    """The honest bundle and every single-entry +1 / -1 mutant of Delta,
    S and E give the records of today's map products; the sweep reaches
    the certificate holding and each of its premises failing first."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    premises = Counter(_product_records_match(bad)
                       for bad in itertools.chain([bundle], _base_mutants(bundle)))
    assert set(premises) == {"holds", "canonical-idempotent-squared",
                             "canonical-idempotent-absorbs-coproduct", "antipode-singular",
                             "antipode-not-antihomomorphism", "T_iR_i-differs"}, premises


LAWS = ("TR", "RT", "TRT", "RTR", "TP", "PP")


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_generator_decisions_equal_map_products(name):
    """Wherever S is a bijective anti-homomorphism, each identity the
    lemma in the ``algebra`` docstring reduces to the generators is
    decided as the map products decide it, true or false: T_i R_i = Q_i,
    R_i T_i = P_i, T_i R_i T_i = T_i, R_i T_i R_i = R_i, T_i P_i = T_i
    and P_i P_i = P_i, and tr P_i read off F_i, over the honest bundle
    and every +1 / -1 mutant of Delta, S and E; R_i T_i R_i = R_i is
    decided as T_p R_p T_p = T_p for the partner p."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    seen = Counter()
    for bad in itertools.chain([bundle], _base_mutants(bundle)):
        if bad.maps.antipode_inv is None or bad.maps.antihom_failure is not None:
            continue
        assert bad.maps.module_premise
        for i in (1, 2, 3, 4):
            p, t, proj = _cut_map(bad, i), bad.slices.canonical_map(i), bad.maps.projection(i)
            q, r = _cut_map(bad, "EL" if i in (1, 4) else "ER"), generalized_inverse(bad, i)
            tp = all(bad.slices.apply(i, y) == want for y, want in
                     zip(proj.on_generators(3 - T_COVERS[i][0]), bad.slices.on_generators(i)))
            agrees = bad.maps.agrees
            got = (agrees(i, "TR", "Q"), agrees(i, "RT", "P"), agrees(i, "TRT", "T"),
                   agrees(i, "RTR", "R"), tp, proj.apply(proj.cut[1]) == proj.cut[1])
            tr, rt = composite(bad, i, "TR"), composite(bad, i, "RT")
            assert got == (tr == q, rt == p, tr @ t == t, rt @ r == r, t @ p == t, p @ p == p)
            # the generalized-inverse check decides R_i T_i R_i = R_i by the partner's TRT
            assert got[3] == bad.maps.agrees(TWISTS[i][2], "TRT", "T")
            assert proj.trace == _trace(p)
            seen.update(zip(LAWS, got))
    assert set(seen) == {(law, held) for law in LAWS for held in (True, False)}, seen


def test_projection_reads_the_covered_map_off_its_element():
    """On M2 (x) (Q + M2), for each of the six flag pairs and a few
    elements x: the trace, the values on the generators e_a (x) 1 and
    1 (x) e_b, and the values at each element, x itself among them (so
    both outcomes of P(x) == x), each read off x, are those of the map
    ``TensorSquare._covered_map`` builds."""
    a, b = matrix_algebra(2), direct_sum(field_algebra(), matrix_algebra(2))
    t2, rng = TensorSquare(a, b), random.Random(11)
    unit_a, unit_b = a.unit(), b.unit()
    values = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    elements = [t2.tensor(unit_a, unit_b), t2.tensor(unit_vec(0), unit_b)] + [
        {p: rng.choice(values) for p in rng.sample(range(t2.size), 6)} for _ in range(4)]
    fixed = Counter()
    for flags in set(PROJECTION_FLAGS.values()):
        for x in elements:
            proj, m = Projection(cut=(t2, x, flags)), t2._covered_map(x, *flags)
            assert proj.trace == _trace(m)
            assert proj.on_generators(1) == [m.apply(t2.tensor(unit_vec(i), unit_b))
                                             for i in range(a.dim)]
            assert proj.on_generators(2) == [m.apply(t2.tensor(unit_a, unit_vec(j)))
                                             for j in range(b.dim)]
            assert [proj.apply(y) for y in elements] == [m.apply(y) for y in elements]
            fixed[proj.apply(x) == x] += 1
    assert set(fixed) == {True, False}


def test_kernel_laws_need_the_associativity_flag(monkeypatch):
    """A bare ``FiniteAlgebra`` carries no associativity flag: the
    certificate does not hold and the kernel check compares T R T with
    T and R T with P on the basis vectors.  Once ``validate`` has
    scanned associativity, the same table gives the same record from the
    generators.  Neither forms a product."""
    honest = as_wmha(pair_groupoid(3))
    bare = FiniteAlgebra(honest.algebra.labels, honest.algebra.table)
    assert honest.algebra.associative and not bare.associative
    products, records = [], []
    matmul = LinMap.__matmul__
    monkeypatch.setattr(LinMap, "__matmul__",
                        lambda self, other: products.append(1) or matmul(self, other))
    for _ in range(2):
        bundle = WeakMultiplierHopfAlgebra(bare, honest.delta, honest.counit, honest.antipode,
                                           honest.E)
        records.append((check_kernel_subspaces(bundle).to_dict(),
                        bundle.maps.certificate is not None, len(products)))
        products.clear()
        bare.validate()
    assert records == [(passed("kernel-subspaces").to_dict(), False, 0),
                       (passed("kernel-subspaces").to_dict(), True, 0)]


def _product_free_bundles():
    """Every ``_wmha_corpus`` bundle, every +1 / -1 mutant of Delta, S
    and E of pair-2 and crossed-swap, and pair-3 on a bare algebra
    without the associativity flag."""
    yield from (build() for build in _wmha_corpus().values())
    for honest in (as_wmha(pair_groupoid(2)), swap_crossed_setup()[0]):
        yield from _base_mutants(honest)
    honest = as_wmha(pair_groupoid(3))
    yield WeakMultiplierHopfAlgebra(FiniteAlgebra(honest.algebra.labels, honest.algebra.table),
                                    honest.delta, honest.counit, honest.antipode, honest.E)


def test_suite_forms_no_map_product(monkeypatch):
    """The wmha suite decides every record without a LinMap product,
    whether it passes, fails, takes the certificate, the generators or
    the basis vectors."""
    products, paths = [], Counter()
    matmul = LinMap.__matmul__
    monkeypatch.setattr(LinMap, "__matmul__",
                        lambda self, other: products.append(1) or matmul(self, other))
    for bundle in _product_free_bundles():
        products.clear()            # building an example may form products
        run_suite(bundle)
        assert products == []
        paths[_test_set(bundle)] += 1
    assert set(paths) == {"certificate", "generators", "basis", "not-reached"}, paths


def _test_set(bundle):
    """Where the suite decided the projector records: by the
    certificate, on the generators, on the basis vectors, or not at all
    (S singular stops the suite first)."""
    if bundle.maps.antipode_inv is None:
        return "not-reached"
    if bundle.maps.certificate is not None:
        return "certificate"
    return "generators" if bundle.maps.module_premise else "basis"


def _base_mutants(bundle):
    """Every single-entry +1 / -1 mutant of Delta, S and E."""
    yield from _delta_mutants(bundle)
    for s in _map_mutants(bundle.antipode):
        yield WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit, s,
                                        bundle.E)
    for p in range(bundle.dim ** 2):
        for shift in (1, -1):
            yield WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit,
                                            bundle.antipode, _shifted(bundle.E, p, shift))


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_base_suite_matches_unit_padded_products(name):
    """The base suite's leg products and early-stopping flags give the
    record list the unit-padded products and full loops give."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    failures = Counter()
    for bad in _base_mutants(bundle):
        got = [r.to_dict() for r in run_base_suite(bad)[1].records]
        reference = ref_base_records(bad) if any(
            r["check"] == "idempotent-antipodal-maps" for r in got) else {}
        assert got == [reference.get(r["check"], r) for r in got]
        failures.update(r["check"] for r in got if r["status"] != "pass" and r["check"] in reference)
    assert {"idempotent-antipodal-maps", "source-target-module-relations",
            "source-target-characterizations"} <= set(failures)


# -- algebroid and reconstruction ------------------------------------------

def ref_regularity(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Delta_B(a)(x (x) 1) = Delta_B(a)(1 (x) S_B(x)) in the l-quotient
    and the mirrored condition for Delta_C in the r-quotient."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    for a in range(d):
        for i, x in enumerate(graph.b_elements()):
            lhs = t2.mul_right_leg1(alg.delta_b[a], x)
            rhs = t2.mul_right_leg2(alg.delta_b[a], graph.s_b_element(i))
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-regular",
                              {"basis": alg.algebra.labels[a], "b_index": i})
        for j, y in enumerate(graph.c_elements()):
            lhs = t2.mul_left_leg2(y, alg.delta_c[a])
            rhs = t2.mul_left_leg1(graph.s_c_element(j), alg.delta_c[a])
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-regular",
                              {"basis": alg.algebra.labels[a], "c_index": j})
    return passed("coproducts-regular")


def ref_base_behavior(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Delta_B(xa) = (1 (x) x)Delta_B(a), Delta_B(ya) = (y (x) 1)Delta_B(a),
    and the mirrored laws for Delta_C."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a = alg.algebra
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    for a in range(d):
        ea = unit_vec(a)
        for i, x in enumerate(graph.b_elements()):
            lhs = lincomb(alg_a.mul(x, ea), alg.delta_b)
            rhs = t2.mul_left_leg2(x, alg.delta_b[a])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "B", "b_index": i})
            lhs = lincomb(alg_a.mul(ea, x), alg.delta_c)
            rhs = t2.mul_right_leg2(alg.delta_c[a], x)
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "B", "b_index": i})
        for j, y in enumerate(graph.c_elements()):
            lhs = lincomb(alg_a.mul(y, ea), alg.delta_b)
            rhs = t2.mul_left_leg1(y, alg.delta_b[a])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "C", "c_index": j})
            lhs = lincomb(alg_a.mul(ea, y), alg.delta_c)
            rhs = t2.mul_right_leg1(alg.delta_c[a], y)
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "C", "c_index": j})
    return passed("coproduct-base-behavior")


def ref_algebroid_homomorphism(alg):
    graph, t2, d = alg.graph, alg.t2, alg.dim
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    for i in range(d):
        for j in range(d):
            prod = alg.algebra.mul_basis(i, j)
            lhs = lincomb(prod, alg.delta_b)
            rhs = t2.mul(alg.delta_b[i], alg.delta_b[j])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-homomorphism", {"pair": _labels(alg.algebra, i, j)})
            lhs = lincomb(prod, alg.delta_c)
            rhs = t2.mul(alg.delta_c[i], alg.delta_c[j])
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-homomorphism",
                              {"pair": _labels(alg.algebra, i, j)})
    return passed("coproduct-homomorphisms")


def _ref_covered(alg, equations, names, passed_name):
    sl, t2, d = alg.slices, alg.t2, alg.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for k, (outer, inner, same) in enumerate(equations):
                    lhs = t2.expand_leg1(outer(a, b), lambda u: inner(u, c))
                    rhs = t2.expand_leg2(inner(a, c), lambda v: outer(v, b))
                    if not same(lhs, rhs):
                        return failed(names[k], {"triple": _labels(alg.algebra, a, b, c)})
    return passed(passed_name)


def ref_algebroid_coassociativity(alg):
    graph, sl = alg.graph, alg.slices
    return _ref_covered(alg, [(sl.r2, sl.r1, graph.triple("l", "l").equivalent),
                              (sl.l2, sl.l1, graph.triple("r", "r").equivalent)],
                        ("left-coproduct-coassociativity", "right-coproduct-coassociativity"),
                        "coproduct-coassociativity")


def ref_compatibility(alg):
    graph, sl = alg.graph, alg.slices
    return _ref_covered(alg, [(sl.r2, sl.l1, graph.triple("r", "l").equivalent),
                              (sl.l2, sl.r1, graph.triple("l", "r").equivalent)],
                        ("joint-coassociativity-first", "joint-coassociativity-second"),
                        "joint-coassociativity")


@functools.cache
def _ref_quotient_maps(space) -> tuple[LinMap, LinMap]:
    """The quotient map pi and the section theta of a balanced space as
    matrices, as the algebroid suite once built them.  With a section P:
    theta is the echelon basis of im P and pi the coordinates of P's
    columns over it.  Without one: pi reduces modulo R onto the
    non-pivot coordinates and theta picks the unit vectors there."""
    size = space.t2.size
    if space.projector is not None:
        p, image = space.projector.map, space.projector.image
        return (LinMap(image.dim, size, [image.coords(col) for col in p.cols]),
                LinMap(size, image.dim, [dict(r) for r in image.rows]))
    pivots = set(space.relations.pivots)
    free = [f for f in range(size) if f not in pivots]
    lookup = {f: k for k, f in enumerate(free)}
    pi = LinMap(len(free), size, [{lookup[i]: c for i, c in
                                   space.relations.reduce(unit_vec(j)).items()}
                                  for j in range(size)])
    return pi, LinMap(size, len(free), [unit_vec(f) for f in free])


def ref_algebroid_canonical_maps(alg: MultiplierHopfAlgebroid) -> dict[str, LinMap]:
    """The four induced maps pi_cod T theta_dom in quotient coordinates,
    from matrix products: well defined when pi_cod T factors through
    pi_dom, bijective when square of full rank."""
    graph = alg.graph
    specs = {"T_lambda": ("t-up", "l", 4), "T_rho": ("s", "l", 1),
             "lambda_T": ("t", "r", 2), "rho_T": ("s-up", "r", 3)}
    out = {}
    for name, (dom_kind, cod_kind, which) in specs.items():
        dom_pi, dom_theta = _ref_quotient_maps(graph.balanced(dom_kind))
        cod_pi = _ref_quotient_maps(graph.balanced(cod_kind))[0]
        full = cod_pi @ alg.slices.canonical_map(which)
        induced = full @ dom_theta
        if induced @ dom_pi != full:
            raise NotBijective(f"{name} is not well-defined on its quotient")
        if induced.nrows != induced.ncols or not induced.is_bijective():
            ker = induced.kernel()
            raise NotBijective(
                f"{name}: rank {induced.rank()} on quotients of dims "
                f"{induced.ncols} -> {induced.nrows}"
                + (f"; kernel witness {ker.rows[0]}" if ker.dim else ""))
        out[name] = induced
    return out


def ref_canonical_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    try:
        maps = ref_algebroid_canonical_maps(alg)
    except NotBijective as exc:
        return failed("algebroid-canonical-maps-bijective", {"error": str(exc)})
    detail = ", ".join(f"{k}: {m.nrows}x{m.ncols}" for k, m in sorted(maps.items()))
    return passed("algebroid-canonical-maps-bijective", detail=detail)


def ref_column_canonical_maps(alg: MultiplierHopfAlgebroid) -> dict[str, tuple[int, int]]:
    """The column decision the canonical maps were made by before the
    module generators: with full_p = P_cod(T(e_p)) for every p, well
    defined iff sum_j P_dom(e_p)[j] full_j == full_p for every p, and
    bijective iff q_dom == q_cod == dim span{full_p}."""
    graph, d, out = alg.graph, alg.dim, {}
    for name, (dom_kind, cod_kind, which) in algebroid.CANONICAL_MAPS.items():
        dom, cod = graph.balanced(dom_kind), graph.balanced(cod_kind)
        full = [cod.project(alg.slices.column(which, a, b)) for a in range(d) for b in range(d)]
        if any(lincomb(dom.column(p), full) != col for p, col in enumerate(full)):
            raise NotBijective(f"{name} is not well-defined on its quotient")
        if not dom.q_dim == cod.q_dim == Subspace.from_vectors(d * d, full).dim:
            induced = LinMap(cod.q_dim, dom.q_dim, [cod.image.coords(lincomb(theta, full))
                                                    for theta in dom.image.rows])
            ker = induced.kernel()
            raise NotBijective(
                f"{name}: rank {induced.rank()} on quotients of dims "
                f"{induced.ncols} -> {induced.nrows}"
                + (f"; kernel witness {ker.rows[0]}" if ker.dim else ""))
        out[name] = (cod.q_dim, dom.q_dim)
    return out


def ref_column_canonical_record(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    try:
        shapes = ref_column_canonical_maps(alg)
    except NotBijective as exc:
        return failed("algebroid-canonical-maps-bijective", {"error": str(exc)})
    detail = ", ".join(f"{k}: {rows}x{cols}" for k, (rows, cols) in sorted(shapes.items()))
    return passed("algebroid-canonical-maps-bijective", detail=detail)


def ref_counital_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Module relations and both counit diagrams for eps_B and eps_C."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a = alg.algebra
    b_sub = graph.b_view.subspace
    c_sub = graph.c_view.subspace
    img_b = Subspace(d)
    img_c = Subspace(d)
    for j in range(d):
        img_b.insert(alg.eps_b.apply(unit_vec(j)))
        img_c.insert(alg.eps_c.apply(unit_vec(j)))
    if img_b != b_sub:
        return failed("left-counital-image", {"dim": img_b.dim, "B_dim": b_sub.dim})
    if img_c != c_sub:
        return failed("right-counital-image", {"dim": img_c.dim, "C_dim": c_sub.dim})
    for a in range(d):
        ea = unit_vec(a)
        for i, x in enumerate(graph.b_elements()):
            if alg.eps_b.apply(alg_a.mul(x, ea)) != alg_a.mul(x, alg.eps_b.apply(ea)):
                return failed("left-counital-module-law",
                              {"basis": alg_a.labels[a], "b_index": i,
                               "law": "eps_B(xa)=x eps_B(a)"})
            sx = graph.s_b_element(i)
            if alg.eps_b.apply(alg_a.mul(sx, ea)) != alg_a.mul(alg.eps_b.apply(ea), x):
                return failed("left-counital-module-law",
                              {"basis": alg_a.labels[a], "b_index": i,
                               "law": "eps_B(S_B(x)a)=eps_B(a)x"})
        for j, y in enumerate(graph.c_elements()):
            if alg.eps_c.apply(alg_a.mul(ea, y)) != alg_a.mul(alg.eps_c.apply(ea), y):
                return failed("right-counital-module-law",
                              {"basis": alg_a.labels[a], "c_index": j,
                               "law": "eps_C(ay)=eps_C(a)y"})
            sy = graph.s_c_element(j)
            if alg.eps_c.apply(alg_a.mul(ea, sy)) != alg_a.mul(y, alg.eps_c.apply(ea)):
                return failed("right-counital-module-law",
                              {"basis": alg_a.labels[a], "c_index": j,
                               "law": "eps_C(a S_C(y))=y eps_C(a)"})
    s_b_eps_b = LinMap(d, d, [graph.apply_s_b(col) for col in alg.eps_b.cols])
    for a in range(d):
        for b in range(d):
            acc = t2.mul_map(t2.map_leg1(s_b_eps_b, alg.slices.r2(a, b)))
            want = alg_a.mul_basis(a, b)
            if acc != want:
                return failed("left-counit-diagram",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc, "rhs": want})
            # sum e_v eps_C(e_u) over the terms e_u (x) e_v of the slice
            acc2 = t2.mul_map(t2.flip(t2.map_leg1(alg.eps_c, alg.slices.l2(a, b))))
            want2 = alg_a.mul_basis(b, a)
            if acc2 != want2:
                return failed("right-counit-diagram",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc2, "rhs": want2})
    return passed("counital-maps")


def ref_antipode_diagrams(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """mu(S (x) id)T_rho(a (x) b) = S_C(eps_C(a)) b and
    mu(id (x) S) lambda_T(a (x) b) = a S_B(eps_B(b)); a counit value
    outside its base fails the diagram at the first pair that needs it."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a = alg.algebra
    s = alg.antipode
    for a in range(d):
        for b in range(d):
            eb = unit_vec(b)
            acc = t2.mul_map(t2.map_leg1(s, alg.slices.r2(a, b)))
            pair = [alg_a.labels[a], alg_a.labels[b]]
            try:
                want = alg_a.mul(graph.apply_s_c(alg.eps_c.apply(unit_vec(a))), eb)
            except AlgebraError:
                return failed("antipode-diagram-left",
                              {"pair": pair, "lhs": acc, "error": "eps_C(a) is not in C"})
            if acc != want:
                return failed("antipode-diagram-left",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc, "rhs": want})
            acc2 = t2.mul_map(t2.map_leg2(s, alg.slices.l1(b, a)))
            try:
                want2 = alg_a.mul(unit_vec(a), graph.apply_s_b(alg.eps_b.apply(eb)))
            except AlgebraError:
                return failed("antipode-diagram-right",
                              {"pair": pair, "lhs": acc2, "error": "eps_B(b) is not in B"})
            if acc2 != want2:
                return failed("antipode-diagram-right",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc2, "rhs": want2})
    return passed("antipode-diagrams")


def ref_antipode_structure(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """S is a bijective anti-homomorphism restricting to S_B and S_C."""
    s, d = alg.antipode, alg.dim
    alg_a = alg.algebra
    if not s.is_bijective():
        return failed("algebroid-antipode-bijective", {"rank": s.rank()})
    for i in range(d):
        for j in range(d):
            if s.apply(alg_a.mul_basis(i, j)) != alg_a.mul(s.apply(unit_vec(j)),
                                                           s.apply(unit_vec(i))):
                return failed("algebroid-antipode-antihomomorphism",
                              {"pair": [alg_a.labels[i], alg_a.labels[j]]})
    graph = alg.graph
    for i, x in enumerate(graph.b_elements()):
        if s.apply(x) != graph.s_b_element(i):
            return failed("antipode-restriction", {"side": "B", "index": i})
    for j, y in enumerate(graph.c_elements()):
        if s.apply(y) != graph.s_c_element(j):
            return failed("antipode-restriction", {"side": "C", "index": j})
    return passed("algebroid-antipode-structure")


ALGEBROID_PAIRS = [(check_regularity, ref_regularity),
                   (check_algebroid_homomorphism, ref_algebroid_homomorphism),
                   (check_base_behavior, ref_base_behavior),
                   (check_algebroid_coassociativity, ref_algebroid_coassociativity),
                   (check_compatibility, ref_compatibility),
                   (check_counital_maps, ref_counital_maps),
                   (check_antipode_structure, ref_antipode_structure),
                   (check_antipode_diagrams, ref_antipode_diagrams)]


@pytest.fixture(scope="module")
def loaded_p2():
    """The pair-2 algebroid read back from its file, with the idempotent
    its graph pair finds for itself."""
    alg = io.parse_document(io.algebroid_to_dict(forward_construct(as_wmha(pair_groupoid(2)))[0]))
    idem = check_separability_assumption(alg)
    return alg, idem, embed_idempotent(alg.graph, idem)


@pytest.fixture(scope="module")
def counit_twist():
    """The counit-twist algebroid read back from its file: A is the
    noncommutative crossed-swap algebra (d = 8)."""
    return io.parse_document(io.algebroid_to_dict(mixed_algebroid(*swap_crossed_setup())))


def _algebroid_mutants(alg):
    """Every single-entry +1 / -1 mutant of Delta_B, Delta_C, eps_B, eps_C
    and S, over the same graph pair."""
    d = alg.dim

    def make(delta_b=alg.delta_b, delta_c=alg.delta_c, eps_b=alg.eps_b, eps_c=alg.eps_c,
             antipode=alg.antipode):
        return MultiplierHopfAlgebroid(alg.graph, delta_b, delta_c, eps_b, eps_c, antipode)

    for side in ("delta_b", "delta_c"):
        family = getattr(alg, side)
        for a in range(d):
            for p in range(d * d):
                for shift in (1, -1):
                    mutant = list(family)
                    mutant[a] = _shifted(family[a], p, shift)
                    yield make(**{side: mutant})
    for side in ("eps_b", "eps_c", "antipode"):
        for m in _map_mutants(getattr(alg, side)):
            yield make(**{side: m})
    # counital maps moved inside their base, so that the module laws can
    # hold while the counit laws fail
    for side, view in (("eps_b", alg.graph.b_view), ("eps_c", alg.graph.c_view)):
        m = getattr(alg, side)
        for a in range(d):
            for x in view.basis:
                for shift in (1, -1):
                    cols = list(m.cols)
                    cols[a] = lincomb({0: Fraction(1), 1: Fraction(shift)}, [cols[a], x])
                    yield make(**{side: LinMap(d, d, cols)})


def test_algebroid_scans_match_nested_loops(loaded_p2):
    alg = loaded_p2[0]
    failures = Counter()
    for bad in _algebroid_mutants(alg):
        for check, reference in ALGEBROID_PAIRS:
            got = _outcome(check, bad)
            assert got == _outcome(reference, bad)
            if isinstance(got, dict) and got["status"] != "pass":
                failures[got["check"]] += 1
    assert {"left-coproduct-homomorphism", "right-coproduct-homomorphism",
            "left-coproduct-base-behavior", "right-coproduct-base-behavior",
            "left-counital-module-law", "right-counital-module-law",
            "left-coproduct-coassociativity", "right-coproduct-coassociativity",
            "joint-coassociativity-first", "joint-coassociativity-second",
            "left-counit-diagram", "right-counit-diagram",
            "algebroid-antipode-antihomomorphism",
            "antipode-diagram-left", "antipode-diagram-right"} <= set(failures)


def test_algebroid_diagrams_match_pair_scans_on_every_mutant(counit_twist):
    """The counit and antipode diagrams of every +1 / -1 mutant of
    Delta_B, Delta_C, eps_B, eps_C and S of the counit-twist file equal
    today's pair scans (``test_algebroid_scans_match_nested_loops`` does
    so for pair-2).  Each diagram fails, and each antipode diagram fails
    where its counit value leaves the base, the rhs None."""
    failures = Counter()
    for bad in _algebroid_mutants(counit_twist):
        for check, reference in ((check_counital_maps, ref_counital_maps),
                                 (check_antipode_diagrams, ref_antipode_diagrams)):
            got = _outcome(check, bad)
            assert got == _outcome(reference, bad)
            if got["status"] != "pass":
                failures[got["check"], "error" in got["witness"]] += 1
    assert {("left-counit-diagram", False), ("right-counit-diagram", False),
            ("antipode-diagram-left", False), ("antipode-diagram-right", False),
            ("antipode-diagram-left", True), ("antipode-diagram-right", True)} <= set(failures)


@pytest.fixture(scope="module")
def accepted_mutants(loaded_p2, counit_twist):
    """The mutants of ``_algebroid_mutants`` of the pair-2 file and the
    seeded coproduct mutants of the counit-twist file that pass
    ``check_algebroid_axioms``."""
    mutants = itertools.chain(_algebroid_mutants(loaded_p2[0]),
                              _coproduct_mutants(counit_twist, random.Random(5), 8))
    return [bad for bad in mutants if check_algebroid_axioms(bad).ok]


def _order_identity_holds(alg):
    """(E (x) 1)(1 (x) E) = (1 (x) E)(E (x) 1) for the idempotent that
    reconstruction embeds, summed term by term."""
    e_then_e, e_after_e = _e_products(
        alg.t2, embed_idempotent(alg.graph, check_separability_assumption(alg)))
    return e_then_e == e_after_e


@pytest.mark.parametrize("name", ["pair-2", "pair-3", "pair-4", "base-m2-weighted"])
def test_order_identity_holds_on_forward_algebroids(name):
    """``check_E_comultiplicativity`` does not compare the order identity;
    its docstring proves it from E in B (x) C and ``bases-commute``."""
    bundle = _base_m2_weighted() if name == "base-m2-weighted" else \
        as_wmha(pair_groupoid(int(name[-1])))
    alg, report = forward_construct(bundle)
    assert report.ok and check_algebroid_axioms(alg).ok
    assert _order_identity_holds(alg)


def test_order_identity_holds_on_accepted_files(counit_twist, accepted_mutants):
    assert check_algebroid_axioms(counit_twist).ok
    assert _order_identity_holds(counit_twist)
    assert accepted_mutants
    for bad in accepted_mutants:
        assert _order_identity_holds(bad)


def test_accepted_mutants_certify_or_obstruct(accepted_mutants):
    """Reconstruction builds its coproducts and counits without checking
    them, leaving those laws to the final suite.  Every accepted mutant
    still certifies with a passing suite or ends in an obstruction whose
    witness re-validates; none raises ``ReconstructionError``."""
    outcomes = Counter()
    for bad in accepted_mutants:
        got = reconstruction_pipeline(bad)
        if isinstance(got, PipelineResult):
            assert got.report.ok
            outcomes["certified"] += 1
        else:
            assert revalidate(got, bad), got.stage
            outcomes[got.stage] += 1
    assert set(outcomes) == {"certified", STAGE_COUNITS_DIFFER}


def test_sided_scans_match_nested_loops(counit_twist):
    """Regularity and base behavior over seeded coproduct mutants of an
    algebroid with noncommutative A, where both regularity records fail
    (over a commutative A right and left covers agree, and regularity
    holds in every mutant)."""
    failures = Counter()
    for bad in _coproduct_mutants(counit_twist, random.Random(5), 8):
        for check, reference in ((check_regularity, ref_regularity),
                                 (check_base_behavior, ref_base_behavior)):
            got = _outcome(check, bad)
            assert got == _outcome(reference, bad)
            failures[got["check"]] += got["status"] != "pass"
    assert all(failures[name] for name in (
        "left-coproduct-regular", "right-coproduct-regular",
        "left-coproduct-base-behavior", "right-coproduct-base-behavior")), failures


def _canonical_corpus():
    """(name, path) -> algebroid: the in-memory algebroids of
    ``test_balanced``, with sections where the base has a separating
    functional and relations otherwise, each also read back from its
    file, and read back with the relation path forced."""
    algs = {name: alg for name, (alg, _) in _path_rule_algebroids().items()}
    algs.update(_section_path_algebroids())
    out = {}
    for name, alg in algs.items():
        doc = io.algebroid_to_dict(alg)
        out[name, "memory"], out[name, "file"] = alg, io.parse_document(doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebroid, "find_separating_functional", lambda *args: None)
            out[name, "relations"] = io.parse_document(doc)
            assert out[name, "relations"].graph.e_element is None
    return out


def _canonical_ending(record: dict) -> str:
    if record["status"] == "pass":
        return "pass"
    return "not well-defined" if "not well-defined" in record["witness"]["error"] else "rank"


def _canonical_decision(alg) -> tuple[str, str]:
    """(path, ending) of ``check_canonical_maps`` on alg, checked against
    the matrix products and the column decision.  The path is that of
    the failing map, or on a pass "columns" or "rank" if some map took
    it, else "generators"."""
    got = _outcome(check_canonical_maps, alg)
    assert got == _outcome(ref_canonical_maps, alg)
    assert got == _outcome(ref_column_canonical_record, alg)
    ending, paths = _canonical_ending(got), list(alg.canonical_paths.values())
    if ending != "pass":
        return paths[-1], ending
    return next((p for p in ("columns", "rank") if p in paths), "generators"), ending


def test_canonical_maps_match_matrix_products_on_the_corpus():
    """The decision of ``algebroid_canonical_maps`` gives the record that
    the products pi_cod T theta_dom and the column comparison give, on
    the generators with sections and on columns without them."""
    paths = Counter()
    for key, alg in _canonical_corpus().items():
        paths[_canonical_decision(alg)] += 1
    assert paths["generators", "pass"] and paths["columns", "pass"], paths


def test_canonical_maps_match_matrix_products_on_mutants(loaded_p2, counit_twist):
    """The same over every +1 / -1 mutant of the pair-2 and counit-twist
    files, on their sections, and of pair-2 with the relation path
    forced.  Reached: a well-definedness failure on the generators, a
    pass on them, the rank fallback (S not anti-multiplicative or
    P_cod T R differing) passing and failing, and both failures on
    columns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebroid, "find_separating_functional", lambda *args: None)
        relations = io.parse_document(io.algebroid_to_dict(loaded_p2[0]))
        assert relations.graph.e_element is None
    endings = Counter()
    for alg in (loaded_p2[0], counit_twist, relations):
        for bad in _algebroid_mutants(alg):
            endings[_canonical_decision(bad)] += 1
    assert {("generators", "pass"), ("generators", "not well-defined"), ("rank", "pass"),
            ("rank", "rank"), ("columns", "not well-defined"), ("columns", "rank")} \
        <= set(endings), endings


def ref_echelon_ranges(alg, cops, e_elt, report) -> bool:
    """Reconstruction's range stage by echelon forms, as it was decided
    before the module generators: im T_i against im EL or im ER."""
    left_range = alg.t2.projection(e_elt, "EL").image
    right_range = alg.t2.projection(e_elt, "ER").image
    for name, which, want in (("Delta(A)(1xA)", 1, left_range), ("Delta(A)(Ax1)", 4, left_range),
                              ("(1xA)Delta'(A)", 3, right_range),
                              ("(Ax1)Delta'(A)", 2, right_range)):
        got = cops.canonical_image(which)
        if got != want:
            sep = next((r for r in got.rows if not want.contains(r)), None)
            if sep is None:
                sep = next(r for r in want.rows if not got.contains(r))
            report.add(failed("rebuilt-range-conditions",
                              {"space": name, "dim": got.dim, "expected_dim": want.dim,
                               "witness_vector": sep}))
            return False
    report.add(passed("rebuilt-range-conditions",
                      detail=f"ranges dim {left_range.dim}/{right_range.dim}"))
    return True


def ref_echelon_kernels(alg, cops, e_elt, report) -> bool:
    """Reconstruction's kernel stage by echelon forms alone: im(id - P_i)
    against ker T_i, for the map F_i cuts out."""
    for i in (1, 2, 3, 4):
        described = alg.t2.projection(alg.graph.f_element(i), i).complement
        kernel = cops.canonical_kernel(i)
        if described != kernel:
            sep = next((r for r in described.rows if not kernel.contains(r)), None)
            membership = sep is not None
            if sep is None:
                sep = next(r for r in kernel.rows if not described.contains(r))
            report.add(failed("rebuilt-kernel-conditions",
                              {"map": f"T{i}", "described_dim": described.dim,
                               "kernel_dim": kernel.dim, "witness_vector": sep,
                               "described_membership": membership}))
            return False
    report.add(passed("rebuilt-kernel-conditions"))
    return True


def _stages_match(alg) -> list[tuple[str, str, bool]]:
    """Reconstruction's range and kernel stages on alg against their
    echelon references, each side on rebuilt slices of its own, in
    pipeline order while the stages pass; (stage, path, passed) for each
    stage reached, the path "generators" when the engine formed no
    echelon form of a T_i, else "echelon"."""
    idem = check_separability_assumption(alg)
    if isinstance(idem, ObstructionReport):
        return []
    e_elt = embed_idempotent(alg.graph, idem)
    engine, reference = build_delta(alg, e_elt), build_delta(alg, e_elt)
    got, want = Report("reconstruction"), Report("reconstruction")
    reached, maps = [], CanonicalMaps(engine, alg.antipode, e_elt)
    for stage, check, ref in (("ranges", check_ranges_and_fullness, ref_echelon_ranges),
                              ("kernels", lambda m, r: check_kernels(alg, m, r),
                               ref_echelon_kernels)):
        echelons = len(engine._spaces)
        ok = check(maps, got)
        assert ok == ref(alg, reference, e_elt, want)
        assert got.records[-1].to_dict() == want.records[-1].to_dict()
        reached.append((stage, "echelon" if len(engine._spaces) > echelons else "generators", ok))
        if not ok or not check_E_comultiplicativity(alg, engine, e_elt, got):
            break
    return reached


def _forward_corpus():
    """Forward-built algebroids of the wmha corpus, in memory and read
    back from their files."""
    out = {}
    for name, make in _wmha_corpus().items():
        alg, report = forward_construct(make())
        assert report.ok
        out[name, "memory"] = alg
        out[name, "file"] = io.parse_document(io.algebroid_to_dict(alg))
    return out


def test_range_and_kernel_stages_match_echelon_forms_on_the_corpus():
    """Every forward-built algebroid passes both stages on the module
    generators, with the records of the echelon comparisons."""
    for key, alg in _forward_corpus().items():
        assert _stages_match(alg) == [("ranges", "generators", True),
                                      ("kernels", "generators", True)], key


def test_range_and_kernel_stages_match_echelon_forms_on_mutants(loaded_p2, counit_twist):
    """The same over every +1 / -1 mutant of the pair-2 and counit-twist
    files that reaches the stages.  Reached: each stage passing on the
    generators, the range stage passing and failing after its fallback,
    and the kernel stage failing after its fallback."""
    reached = Counter()
    for alg in (loaded_p2[0], counit_twist):
        for bad in _algebroid_mutants(alg):
            reached.update(_stages_match(bad))
    assert {("ranges", "generators", True), ("ranges", "echelon", True),
            ("ranges", "echelon", False), ("kernels", "generators", True),
            ("kernels", "echelon", False)} <= set(reached), reached


@pytest.mark.parametrize("name", ["pair-3", "base-m2-weighted-file"])
def test_algebroid_suite_builds_no_cut_map_and_forms_no_product(name):
    """On the section path the algebroid suite applies the sections and
    the canonical maps to vectors: it builds no covered map and forms no
    LinMap product.  The graph pair's one search for its idempotent,
    which composes maps on the base (``QuantumGraphPair.separability``),
    runs before the count starts."""
    alg, report = forward_construct(
        as_wmha(pair_groupoid(3)) if name == "pair-3" else _base_m2_weighted())
    assert report.ok
    if name == "base-m2-weighted-file":
        alg = io.parse_document(io.algebroid_to_dict(alg))
    assert alg.graph.e_element is not None
    calls = Counter()
    covered, matmul = TensorSquare._covered_map, LinMap.__matmul__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TensorSquare, "_covered_map",
                      lambda *args: calls.update(["covered"]) or covered(*args))
        patch.setattr(LinMap, "__matmul__",
                      lambda *args: calls.update(["product"]) or matmul(*args))
        assert check_algebroid_axioms(alg).ok
    assert calls == Counter()


def _base_m2_weighted():
    idem = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
    return scalar_extension_wmha(idem)


@pytest.fixture(scope="module", params=["base-m2-weighted", "crossed-swap"])
def noncommutative_paths(request):
    """A noncommutative forward algebroid (section path) and the same
    algebroid read back from its file, held on the relation path by a
    graph-pair search that finds nothing."""
    bundle = _base_m2_weighted() if request.param == "base-m2-weighted" else \
        swap_crossed_setup()[0]
    alg, report = forward_construct(bundle)
    assert report.ok
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebroid, "find_separating_functional", lambda *args: None)
        loaded = io.parse_document(io.algebroid_to_dict(alg))
        assert loaded.graph.e_element is None
    return alg, loaded


def _coproduct_mutants(alg, rng, count):
    """`count` seeded mutants of Delta_B and of Delta_C each, with one and
    with two entries moved, over the same graph pair."""
    d = alg.dim
    for side in ("delta_b", "delta_c"):
        for entries in (1, 2):
            for _ in range(count):
                family = list(getattr(alg, side))
                for _ in range(entries):
                    a = rng.randrange(d)
                    family[a] = _shifted(family[a], rng.randrange(d * d), rng.choice((1, -1)))
                delta_b, delta_c = (family, alg.delta_c) if side == "delta_b" else \
                    (alg.delta_b, family)
                yield MultiplierHopfAlgebroid(alg.graph, delta_b, delta_c, alg.eps_b,
                                              alg.eps_c, alg.antipode)


def test_triple_checks_match_covered_scans(noncommutative_paths):
    """One comparison per basis element names the triple and the record
    that the covered scan over every triple names, on both paths."""
    failures = Counter()
    for alg in noncommutative_paths:
        for bad in _coproduct_mutants(alg, random.Random(3), 4):
            for check, reference in ((check_algebroid_coassociativity,
                                      ref_algebroid_coassociativity),
                                     (check_compatibility, ref_compatibility)):
                got = _outcome(check, bad)
                assert got == _outcome(reference, bad)
                failures[got["check"]] += got["status"] != "pass"
    assert all(failures[name] for name in (
        "left-coproduct-coassociativity", "right-coproduct-coassociativity",
        "joint-coassociativity-first", "joint-coassociativity-second")), failures


def test_passing_triple_checks_compare_once_per_element(noncommutative_paths, monkeypatch):
    """Two equations, one triple-space comparison each per basis element;
    the covered scan made 2 d^3."""
    calls = 0
    original = TripleQuotient.equivalent

    def counting(self, x, y):
        nonlocal calls
        calls += 1
        return original(self, x, y)

    monkeypatch.setattr(TripleQuotient, "equivalent", counting)
    for alg in noncommutative_paths:
        for check in (check_algebroid_coassociativity, check_compatibility):
            calls = 0
            assert check(alg).ok
            assert calls <= 2 * alg.dim


def _mutated_algebras(alg):
    """Every copy of alg with one structure constant moved by +1 or -1."""
    d = alg.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for shift in (1, -1):
                    mutant = [list(row) for row in alg.table]
                    mutant[i][j] = _shifted(alg.table[i][j], k, shift)
                    yield FiniteAlgebra(alg.labels, mutant)


@pytest.mark.parametrize("alg", [matrix_algebra(2), as_wmha(pair_groupoid(2)).algebra],
                         ids=["m2", "pair-2"])
def test_nonassociative_names_the_first_triple(alg):
    seen = 0
    for bad in _mutated_algebras(alg):
        d = bad.dim
        expected = next(((i, j, k) for i in range(d) for j in range(d) for k in range(d)
                         if bad.mul(bad.mul_basis(i, j), unit_vec(k))
                         != bad.mul(unit_vec(i), bad.mul_basis(j, k))), None)
        try:
            bad.validate()
            got = None
        except NonAssociative as exc:
            got = exc.triple
        except AlgebraError:
            got = None
        assert got == expected
        seen += got is not None
    assert seen


def _reference_mul(alg, x, y):
    """x y summed over every pair of basis indices and every structure
    constant, zeros included, in a dense accumulator."""
    n = alg.dim
    acc = [0] * n
    for i in range(n):
        for j in range(n):
            c = x.get(i, 0) * y.get(j, 0)
            for k in range(n):
                acc[k] += c * alg.table[i][j].get(k, 0)
    return {k: v for k, v in enumerate(acc) if v}


def _reference_tensor_mul(t2, x, y):
    """The componentwise product in A (x) B over every pair of indices of
    each leg, zeros included, in a dense accumulator."""
    a, b, d = t2.algebra, t2.second, t2.dim
    acc = [0] * t2.size
    for p in range(t2.size):
        for q in range(t2.size):
            c = x.get(p, 0) * y.get(q, 0)
            (p1, p2), (q1, q2) = divmod(p, d), divmod(q, d)
            for k in range(a.dim):
                for m in range(d):
                    acc[k * d + m] += (c * a.table[p1][q1].get(k, 0)
                                       * b.table[p2][q2].get(m, 0))
    return {k: v for k, v in enumerate(acc) if v}


def _pairwise_mul(alg, x, y):
    """x y summed over every pair of terms, read off the table."""
    out = {}
    for i, c in x.items():
        for j, e in y.items():
            vaxpy(out, c * e, alg.table[i][j])
    return out


def _random_sparse(rng, size, terms):
    """Up to `terms` entries of +-1, +-2 and +-1/2, sometimes cancelling
    to fewer."""
    x = {}
    for _ in range(terms):
        i = rng.randrange(size)
        c = x.get(i, 0) + rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)))
        if c:
            x[i] = c
        else:
            del x[i]
    return x


def _tables_with_one_entry_moved(alg, rng, count):
    """`count` seeded copies of alg with one structure constant moved by
    +-1 or +-1/2."""
    d = alg.dim
    for _ in range(count):
        i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
        mutant = [list(row) for row in alg.table]
        mutant[i][j] = _shifted(alg.table[i][j], k,
                                rng.choice((1, -1, Fraction(1, 2), Fraction(-1, 2))))
        yield FiniteAlgebra(alg.labels, mutant)


@pytest.mark.parametrize("alg", [as_wmha(pair_groupoid(3)).algebra,
                                 tensor_algebra(matrix_algebra(2), matrix_algebra(2)),
                                 _base_m2_weighted().algebra],
                         ids=["pair-3", "m2(x)m2", "base-m2"])
def test_rowwise_associativity_names_the_triple_scan_witness(alg):
    """validate's row-by-row scan names the triple the scan over every
    basis triple names, on random single-entry table mutants."""
    seen = 0
    for bad in _tables_with_one_entry_moved(alg, random.Random(21), 100):
        d = bad.dim
        scan = first_failure((d, d, d), [
            (lambda i, j, k: _pairwise_mul(bad, bad.table[i][j], unit_vec(k)),
             lambda i, j, k: _pairwise_mul(bad, unit_vec(i), bad.table[j][k]))])
        try:
            bad.validate()
            got = None
        except NonAssociative as exc:
            got = exc.triple
        except AlgebraError:
            got = None
        assert got == (None if scan is None else scan[0])
        seen += got is not None
    assert seen


def test_products_match_dense_reference():
    """FiniteAlgebra.mul and TensorSquare.mul equal the dense products on
    random sparse vectors with Fraction coefficients, for A (x) A and for
    a non-square B (x) C, and keep their results zero-free."""
    rng = random.Random(8)
    m2, crossed = matrix_algebra(2), swap_crossed_setup()[0].algebra
    for alg in (m2, crossed, _base_m2_weighted().algebra):
        for _ in range(25):
            x, y = _random_sparse(rng, alg.dim, 5), _random_sparse(rng, alg.dim, 5)
            got = alg.mul(x, y)
            assert got == _reference_mul(alg, x, y) and all(got.values())
    # e11 (e11 - e21) + e12 (e11 - e21) = e11 - e11: every term cancels
    e11_e12, e11_e21 = {0: 1, 1: 1}, {0: 1, 2: -1}
    assert m2.mul(e11_e12, e11_e21) == {} == _reference_mul(m2, e11_e12, e11_e21)
    squares = [TensorSquare(m2), TensorSquare(m2, direct_sum(field_algebra(), m2)),
               TensorSquare(crossed, m2)]
    for t2 in squares:
        for _ in range(12):
            x, y = _random_sparse(rng, t2.size, 6), _random_sparse(rng, t2.size, 6)
            got = t2.mul(x, y)
            assert got == _reference_tensor_mul(t2, x, y) and all(got.values())
    t2 = squares[1]
    x, y = t2.tensor(e11_e12, {0: 1}), t2.tensor(e11_e21, {0: 1})
    assert t2.mul(x, y) == {} == _reference_tensor_mul(t2, x, y)


def test_is_anti_homomorphism_matches_nested_loop():
    """first_anti_homomorphism_failure names the pair the nested loop names."""
    bundle = swap_crossed_setup()[0]
    alg = bundle.algebra
    failures = 0
    for s in _map_mutants(bundle.antipode):
        got = first_anti_homomorphism_failure(s, alg, alg)
        assert got == _first_antihom_pair(s, alg, alg)
        failures += got is not None
    assert first_anti_homomorphism_failure(bundle.antipode, alg, alg) is None
    assert failures


# -- every failure names a tuple at which its law fails -------------------------

@functools.cache
def _relations(graph, kind):
    """The kind's relation space, spanned by its relators rather than read
    off the section that the checks use."""
    return relation_space(kind, graph)


def _balanced_equal(graph, kind, lhs, rhs):
    return _relations(graph, kind).contains(vsub(lhs, rhs))


def _base_law_fails(bundle, name, w):
    """Whether the base-suite law that the record names fails at its
    witness, evaluated with unit-padded products; None for a record whose
    witness names no basis element."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    unit, s, e = alg.unit(), bundle.antipode, bundle.E
    if name == "base-algebras-commute":
        return alg.mul(w["b"], w["c"]) != alg.mul(w["c"], w["b"])
    x, on_b = w.get("element"), w.get("side") == "B"
    if name == "idempotent-antipodal-maps":
        if on_b:
            return t2.mul(e, vtensor(x, unit, d)) != t2.mul(e, vtensor(unit, s.apply(x), d))
        return t2.mul(vtensor(unit, x, d), e) != t2.mul(vtensor(s.apply(x), unit, d), e)
    if name == "idempotent-covered-integrals":
        if on_b:
            return t2.mul_map(t2.map_leg2(s, t2.mul(vtensor(x, unit, d), e))) != x
        return t2.mul_map(t2.map_leg1(s, t2.mul(e, vtensor(unit, x, d)))) != x
    if name == "source-target-module-relations":
        a = alg.labels.index(w["basis"])
        ea, sx = unit_vec(a), s.apply(x)
        if w["map"] == "source":
            value = bundle.source_value(a)
            lhs, rhs = alg.mul(ea, x), alg.mul(value, x) if on_b else alg.mul(sx, value)
            return lincomb(lhs, [bundle.source_value(j) for j in range(d)]) != rhs
        value = bundle.target_value(a)
        lhs, rhs = alg.mul(x, ea), alg.mul(value, sx) if on_b else alg.mul(x, value)
        return lincomb(lhs, [bundle.target_value(j) for j in range(d)]) != rhs
    return None


def _graph_law_fails(graph, name, w):
    """As ``_base_law_fails``, for the graph-pair records."""
    alg = graph.algebra
    if name == "bases-commute":
        return alg.mul(w["b"], w["c"]) != alg.mul(w["c"], w["b"])
    if name == "base-anti-isomorphisms":
        b, c = graph.b_view.algebra, graph.c_view.algebra
        m, source, target = {"S_B": (graph.s_b, b, c), "S_C": (graph.s_c, c, b)}[w["map"]]
        if "shape" in w:
            return [m.nrows, m.ncols] == w["shape"] != [target.dim, source.dim]
        if "rank" in w:
            return not m.is_bijective() and m.rank() == w["rank"]
        i, j = (source.labels.index(label) for label in w["pair"])
        return (m.apply(source.mul_basis(i, j))
                != target.mul(m.apply(unit_vec(j)), m.apply(unit_vec(i))))
    return None


def _algebroid_law_fails(alg, name, w):
    """As ``_base_law_fails``, for the algebroid records; a quotient is
    compared through its relation space.  A regularity, base-behavior or
    module-law witness names a and the index of the base element (its
    ``b_index`` or ``c_index``) at which the law fails."""
    graph, t2, mul = alg.graph, alg.t2, alg.algebra.mul
    xs, ys = graph.b_elements(), graph.c_elements()
    a = alg.algebra.labels.index(w["basis"]) if "basis" in w else None
    ea = a is not None and unit_vec(a)
    if name == "left-coproduct-regular":
        i, z = w["b_index"], alg.delta_b[a]
        return not _balanced_equal(graph, "l", t2.mul_right_leg1(z, xs[i]),
                                   t2.mul_right_leg2(z, graph.s_b_element(i)))
    if name == "right-coproduct-regular":
        i, z = w["c_index"], alg.delta_c[a]
        return not _balanced_equal(graph, "r", t2.mul_left_leg2(ys[i], z),
                                   t2.mul_left_leg1(graph.s_c_element(i), z))
    if name.endswith("coproduct-base-behavior"):
        x = xs[w["b_index"]] if w["side"] == "B" else ys[w["c_index"]]
        if name.startswith("left"):
            leg = t2.mul_left_leg2 if w["side"] == "B" else t2.mul_left_leg1
            return not _balanced_equal(graph, "l", lincomb(mul(x, ea), alg.delta_b),
                                       leg(x, alg.delta_b[a]))
        leg = t2.mul_right_leg2 if w["side"] == "B" else t2.mul_right_leg1
        return not _balanced_equal(graph, "r", lincomb(mul(ea, x), alg.delta_c),
                                   leg(alg.delta_c[a], x))
    if name == "left-counital-module-law":
        i, eb = w["b_index"], alg.eps_b.apply
        lhs, rhs = {"eps_B(xa)=x eps_B(a)": (eb(mul(xs[i], ea)), mul(xs[i], eb(ea))),
                    "eps_B(S_B(x)a)=eps_B(a)x": (eb(mul(graph.s_b_element(i), ea)),
                                                 mul(eb(ea), xs[i]))}[w["law"]]
        return lhs != rhs
    if name == "right-counital-module-law":
        i, ec = w["c_index"], alg.eps_c.apply
        lhs, rhs = {"eps_C(ay)=eps_C(a)y": (ec(mul(ea, ys[i])), mul(ec(ea), ys[i])),
                    "eps_C(a S_C(y))=y eps_C(a)": (ec(mul(ea, graph.s_c_element(i))),
                                                   mul(ys[i], ec(ea)))}[w["law"]]
        return lhs != rhs
    if name == "antipode-restriction":
        i = w["index"]
        x, image = ((xs[i], graph.s_b_element(i)) if w["side"] == "B"
                    else (ys[i], graph.s_c_element(i)))
        return alg.antipode.apply(x) != image
    return _graph_law_fails(graph, name, w)


def _graph_mutants(alg):
    """alg's graph pair with one entry of S_B or S_C moved by +1 or -1,
    and the pair with B = C = A and S_B = S_C = S, whose bases commute
    only when A does."""
    graph, a = alg.graph, alg.algebra
    for s_b in _map_mutants(graph.s_b):
        yield QuantumGraphPair(a, graph.b_view, graph.c_view, s_b, graph.s_c)
    for s_c in _map_mutants(graph.s_c):
        yield QuantumGraphPair(a, graph.b_view, graph.c_view, graph.s_b, s_c)
    whole = [SubalgebraView(a, [unit_vec(k) for k in range(a.dim)], name) for name in "BC"]
    yield QuantumGraphPair(a, *whole, alg.antipode, alg.antipode)


def _twisted_restriction(alg):
    """alg over a graph pair whose S_B and S_C are composed with the swap
    of B's first two basis elements, which S does not restrict to."""
    g, n = alg.graph, alg.graph.b_view.dim
    swap = LinMap(n, n, [unit_vec(1), unit_vec(0), *[unit_vec(k) for k in range(2, n)]])
    graph = QuantumGraphPair(g.algebra, g.b_view, g.c_view, g.s_b @ swap, swap @ g.s_c)
    return MultiplierHopfAlgebroid(graph, alg.delta_b, alg.delta_c, alg.eps_b, alg.eps_c,
                                   alg.antipode)


def test_anti_isomorphism_of_the_wrong_shape_fails_with_its_shape(loaded_p2):
    """A graph pair whose C is all of A (d = 4) but whose S_B and S_C are
    the file's 2 x 2 maps fails ``base-anti-isomorphisms`` naming S_B and
    its shape, although S_B is square and bijective."""
    alg = loaded_p2[0]
    graph, a = alg.graph, alg.algebra
    whole = SubalgebraView(a, [unit_vec(k) for k in range(a.dim)], "C")
    pair = QuantumGraphPair(a, graph.b_view, whole, graph.s_b, graph.s_c)
    assert graph.s_b.is_bijective() and (graph.s_b.nrows, graph.s_b.ncols) == (2, 2)
    record = pair.check_axioms().records[-1]
    assert record.to_dict() == {"check": "base-anti-isomorphisms", "status": "fail",
                                "witness": {"map": "S_B", "shape": [2, 2]}}
    assert _graph_law_fails(pair, record.name, record.witness)


def test_failed_records_name_a_failing_tuple(loaded_p2, counit_twist):
    """Over the base-suite, graph-pair and algebroid mutants, every failed
    record but ``ambient-local-units`` has a witness, and where the
    witness names basis elements the record's law fails there."""
    evaluated = set()

    def check(records, law_fails):
        for r in records:
            if r.ok or r.name == "ambient-local-units":
                continue
            assert r.witness, r.name
            fails = law_fails(r.name, r.witness)
            assert fails in (True, None), (r.name, r.witness)
            if fails:
                evaluated.add(r.name)

    for bundle in (as_wmha(pair_groupoid(2)), swap_crossed_setup()[0]):
        for bad in _base_mutants(bundle):
            check(run_base_suite(bad)[1].records, functools.partial(_base_law_fails, bad))
    p2 = loaded_p2[0]
    for alg, mutants in ((p2, itertools.chain(_algebroid_mutants(p2), [_twisted_restriction(p2)])),
                         (counit_twist, _coproduct_mutants(counit_twist, random.Random(5), 8))):
        for graph in _graph_mutants(alg):
            check(graph.check_axioms().records, functools.partial(_graph_law_fails, graph))
        for bad in mutants:
            check(check_algebroid_axioms(bad).records,
                  functools.partial(_algebroid_law_fails, bad))
    assert evaluated == {
        "base-algebras-commute", "idempotent-antipodal-maps", "idempotent-covered-integrals",
        "source-target-module-relations", "bases-commute", "base-anti-isomorphisms",
        "left-coproduct-regular", "right-coproduct-regular", "left-coproduct-base-behavior",
        "right-coproduct-base-behavior", "left-counital-module-law", "right-counital-module-law",
        "antipode-restriction"}
