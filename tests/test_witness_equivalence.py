"""Every check names the witness a plain nested loop would name.

The wmha and reconstruction suites decide coassociativity and the
comultiplicativity of E by comparing elements of A (x) A (x) A, and the
algebroid suite its coassociativity and compatibility by comparing them
in a triple balanced space; all of them only scan basis covers to name
the first failing triple.  The reference loops below are the covered
forms themselves, written out plainly, so those tests compare the
engine's witness with the first failure a full covered loop finds.

The pair-indexed checks go through ``first_failure``: the
first basis tuple in lexicographic order, then the first law failing
there.  Their references are the nested loops the checks were written
as before, and the tests compare whole records over single-entry
mutants.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from weakhopf import algebroid, io
from weakhopf.algebra import (AlgebraError, FiniteAlgebra, NonAssociative, matrix_algebra)
from weakhopf.algebroid import (MultiplierHopfAlgebroid, NotBijective, algebroid_canonical_maps,
                                check_algebroid_coassociativity,
                                check_algebroid_homomorphism, check_antipode_diagrams,
                                check_antipode_structure, check_canonical_maps,
                                check_compatibility, check_counital_maps, forward_construct)
from weakhopf.base_algebras import SubalgebraView, is_anti_homomorphism, run_base_suite
from weakhopf.balanced import TripleQuotient
from weakhopf.examples import scalar_extension_wmha, swap_crossed_setup
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.linalg import LinMap, Subspace, lincomb, unit_vec, vdot, vsub, vtensor
from weakhopf.reconstruction import (RebuiltCoproducts, build_counits, build_delta,
                                     check_E_comultiplicativity, check_mixed_coassociativity,
                                     check_separability_assumption, embed_idempotent,
                                     rebuilt_coproducts)
from weakhopf.reporting import CheckRecord, Report, failed, passed
from weakhopf.separability import build_E_from_functional
from weakhopf.wmha import (WeakMultiplierHopfAlgebra, check_antipode_antihom,
                           check_antipode_identities, check_coassociativity, check_counit,
                           check_E_identities, check_homomorphism, check_kernel_subspaces)


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


def reference_rebuilt_E(cops, e):
    """(id (x) Delta)E against (E (x) 1)(1 (x) E) and (1 (x) E)(E (x) 1)
    covered on the right, then (id (x) Delta')E against the same two
    covered on the left, for every basis triple."""
    t2, d = cops.t2, cops.t2.dim
    mid = t2.expand_leg2(e, lambda k: cops.left[k])
    mid_prime = t2.expand_leg2(e, lambda k: cops.right[k])
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
    for u in range(d):
        for v in range(d):
            for w in range(d):
                eu, ev, ew = unit_vec(u), unit_vec(v), unit_vec(w)
                for left, side, x in ((False, "left-covered", mid),
                                      (True, "right-covered", mid_prime)):
                    first = _cover(t2, x, eu, ev, ew, left)
                    second = _cover(t2, e_then_e, eu, ev, ew, left)
                    third = _cover(t2, e_after_e, eu, ev, ew, left)
                    if first != second or second != third:
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
    return alg, bundle.E, rebuilt_coproducts(alg, bundle.E)


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
    with one entry of E raised, which also breaks the order identity
    (E (x) 1)(1 (x) E) = (1 (x) E)(E (x) 1)."""
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
    s = bundle.antipode
    si = bundle.antipode_inv()
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
                             "antipode-triple-product-second", "antipode-antihomomorphism"}


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


# -- base suite -------------------------------------------------------------

def ref_base_records(bundle) -> dict[str, dict]:
    """The base suite's E-identity, module-relation and characterization
    records, computed with the unit-padded products, e.g. E(b (x) 1) as
    E * (b (x) 1), and loops that scan every pair."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    unit, s, e = alg.unit(), bundle.antipode, bundle.E
    sources = [bundle.source_value(i) for i in range(d)]
    targets = [bundle.target_value(i) for i in range(d)]
    b_view, c_view = SubalgebraView(alg, sources, "B"), SubalgebraView(alg, targets, "C")
    anti = True
    for bi in b_view.basis:
        if t2.mul(e, vtensor(bi, unit, d)) != t2.mul(e, vtensor(unit, s.apply(bi), d)):
            anti = False
    for cj in c_view.basis:
        if t2.mul(vtensor(unit, cj, d), e) != t2.mul(vtensor(s.apply(cj), unit, d), e):
            anti = False
    cov = True
    for cj in c_view.basis:
        if t2.mul_map(t2.map_leg1(s, t2.mul(e, vtensor(unit, cj, d)))) != cj:
            cov = False
    for bi in b_view.basis:
        if t2.mul_map(t2.map_leg2(s, t2.mul(vtensor(bi, unit, d), e))) != bi:
            cov = False
    mod = True
    for i in range(d):
        ea = unit_vec(i)
        for bi in b_view.basis:
            if lincomb(alg.mul(ea, bi), sources) != alg.mul(sources[i], bi):
                mod = False
            if lincomb(alg.mul(bi, ea), targets) != alg.mul(targets[i], s.apply(bi)):
                mod = False
        for cj in c_view.basis:
            if lincomb(alg.mul(ea, cj), sources) != alg.mul(s.apply(cj), sources[i]):
                mod = False
            if lincomb(alg.mul(cj, ea), targets) != alg.mul(cj, targets[i]):
                mod = False
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
    records = [passed(name) if ok else failed(name, {})
               for name, ok in (("idempotent-antipodal-maps", anti),
                                ("idempotent-covered-integrals", cov),
                                ("source-target-module-relations", mod))]
    return {r.name: r.to_dict() for r in records + [char]}


def ref_kernel_subspaces(bundle):
    """im(id - P_i) against ker T_i, both echelonized afresh: the
    comparison the kernel check made before its certificate."""
    n = bundle.t2.size
    for i in (1, 2, 3, 4):
        described = (LinMap.identity(n) - bundle.projection(i).map).image()
        kernel = bundle.canonical_map(i).kernel()
        if described != kernel:
            return failed("kernel-subspaces",
                          {"map": f"T{i}", "described_dim": described.dim,
                           "kernel_dim": kernel.dim})
    return passed("kernel-subspaces")


def _kernel_branch(bundle, i):
    """Which way ``kernel_is_complement`` decides T_i: by the trace and
    the two products, or by the echelon comparison, and its answer."""
    p, t = bundle.projection(i).map, bundle.canonical_map(i)
    if (sum(p.entry(j, j) for j in range(p.ncols)) == t.rank()
            and t @ p == t and p @ p == p):
        return "certified"
    equal = (LinMap.identity(p.nrows) - p).image() == t.kernel()
    return "fallback-equal" if equal else "fallback-unequal"


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_kernel_certificate_matches_echelon_comparison(name):
    """Over every single-entry +1 / -1 mutant of Delta and of E (S kept,
    so F_1..F_4 exist), the kernel check gives the record of the echelon
    comparison; the sweep reaches the certificate and both outcomes of
    its fallback."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    e_mutants = (WeakMultiplierHopfAlgebra(bundle.algebra, bundle.delta, bundle.counit,
                                           bundle.antipode, _shifted(bundle.E, p, shift))
                 for p in range(bundle.dim ** 2) for shift in (1, -1))
    branches = Counter()
    for bad in itertools.chain(_delta_mutants(bundle), e_mutants):
        got = check_kernel_subspaces(bad).to_dict()
        assert got == ref_kernel_subspaces(bad).to_dict()
        for i in (1, 2, 3, 4):
            branch = _kernel_branch(bad, i)
            branches[branch] += 1
            if branch == "fallback-unequal":
                break
    assert set(branches) == {"certified", "fallback-equal", "fallback-unequal"}


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


def ref_canonical_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    try:
        maps = algebroid_canonical_maps(alg)
    except NotBijective as exc:
        return failed("algebroid-canonical-maps-bijective", {"error": str(exc)})
    detail = ", ".join(f"{k}: {m.nrows}x{m.ncols}" for k, m in sorted(maps.items()))
    rec = passed("algebroid-canonical-maps-bijective", detail=detail)
    if alg.source_bundle is not None:
        bundle = alg.source_bundle
        graph, d = alg.graph, alg.dim
        bal_l = graph.balanced("l")
        bal_s = graph.balanced("s")
        t_rho = maps["T_rho"]
        for a in range(d):
            for b in range(d):
                via_t1 = bal_l.project(
                    bundle.canonical_map(1).apply(vtensor(unit_vec(a), unit_vec(b), d)))
                via_quotient = t_rho.apply(bal_s.project(vtensor(unit_vec(a), unit_vec(b), d)))
                if via_t1 != via_quotient:
                    return failed("canonical-map-commuting-square",
                                  {"pair": [alg.algebra.labels[a], alg.algebra.labels[b]]})
    return rec


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
                              {"basis": alg_a.labels[a], "law": "eps_B(xa)=x eps_B(a)"})
            sx = graph.s_b_element(i)
            if alg.eps_b.apply(alg_a.mul(sx, ea)) != alg_a.mul(alg.eps_b.apply(ea), x):
                return failed("left-counital-module-law",
                              {"basis": alg_a.labels[a],
                               "law": "eps_B(S_B(x)a)=eps_B(a)x"})
        for j, y in enumerate(graph.c_elements()):
            if alg.eps_c.apply(alg_a.mul(ea, y)) != alg_a.mul(alg.eps_c.apply(ea), y):
                return failed("right-counital-module-law",
                              {"basis": alg_a.labels[a], "law": "eps_C(ay)=eps_C(a)y"})
            sy = graph.s_c_element(j)
            if alg.eps_c.apply(alg_a.mul(ea, sy)) != alg_a.mul(y, alg.eps_c.apply(ea)):
                return failed("right-counital-module-law",
                              {"basis": alg_a.labels[a],
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


def ref_build_delta(alg: MultiplierHopfAlgebroid, e_elt: Vec,
                report: Report) -> CoproductSlices | None:
    """Sections of the balanced coproducts, with homomorphism,
    idempotent absorption and coassociativity verified for each."""
    cops = rebuilt_coproducts(alg, e_elt)
    t2, d = alg.t2, alg.dim
    alg_a = alg.algebra
    for i in range(d):
        for j in range(d):
            prod = alg_a.mul_basis(i, j)
            if lincomb(prod, cops.left) != t2.mul(cops.left[i], cops.left[j]):
                report.add(failed("rebuilt-coproduct-homomorphism",
                                  {"side": "left", "pair": [i, j]}))
                return None
            if lincomb(prod, cops.right) != t2.mul(cops.right[i], cops.right[j]):
                report.add(failed("rebuilt-coproduct-homomorphism",
                                  {"side": "right", "pair": [i, j]}))
                return None
    for a in range(d):
        da = cops.left[a]
        dpa = cops.right[a]
        if t2.mul(e_elt, da) != da or t2.mul(da, e_elt) != da:
            report.add(failed("rebuilt-coproduct-absorption", {"side": "left", "a": a}))
            return None
        if t2.mul(e_elt, dpa) != dpa or t2.mul(dpa, e_elt) != dpa:
            report.add(failed("rebuilt-coproduct-absorption", {"side": "right", "a": a}))
            return None
    bad = cops.first_coassociativity_failure([("r2", "r1"), ("l2", "l1")])
    if bad is not None:
        a, b, c, k = bad
        report.add(failed("rebuilt-coassociativity",
                          {"side": ("left", "right")[k], "triple": [a, b, c]}))
        return None
    report.add(passed("rebuilt-coproducts"))
    return cops


def ref_build_counits(alg: MultiplierHopfAlgebroid, idem: SeparabilityIdempotent,
                  cops: CoproductSlices, report: Report) -> tuple[Vec, Vec] | None:
    """eps = phi_B o eps_B and eps' = phi_C o eps_C, with the one-sided
    counit laws available before the coproducts merge."""
    graph, d = alg.graph, alg.dim
    alg_a = alg.algebra
    eps: Vec = {}
    eps_prime: Vec = {}
    for a in range(d):
        coords = graph.b_view.to_coords(alg.eps_b.apply(unit_vec(a)))
        if coords is None:
            report.add(failed("rebuilt-counits", {"reason": "eps_B outside B"}))
            return None
        val = vdot(idem.phi_b, coords)
        if val:
            eps[a] = val
        coords_c = graph.c_view.to_coords(alg.eps_c.apply(unit_vec(a)))
        if coords_c is None:
            report.add(failed("rebuilt-counits", {"reason": "eps_C outside C"}))
            return None
        val2 = vdot(idem.phi_c, coords_c)
        if val2:
            eps_prime[a] = val2
    t2 = alg.t2
    for a in range(d):
        for b in range(d):
            if t2.functional_leg1(eps, cops.r2(a, b)) != alg_a.mul_basis(a, b):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps", "law": "left", "pair": [a, b]}))
                return None
            if t2.functional_leg2(eps, cops.r1(a, b)) != alg_a.mul_basis(a, b):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps", "law": "right", "pair": [a, b]}))
                return None
            if t2.functional_leg2(eps_prime, cops.l1(a, b)) != alg_a.mul_basis(b, a):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps-prime", "law": "right",
                                   "pair": [a, b]}))
                return None
            if t2.functional_leg1(eps_prime, cops.l2(a, b)) != alg_a.mul_basis(b, a):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps-prime", "law": "left",
                                   "pair": [a, b]}))
                return None
    report.add(passed("rebuilt-counits"))
    return eps, eps_prime


ALGEBROID_PAIRS = [(check_algebroid_homomorphism, ref_algebroid_homomorphism),
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
    alg, idem, e_elt = loaded_p2
    failures = Counter()
    for bad in _algebroid_mutants(alg):
        for check, reference in ALGEBROID_PAIRS:
            got = _outcome(check, bad)
            assert got == _outcome(reference, bad)
            if isinstance(got, dict) and got["status"] != "pass":
                failures[got["check"]] += 1
        got, expected = Report("engine"), Report("reference")
        cops = build_delta(bad, e_elt, got)
        assert (cops is None) == (ref_build_delta(bad, e_elt, expected) is None)
        if cops is not None:
            assert (build_counits(bad, idem, cops, got) is None) == (
                ref_build_counits(bad, idem, cops, expected) is None)
        assert got.to_dict()["checks"] == expected.to_dict()["checks"]
        failures.update(r.name for r in got.failures())
    assert {"left-coproduct-homomorphism", "right-coproduct-homomorphism",
            "left-coproduct-coassociativity", "right-coproduct-coassociativity",
            "joint-coassociativity-first", "joint-coassociativity-second",
            "left-counit-diagram", "right-counit-diagram",
            "algebroid-antipode-antihomomorphism",
            "antipode-diagram-left", "antipode-diagram-right",
            "rebuilt-coproduct-homomorphism", "rebuilt-counit-laws"} <= set(failures)


@pytest.mark.parametrize("name", ["pair-2", "crossed-swap"])
def test_commuting_square_matches_nested_loop(name):
    """check_canonical_maps on the forward algebroid, its source bundle
    replaced by each single-entry mutant of Delta."""
    bundle = as_wmha(pair_groupoid(2)) if name == "pair-2" else swap_crossed_setup()[0]
    alg, report = forward_construct(bundle)
    assert report.ok
    seen = 0
    for bad in _delta_mutants(bundle):
        alg.source_bundle = bad
        got = check_canonical_maps(alg).to_dict()
        assert got == ref_canonical_maps(alg).to_dict()
        seen += got["status"] != "pass"
    assert seen


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


def test_is_anti_homomorphism_matches_nested_loop():
    bundle = swap_crossed_setup()[0]
    alg = bundle.algebra
    results = set()
    for s in _map_mutants(bundle.antipode):
        got = is_anti_homomorphism(s, alg, alg)
        assert got == (_first_antihom_pair(s, alg, alg) is None)
        results.add(got)
    assert is_anti_homomorphism(bundle.antipode, alg, alg)
    assert False in results
