"""The element-level identity checks name the same witness as a covered
scan.

The wmha and reconstruction suites decide coassociativity and the
comultiplicativity of E by comparing elements of A (x) A (x) A, and only
scan basis covers to name the first failing triple.  The reference
loops below are the covered forms themselves, written out plainly, so
every test here compares the engine's witness with the first failure a
full covered loop finds.
"""

from fractions import Fraction

import pytest

from weakhopf.algebroid import forward_construct
from weakhopf.examples import swap_crossed_setup
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.linalg import unit_vec, vtensor
from weakhopf.reconstruction import (RebuiltCoproducts, check_E_comultiplicativity,
                                     check_mixed_coassociativity, rebuilt_coproducts)
from weakhopf.reporting import Report
from weakhopf.wmha import (WeakMultiplierHopfAlgebra, check_coassociativity,
                           check_E_identities)


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
