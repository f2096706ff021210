from fractions import Fraction

import pytest

from weakhopf import lazy
from weakhopf.lazy import (antipode, check_lazy_groupoid, counit, elt,
                           functional_leg1, lazy_pair_groupoid, mul, slice_r2)
from weakhopf.reporting import FAIL, PASS, PROBES


def test_lazy_pair_groupoid_oracles():
    g = lazy_pair_groupoid(3)
    assert g.compose((1, 2), (2, 5)) == (1, 5)
    assert g.compose((1, 2), (3, 5)) is None
    assert g.inverse((4, 9)) == (9, 4)
    assert g.is_unit((7, 7)) and not g.is_unit((7, 8))
    assert len(g.probe_arrows) == 9


def test_element_operations_exact_beyond_probes():
    g = lazy_pair_groupoid(2)
    # elements supported outside the probe window still compute exactly
    f = elt({(10, 11): "2/3"})
    h = elt({(11, 11): 3})
    x = slice_r2(g, f, h)
    assert x == {((10, 11), (11, 11)): Fraction(2)}
    assert functional_leg1(g, x) == {}
    assert counit(g, f) == 0
    assert counit(g, elt({(10, 10): "1/2"})) == Fraction(1, 2)
    assert antipode(g, f) == {(11, 10): Fraction(2, 3)}
    assert mul(f, f) == {(10, 11): Fraction(4, 9)}


def test_probe_suite_statuses():
    g = lazy_pair_groupoid(6)
    report = check_lazy_groupoid(g)
    assert report.ok, report.to_text()
    by_name = {r.name: r.status for r in report.records}
    # element-level checks are exact
    assert by_name["counit-laws-on-elements"] == PASS
    assert by_name["antipode-involution"] == PASS
    assert by_name["antipode-triple-product"] == PASS
    # multiplier-level checks are only ever probe-verified
    multiplier_level = ["idempotent-squared", "idempotent-absorbs-coproduct",
                        "coproduct-homomorphism", "coproduct-coassociativity",
                        "idempotent-comultiplicative"]
    for name in multiplier_level:
        assert by_name[name] == PROBES
        assert by_name[name] != PASS


def test_probe_suite_is_deterministic():
    a = check_lazy_groupoid(lazy_pair_groupoid(4)).to_json()
    b = check_lazy_groupoid(lazy_pair_groupoid(4)).to_json()
    assert a == b


def _records(g):
    return {r.name: r for r in check_lazy_groupoid(g).records}


def test_identity_inverse_names_the_first_failing_pair():
    g = lazy_pair_groupoid(2)
    g.inverse = lambda a: a
    records = _records(g)
    assert records["antipode-triple-product"].witness == {"pair": [[(1, 2)], [(1, 2)]]}
    assert records["counit-laws-on-elements"].witness == {"pair": [[(1, 2)], [(1, 2)]],
                                                          "law": "left"}
    assert records["antipode-involution"].status == PASS


def test_exact_records_stop_at_the_first_failure():
    """With S(i, j) = (j, j), the involution and the antihomomorphism fail
    at several probes; each record names the first in probe order."""
    g = lazy_pair_groupoid(2)
    g.inverse = lambda a: (a[1], a[1])
    masses = [elt({p: 1}) for p in g.probe_arrows]
    records = _records(g)
    involution = next(f for f in masses if antipode(g, antipode(g, f)) != f)
    assert records["antipode-involution"].witness == {"element": list(involution)}
    pair = next([list(f), list(h)] for f in masses for h in masses
                if antipode(g, mul(f, h)) != mul(antipode(g, h), antipode(g, f)))
    assert records["antipode-antihomomorphism"].witness == {"pair": pair}
    assert pair == [[(1, 1)], [(2, 1)]]


def test_source_map_values_use_composition():
    """With source replaced by target, mass_u(source(q)) disagrees with
    "q u is defined" first at u = (1, 1), q = (1, 2)."""
    g = lazy_pair_groupoid(2)
    g.source = g.target
    record = _records(g)["source-map-values"]
    assert record.status != PASS
    assert record.witness == {"unit": (1, 1), "arrow": (1, 2)}


MULTIPLIER_LEVEL = ["idempotent-squared", "idempotent-absorbs-coproduct",
                    "coproduct-homomorphism", "coproduct-coassociativity",
                    "idempotent-comultiplicative"]


def _reference_first_failures(g):
    """The multiplier-level records as hand-written flag loops over the
    same probe sets: record name -> the first tuple at which its law
    fails, in loop order, with the suite's witness keys."""
    probes = g.probe_arrows
    masses = [elt({p: 1}) for p in probes]
    first = {}
    composites = {(p, q): g.compose(p, q) for p in probes for q in probes}
    for (p, q) in composites:
        e = g.composability(p, q)
        if e * e != e:
            first.setdefault("idempotent-squared", {"pair": [p, q]})
    tests = [
        elt({p: k + 1 for k, p in enumerate(probes)}),
        elt({p: (-1) ** k for k, p in enumerate(probes)}),
        elt({probes[0]: "1/2", probes[-1]: "-2/3"}),
    ]
    for (p, q), r in composites.items():
        e = g.composability(p, q)
        for t, f in enumerate(tests):
            dv = f.get(r, 0) if r is not None else 0
            if e * dv != dv:
                first.setdefault("idempotent-absorbs-coproduct", {"pair": [p, q], "test": t})
    for (p, q), r in composites.items():
        for t, f in enumerate(tests):
            for u, h in enumerate(tests):
                fh = lazy.mul(f, h)
                lhs = fh.get(r, 0) if r is not None else 0
                fv = f.get(r, 0) if r is not None else 0
                hv = h.get(r, 0) if r is not None else 0
                if lhs != fv * hv:
                    first.setdefault("coproduct-homomorphism",
                                     {"pair": [p, q], "tests": [t, u]})
    sample = probes[: max(4, len(probes) // 4)]
    for k, f in enumerate(masses[: len(sample)]):
        for p in sample:
            for q in sample:
                for r in sample:
                    pq = g.compose(p, q)
                    qr = g.compose(q, r)
                    lhs = g.coproduct_value(f, pq, r) if pq is not None else 0
                    rhs = g.coproduct_value(f, p, qr) if qr is not None else 0
                    if lhs != rhs:
                        first.setdefault("coproduct-coassociativity",
                                         {"triple": [p, q, r], "mass": probes[k]})
    for p in sample:
        for q in sample:
            for r in sample:
                pq = g.compose(p, q)
                lhs = g.composability(pq, r) if pq is not None else 0
                rhs = g.composability(p, q) * g.composability(q, r)
                if lhs != rhs:
                    first.setdefault("idempotent-comultiplicative", {"triple": [p, q, r]})
    return first


def _swapped_compose(g):
    g.compose = lambda p, q: (q[0], p[1]) if p[1] == q[0] else None


def _no_loops(g):
    compose = g.compose
    g.compose = lambda p, q: None if p == q else compose(p, q)


def _doubled_composability(g):
    compose = g.compose
    g.composability = lambda p, q: 2 if compose(p, q) is not None else 0


def _identity_inverse(g):
    g.inverse = lambda a: a


def _all_units(g):
    g.is_unit = lambda a: True


EDITS = {"swapped-compose": _swapped_compose, "no-loops": _no_loops,
         "doubled-composability": _doubled_composability,
         "identity-inverse": _identity_inverse, "all-units": _all_units}


@pytest.mark.parametrize("k,edit", [(k, None) for k in range(1, 9)]
                         + [(k, edit) for k in (1, 2, 3, 5) for edit in EDITS])
def test_multiplier_records_match_the_flag_loops(k, edit):
    g = lazy_pair_groupoid(k)
    if edit is not None:
        EDITS[edit](g)
    first = _reference_first_failures(g)
    records = _records(g)
    assert [records[name].status for name in MULTIPLIER_LEVEL] == [
        FAIL if name in first else PROBES for name in MULTIPLIER_LEVEL]


@pytest.mark.parametrize("edit", ["swapped-compose", "no-loops", "doubled-composability",
                                  "negated-products"])
def test_failing_multiplier_records_name_their_first_probe_tuple(edit, monkeypatch):
    """Each failing multiplier-level record names the tuple that the
    nested loops reach first; negated products break mul itself."""
    g = lazy_pair_groupoid(3)
    if edit == "negated-products":
        monkeypatch.setattr(lazy, "mul", lambda f, h: {p: -c for p, c in mul(f, h).items()})
    else:
        EDITS[edit](g)
    first = _reference_first_failures(g)
    assert first
    records = _records(g)
    assert {name: records[name].witness for name in first} == first


def test_homomorphism_takes_each_test_product_once(monkeypatch):
    """The three test functions are the only multi-arrow factors: their
    nine products are taken once, not once per composite pair."""
    products = []

    def counted(f, h):
        if len(f) > 1 and len(h) > 1:
            products.append((f, h))
        return mul(f, h)

    monkeypatch.setattr(lazy, "mul", counted)
    assert check_lazy_groupoid(lazy_pair_groupoid(3)).ok
    assert len(products) == 9
