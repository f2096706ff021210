from fractions import Fraction

from weakhopf.lazy import (antipode, check_lazy_groupoid, counit, elt,
                           functional_leg1, lazy_pair_groupoid, mul, slice_r2)
from weakhopf.reporting import PASS, PROBES


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
