"""Countable groupoids through pure oracles and finite probe sets.

On an infinite groupoid the function algebra with finite support is
genuinely non-unital and the coproduct lands outside the tensor square,
so two kinds of verification coexist:

* identities whose two sides are finitely supported elements are
  decided exactly (supports are finite, comparison is complete);
* identities between multipliers (arbitrary functions on arrows or
  arrow tuples) can only be evaluated pointwise on the declared probe
  set, and are reported as verified-on-probes, never as full passes.

Every record of the suite is a law list scanned by
``algebra.first_failure``, so a failing record of either kind names its
first failing probe tuple: probe masses or arrows for the exact
records; a probe pair with the test-function indices, or a triple of the
first probes with the probe whose mass is tested, for the
multiplier-level ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable

from .algebra import first_failure
from .linalg import vadd_at, vec_from
from .reporting import Report, failed, on_probes, passed

Arrow = Hashable
FuncElt = dict  # arrow -> nonzero int or Fraction


class LazyGroupoid:
    """Arrow oracles: all callables must be pure."""

    def __init__(self, source: Callable, target: Callable, compose: Callable,
                 inverse: Callable, is_unit: Callable, probe_arrows: list):
        self.source = source        # arrow -> unit arrow at its source
        self.target = target        # arrow -> unit arrow at its target
        self.compose = compose      # (p, q) -> arrow or None
        self.inverse = inverse      # arrow -> arrow
        self.is_unit = is_unit      # arrow -> bool
        self.probe_arrows = list(probe_arrows)

    def composability(self, p: Arrow, q: Arrow) -> int:
        return 1 if self.compose(p, q) is not None else 0

    def coproduct_value(self, f: FuncElt, p: Arrow, q: Arrow) -> int | Fraction:
        return f.get(self.compose(p, q), 0)  # no arrow is None


def lazy_pair_groupoid(probe_units: int) -> LazyGroupoid:
    """The pair groupoid on the positive integers; arrows are pairs
    (i, j) with target i and source j, probed on the first units."""

    def source(a):
        return (a[1], a[1])

    def target(a):
        return (a[0], a[0])

    def compose(p, q):
        return (p[0], q[1]) if p[1] == q[0] else None

    def inverse(a):
        return (a[1], a[0])

    def is_unit(a):
        return a[0] == a[1]

    probes = [(i, j) for i in range(1, probe_units + 1)
              for j in range(1, probe_units + 1)]
    return LazyGroupoid(source, target, compose, inverse, is_unit, probes)


# -- exact element operations -------------------------------------------

elt = vec_from  # arrow -> value entries to a zero-free element


def mul(f: FuncElt, g: FuncElt) -> FuncElt:
    if len(f) > len(g):
        f, g = g, f
    out: FuncElt = {}
    for p, c in f.items():
        w = g.get(p)
        if w:
            out[p] = c * w
    return out


def antipode(g: LazyGroupoid, f: FuncElt) -> FuncElt:
    return {g.inverse(p): c for p, c in f.items()}


def counit(g: LazyGroupoid, f: FuncElt) -> int | Fraction:
    total = 0
    for p, c in f.items():
        if g.is_unit(p):
            total += c
    return total


def slice_r2(g: LazyGroupoid, f: FuncElt, cover: FuncElt) -> dict:
    """Delta(f)(1 (x) cover): finitely supported on pairs."""
    out: dict = {}
    for q, cq in cover.items():
        qi = g.inverse(q)
        for r, cr in f.items():
            p = g.compose(r, qi)
            if p is not None and g.compose(p, q) == r:
                vadd_at(out, (p, q), cr * cq)
    return out


def slice_l1(g: LazyGroupoid, cover: FuncElt, f: FuncElt) -> dict:
    """(cover (x) 1) Delta(f)."""
    out: dict = {}
    for p, cp in cover.items():
        pi = g.inverse(p)
        for r, cr in f.items():
            q = g.compose(pi, r)
            if q is not None and g.compose(p, q) == r:
                vadd_at(out, (p, q), cp * cr)
    return out


def functional_leg1(g: LazyGroupoid, pair_elt: dict) -> FuncElt:
    """(counit (x) id) on a finitely supported pair element."""
    out: FuncElt = {}
    for (p, q), c in pair_elt.items():
        if g.is_unit(p):
            vadd_at(out, q, c)
    return out


def functional_leg2(g: LazyGroupoid, pair_elt: dict) -> FuncElt:
    out: FuncElt = {}
    for (p, q), c in pair_elt.items():
        if g.is_unit(q):
            vadd_at(out, p, c)
    return out


# -- the probe suite ------------------------------------------------------

def check_lazy_groupoid(g: LazyGroupoid) -> Report:
    """Element-level identities exactly, multiplier-level ones on probes."""
    report = Report("lazy-groupoid-suite")
    probes = g.probe_arrows
    masses = [{p: 1} for p in probes]
    n = len(masses)

    def scan(holds, name, shape, laws, witness):
        """One record: holds(name) when first_failure finds no failure."""
        bad = first_failure(shape, laws)
        report.add(holds(name) if bad is None else failed(name, witness(*bad[:2])))

    def pair(index, _):
        return {"pair": [list(masses[i]) for i in index]}

    def probe_pair(index, _=None):
        return {"pair": [probes[i] for i in index[:2]]}

    def triple_product(i, j):
        # the target map's multiplier of the mass at p is 1 exactly on
        # the arrows q with target p
        acc: FuncElt = {}
        for (p, q), c in slice_r2(g, masses[i], masses[j]).items():
            if g.target(q) == p:
                vadd_at(acc, q, c)
        return acc

    scan(passed, "elements-pointwise-products", (n, n),
         [(lambda i, j: mul(masses[i], masses[j]),
           lambda i, j: dict(masses[i]) if i == j else {})],
         probe_pair)
    scan(passed, "counit-laws-on-elements", (n, n),
         [(lambda i, j: functional_leg1(g, slice_r2(g, masses[i], masses[j])),
           lambda i, j: mul(masses[i], masses[j])),
          (lambda i, j: functional_leg2(g, slice_l1(g, masses[i], masses[j])),
           lambda i, j: mul(masses[i], masses[j]))],
         lambda index, k: {**pair(index, k), "law": ("left", "right")[k]})
    scan(passed, "antipode-involution", (n,),
         [(lambda i: antipode(g, antipode(g, masses[i])), lambda i: masses[i])],
         lambda index, _: {"element": list(masses[index[0]])})
    scan(passed, "antipode-antihomomorphism", (n, n),
         [(lambda i, j: antipode(g, mul(masses[i], masses[j])),
           lambda i, j: mul(antipode(g, masses[j]), antipode(g, masses[i])))], pair)
    scan(passed, "antipode-triple-product", (n, n),
         [(triple_product, lambda i, j: mul(masses[i], masses[j]))], pair)
    # the source map's mass at u is 1 exactly on the arrows q with q u
    # defined, read off the composition oracle, not off source itself
    units = [p for p in probes if g.is_unit(p)]
    scan(passed, "source-map-values", (len(units), n),
         [(lambda u, q: int(g.source(probes[q]) == units[u]),
           lambda u, q: g.composability(probes[q], units[u]))],
         lambda index, _: {"unit": units[index[0]], "arrow": probes[index[1]]})

    # multiplier-level identities: pointwise on probes only, at probe
    # pairs and at triples of the first probes; composed[i][j] is the
    # i-th probe times the j-th, or None
    composed = [[g.compose(p, q) for q in probes] for p in probes]
    e = [[g.composability(p, q) for q in probes] for p in probes]
    # composite test functions with overlapping supports and mixed signs
    tests = [
        elt({p: k + 1 for k, p in enumerate(probes)}),
        elt({p: (-1) ** k for k, p in enumerate(probes)}),
        elt({probes[0]: "1/2", probes[-1]: "-2/3"}),
    ]
    products = [[mul(f, h) for h in tests] for f in tests]
    scan(on_probes, "idempotent-squared", (n, n),
         [(lambda i, j: e[i][j] * e[i][j], lambda i, j: e[i][j])], probe_pair)
    scan(on_probes, "idempotent-absorbs-coproduct", (n, n, 3),
         [(lambda i, j, t: e[i][j] * tests[t].get(composed[i][j], 0),
           lambda i, j, t: tests[t].get(composed[i][j], 0))],
         lambda index, _: {**probe_pair(index), "test": index[2]})
    scan(on_probes, "coproduct-homomorphism", (n, n, 3, 3),
         [(lambda i, j, t, u: products[t][u].get(composed[i][j], 0),
           lambda i, j, t, u: (tests[t].get(composed[i][j], 0)
                               * tests[u].get(composed[i][j], 0)))],
         lambda index, _: {**probe_pair(index), "tests": list(index[2:])})

    # f(pq, r) = f(p, qr) for the mass f at the k-th probe, and
    # E(pq, r) = E(p, q) E(q, r); an undefined composite gives 0
    sample = probes[:max(4, n // 4)]

    def coproduct_left(k, i, j, h):
        pq = composed[i][j]
        return 0 if pq is None else g.coproduct_value(masses[k], pq, sample[h])

    def coproduct_right(k, i, j, h):
        qr = composed[j][h]
        return 0 if qr is None else g.coproduct_value(masses[k], sample[i], qr)

    scan(on_probes, "coproduct-coassociativity", (len(sample),) * 4,
         [(coproduct_left, coproduct_right)],
         lambda index, _: {"triple": [sample[i] for i in index[1:]],
                           "mass": probes[index[0]]})
    scan(on_probes, "idempotent-comultiplicative", (len(sample),) * 3,
         [(lambda i, j, h: (0 if composed[i][j] is None
                            else g.composability(composed[i][j], sample[h])),
           lambda i, j, h: e[i][j] * e[j][h])],
         lambda index, _: {"triple": [sample[i] for i in index]})
    return report
