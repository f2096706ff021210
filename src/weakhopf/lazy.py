"""Countable groupoids through pure oracles and finite probe sets.

On an infinite groupoid the function algebra with finite support is
genuinely non-unital and the coproduct lands outside the tensor square,
so two kinds of verification coexist:

* identities whose two sides are finitely supported elements are
  decided exactly (supports are finite, comparison is complete); each
  is scanned over the probe masses by ``algebra.first_failure`` and
  names its first failing probe tuple;
* identities between multipliers (arbitrary functions on arrows or
  arrow tuples) can only be evaluated pointwise on the declared probe
  set, and are reported as verified-on-probes, never as full passes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable

from .algebra import first_failure
from .linalg import rat
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
        r = self.compose(p, q)
        if r is None:
            return 0
        return f.get(r, 0)


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

def elt(entries) -> FuncElt:
    out: FuncElt = {}
    for k, v in dict(entries).items():
        c = rat(v)
        if c:
            out[k] = c
    return out


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
                val = cr * cq
                if val:
                    out[(p, q)] = out.get((p, q), 0) + val
    return {k: v for k, v in out.items() if v}


def slice_l1(g: LazyGroupoid, cover: FuncElt, f: FuncElt) -> dict:
    """(cover (x) 1) Delta(f)."""
    out: dict = {}
    for p, cp in cover.items():
        pi = g.inverse(p)
        for r, cr in f.items():
            q = g.compose(pi, r)
            if q is not None and g.compose(p, q) == r:
                val = cp * cr
                if val:
                    out[(p, q)] = out.get((p, q), 0) + val
    return {k: v for k, v in out.items() if v}


def functional_leg1(g: LazyGroupoid, pair_elt: dict) -> FuncElt:
    """(counit (x) id) on a finitely supported pair element."""
    out: FuncElt = {}
    for (p, q), c in pair_elt.items():
        if g.is_unit(p):
            out[q] = out.get(q, 0) + c
    return {k: v for k, v in out.items() if v}


def functional_leg2(g: LazyGroupoid, pair_elt: dict) -> FuncElt:
    out: FuncElt = {}
    for (p, q), c in pair_elt.items():
        if g.is_unit(q):
            out[p] = out.get(p, 0) + c
    return {k: v for k, v in out.items() if v}


def target_multiplier_value(g: LazyGroupoid, f: FuncElt, r: Arrow) -> int | Fraction:
    """The target-map multiplier of f evaluated at an arrow."""
    return f.get(g.target(r), 0)


def source_multiplier_value(g: LazyGroupoid, f: FuncElt, r: Arrow) -> int | Fraction:
    return f.get(g.source(r), 0)


# -- the probe suite ------------------------------------------------------

def check_lazy_groupoid(g: LazyGroupoid) -> Report:
    """Element-level identities exactly, multiplier-level ones on probes."""
    report = Report("lazy-groupoid-suite")
    probes = g.probe_arrows
    masses = [elt({p: 1}) for p in probes]
    n = len(masses)

    def exact(name, shape, laws, witness):
        bad = first_failure(shape, laws)
        report.add(passed(name) if bad is None else failed(name, witness(*bad[:2])))

    def pair(index, _):
        return {"pair": [list(masses[i]) for i in index]}

    def triple_product(i, j):
        acc: FuncElt = {}
        for (p, q), c in slice_r2(g, masses[i], masses[j]).items():
            tv = target_multiplier_value(g, elt({p: 1}), q)
            if tv:
                acc[q] = acc.get(q, 0) + c * tv
        return {k: v for k, v in acc.items() if v}

    exact("elements-pointwise-products", (n, n),
          [(lambda i, j: mul(masses[i], masses[j]),
            lambda i, j: dict(masses[i]) if i == j else {})],
          lambda index, _: {"pair": [probes[i] for i in index]})
    exact("counit-laws-on-elements", (n, n),
          [(lambda i, j: functional_leg1(g, slice_r2(g, masses[i], masses[j])),
            lambda i, j: mul(masses[i], masses[j])),
           (lambda i, j: functional_leg2(g, slice_l1(g, masses[i], masses[j])),
            lambda i, j: mul(masses[i], masses[j]))],
          lambda index, k: {**pair(index, k), "law": ("left", "right")[k]})
    exact("antipode-involution", (n,),
          [(lambda i: antipode(g, antipode(g, masses[i])), lambda i: masses[i])],
          lambda index, _: {"element": list(masses[index[0]])})
    exact("antipode-antihomomorphism", (n, n),
          [(lambda i, j: antipode(g, mul(masses[i], masses[j])),
            lambda i, j: mul(antipode(g, masses[j]), antipode(g, masses[i])))], pair)
    exact("antipode-triple-product", (n, n),
          [(triple_product, lambda i, j: mul(masses[i], masses[j]))], pair)
    # the source map's mass at u is 1 exactly on the arrows q with q u
    # defined, read off the composition oracle, not off source itself
    units = [p for p in probes if g.is_unit(p)]
    exact("source-map-values", (len(units), n),
          [(lambda u, q: source_multiplier_value(g, elt({units[u]: 1}), probes[q]),
            lambda u, q: g.composability(probes[q], units[u]))],
          lambda index, _: {"unit": units[index[0]], "arrow": probes[index[1]]})

    # multiplier-level identities: pointwise on probes only
    composites = {(p, q): g.compose(p, q) for p in probes for q in probes}

    ok = True
    for e in (g.composability(p, q) for (p, q) in composites):
        if e * e != e:
            ok = False
    report.add(on_probes("idempotent-squared") if ok else
               failed("idempotent-squared", {}))

    # composite test functions with overlapping supports and mixed signs
    tests = [
        elt({p: k + 1 for k, p in enumerate(probes)}),
        elt({p: (-1) ** k for k, p in enumerate(probes)}),
        elt({probes[0]: "1/2", probes[-1]: "-2/3"}),
    ]

    ok = True
    for (p, q), r in composites.items():
        e = g.composability(p, q)
        for f in tests:
            dv = f.get(r, 0) if r is not None else 0
            if e * dv != dv:
                ok = False
    report.add(on_probes("idempotent-absorbs-coproduct") if ok else
               failed("idempotent-absorbs-coproduct", {}))

    ok = True
    for (p, q), r in composites.items():
        for f in tests:
            for h in tests:
                fh = mul(f, h)
                lhs = fh.get(r, 0) if r is not None else 0
                fv = f.get(r, 0) if r is not None else 0
                hv = h.get(r, 0) if r is not None else 0
                if lhs != fv * hv:
                    ok = False
    report.add(on_probes("coproduct-homomorphism") if ok else
               failed("coproduct-homomorphism", {}))

    ok = True
    sample = probes[: max(4, len(probes) // 4)]
    for f in masses[: len(sample)]:
        for p in sample:
            for q in sample:
                for r in sample:
                    pq = g.compose(p, q)
                    qr = g.compose(q, r)
                    lhs = (g.coproduct_value(f, pq, r)
                           if pq is not None else 0)
                    rhs = (g.coproduct_value(f, p, qr)
                           if qr is not None else 0)
                    if lhs != rhs:
                        ok = False
    report.add(on_probes("coproduct-coassociativity") if ok else
               failed("coproduct-coassociativity", {}))

    ok = True
    for p in sample:
        for q in sample:
            for r in sample:
                pq = g.compose(p, q)
                lhs = (g.composability(pq, r) if pq is not None else 0)
                rhs = g.composability(p, q) * g.composability(q, r)
                if lhs != rhs:
                    ok = False
    report.add(on_probes("idempotent-comultiplicative") if ok else
               failed("idempotent-comultiplicative", {}))

    return report
