"""Multiplier Hopf algebroids: quantum graph pairs, the forward
construction from a weak multiplier Hopf algebra, and the axiom suite
for directly supplied algebroids.

A left/right coproduct value Delta_B(a) resp. Delta_C(a) is stored as a
single representative element of A (x) A (the ambient algebra is
unital); its products with covering elements are formed first and
compared modulo the balanced relations.  For bundles arriving through
the forward construction the representatives are the original coproduct
values, which are already section images.  The basis-covered products
come from one ``algebra.CoproductSlices`` over (Delta_B, Delta_C), which
caches each slice once; the canonical maps between balanced quotients
are its maps T_1..T_4 followed by the quotient map of the codomain.
Every pair-indexed check is a list of laws for ``algebra.first_failure``,
whose comparison is the balanced quotient's ``equivalent`` where the two
sides are compared modulo relations; the witness is the first basis
tuple in lexicographic order, then the first law failing there.  The
triple-indexed checks compare one element of the triple balanced space
per basis element and scan covers only to name the witness.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (AlgebraError, CoproductSlices, FiniteAlgebra, TensorSquare,
                      first_failure, multiplicativity)
from .balanced import BalancedTensorSpace, TripleQuotient, build_balanced
from .base_algebras import (SubalgebraView, action_span_dim, first_noncommuting_pair,
                            is_anti_homomorphism, run_base_suite)
from .linalg import LinMap, Subspace, Vec, lincomb, unit_vec
from .reporting import CheckRecord, Report, failed, passed
from .separability import SeparabilityIdempotent, find_separating_functional, trace_form_radical
from .wmha import WeakMultiplierHopfAlgebra


class NotBijective(AlgebraError):
    pass


class QuantumGraphPair:
    """Commuting base algebras B and C inside M(A) with anti-isomorphisms
    S_B: B -> C and S_C: C -> B.  The pair finds its own separability
    idempotent from B, C, S_B and S_C (``separability``), whether it was
    built in memory or read from a file.  A pair built from a bundle
    holds the bundle's tensor square ``t2``, and so shares with the
    bundle the maps its idempotent cuts out."""

    def __init__(self, algebra: FiniteAlgebra, b_view: SubalgebraView,
                 c_view: SubalgebraView, s_b: LinMap, s_c: LinMap,
                 t2: TensorSquare | None = None):
        self.algebra = algebra
        self.t2 = TensorSquare(algebra) if t2 is None else t2
        self.b_view = b_view
        self.c_view = c_view
        self.s_b = s_b              # B-coords -> C-coords
        self.s_c = s_c              # C-coords -> B-coords
        self._bal_cache: dict[str, BalancedTensorSpace] = {}
        self._triple_cache: dict[tuple[str, str], TripleQuotient] = {}

    @cached_property
    def separability(self) -> tuple[Subspace, tuple[Vec, SeparabilityIdempotent] | None]:
        """The radical of B's trace form and, when it is zero, the
        separating functional on B with modular automorphism (S_C S_B)^-1
        and its idempotent (or None).  Searched once; it never refers to
        the pair."""
        b = self.b_view.algebra
        radical = trace_form_radical(b)
        if radical.dim:
            return radical, None
        sigma = (self.s_c @ self.s_b).inverse()
        return radical, find_separating_functional(b, sigma, self.s_b, self.c_view.algebra)

    @cached_property
    def e_coords(self) -> Vec | None:
        """E in B (x) C coordinates: the idempotent ``separability`` found,
        if its S_C is the pair's and it passes every invariant; else None."""
        found = self.separability[1]
        idem = found and found[1]
        return idem.e if idem and idem.s_c == self.s_c and not idem.check_invariants() else None

    @cached_property
    def e_element(self) -> Vec | None:
        """The separability idempotent in A (x) A, or None without one."""
        return None if self.e_coords is None else self.embed(self.e_coords)

    # -- element access -------------------------------------------------

    def b_elements(self) -> list[Vec]:
        return self.b_view.basis

    def c_elements(self) -> list[Vec]:
        return self.c_view.basis

    def s_b_element(self, i: int) -> Vec:
        return self.c_view.from_coords(self.s_b.apply(unit_vec(i)))

    def s_c_element(self, j: int) -> Vec:
        return self.b_view.from_coords(self.s_c.apply(unit_vec(j)))

    def apply_s_b(self, x: Vec) -> Vec:
        """S_B on an element of A known to lie in B."""
        coords = self.b_view.to_coords(x)
        if coords is None:
            raise AlgebraError("element is not in B")
        return self.c_view.from_coords(self.s_b.apply(coords))

    def apply_s_c(self, y: Vec) -> Vec:
        coords = self.c_view.to_coords(y)
        if coords is None:
            raise AlgebraError("element is not in C")
        return self.b_view.from_coords(self.s_c.apply(coords))

    def embed(self, e_coords: Vec) -> Vec:
        """An element of B (x) C, given in coordinates, realized in A (x) A."""
        return self.b_view.basis_map.tensor(self.c_view.basis_map).apply(e_coords)

    def f_element(self, which: int, e_coords: Vec) -> Vec:
        """The idempotent E, given in B (x) C coordinates, with one leg
        twisted by the matching anti-isomorphism, realized in A (x) A."""
        if which not in (1, 2, 3, 4):
            raise ValueError(which)
        b, c = self.b_view.basis_map, self.c_view.basis_map
        left, right = {1: (b, b @ self.s_c), 2: (c @ self.s_b, c),
                       3: (b, b @ self.s_b.inverse()),
                       4: (c @ self.s_c.inverse(), c)}[which]
        return left.tensor(right).apply(e_coords)

    def balanced(self, kind: str) -> BalancedTensorSpace:
        if kind not in self._bal_cache:
            self._bal_cache[kind] = build_balanced(kind, self)
        return self._bal_cache[kind]

    def triple(self, kind12: str, kind23: str) -> TripleQuotient:
        key = (kind12, kind23)
        if key not in self._triple_cache:
            self._triple_cache[key] = TripleQuotient(self, kind12, kind23)
        return self._triple_cache[key]

    # -- structural axioms ------------------------------------------------

    def check_axioms(self) -> Report:
        report = Report("quantum-graph-pair")
        alg, d = self.algebra, self.algebra.dim
        if alg.unit() is None:
            report.add(failed("ambient-local-units", {}))
            return report
        report.add(passed("ambient-local-units"))
        commute = first_noncommuting_pair(alg, self.b_view, self.c_view) is None
        report.add(passed("bases-commute") if commute else
                   failed("bases-commute", {}))
        for view, label in ((self.b_view, "B"), (self.c_view, "C")):
            span = action_span_dim(alg, view)
            if span != d:
                report.add(failed("bases-act-fully", {"algebra": label, "span": span}))
                return report
        report.add(passed("bases-act-fully"))
        b, c = self.b_view.algebra, self.c_view.algebra
        ok = (self.s_b.is_bijective() and self.s_c.is_bijective()
              and is_anti_homomorphism(self.s_b, b, c)
              and is_anti_homomorphism(self.s_c, c, b))
        report.add(passed("base-anti-isomorphisms") if ok else
                   failed("base-anti-isomorphisms", {}))
        return report


class MultiplierHopfAlgebroid:
    """Compatible left and right coproducts over a quantum graph pair."""

    def __init__(self, graph: QuantumGraphPair, delta_b: list[Vec],
                 delta_c: list[Vec], eps_b: LinMap, eps_c: LinMap,
                 antipode: LinMap, source_bundle: WeakMultiplierHopfAlgebra | None = None):
        self.graph = graph
        self.algebra = graph.algebra
        self.t2 = graph.t2
        self.delta_b = [dict(v) for v in delta_b]
        self.delta_c = [dict(v) for v in delta_c]
        self.eps_b = eps_b
        self.eps_c = eps_c
        self.antipode = antipode
        self.source_bundle = source_bundle
        # representative slices: r* of Delta_B, l* of Delta_C
        self.slices = CoproductSlices(self.t2, self.delta_b, self.delta_c)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def forward_construct(bundle: WeakMultiplierHopfAlgebra) -> tuple[MultiplierHopfAlgebroid | None, Report]:
    """Quotient the coproduct of an accepted bundle into the left and
    right balanced products; counital maps come from the source and
    target maps twisted by the inverse antipode."""
    data, base_report = run_base_suite(bundle)
    report = Report("forward-construction", base_report.records)
    if data is None or not report.ok:
        return None, report
    graph = QuantumGraphPair(bundle.algebra, data.b_view, data.c_view, data.s_b, data.s_c,
                             t2=bundle.t2)
    si = bundle.antipode_inv()
    d = bundle.dim
    eps_b = LinMap(d, d, [si.apply(bundle.target_value(i)) for i in range(d)])
    eps_c = LinMap(d, d, [si.apply(bundle.source_value(i)) for i in range(d)])
    alg = MultiplierHopfAlgebroid(
        graph,
        delta_b=[dict(v) for v in bundle.delta],
        delta_c=[dict(v) for v in bundle.delta],
        eps_b=eps_b, eps_c=eps_c,
        antipode=bundle.antipode,
        source_bundle=bundle)
    return alg, report


# -- checks ---------------------------------------------------------------

def check_regularity(alg: MultiplierHopfAlgebroid) -> CheckRecord:
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


def check_algebroid_homomorphism(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    graph, t2, alg_a = alg.graph, alg.t2, alg.algebra
    bad = first_failure((alg.dim, alg.dim), [
        (*multiplicativity(alg_a, alg.delta_b, t2.mul), graph.balanced("l").equivalent),
        (*multiplicativity(alg_a, alg.delta_c, t2.mul), graph.balanced("r").equivalent)])
    if bad is None:
        return passed("coproduct-homomorphisms")
    pair, k, _, _ = bad
    return failed(("left-coproduct-homomorphism", "right-coproduct-homomorphism")[k],
                  {"pair": [alg_a.labels[i] for i in pair]})


def check_base_behavior(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Delta_B(xa) = (1 (x) x)Delta_B(a), Delta_B(ya) = (y (x) 1)Delta_B(a),
    and the mirrored laws for Delta_C."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a = alg.algebra
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    for a in range(d):
        ea = unit_vec(a)
        for x in graph.b_elements():
            lhs = lincomb(alg_a.mul(x, ea), alg.delta_b)
            rhs = t2.mul_left_leg2(x, alg.delta_b[a])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "B"})
            lhs = lincomb(alg_a.mul(ea, x), alg.delta_c)
            rhs = t2.mul_right_leg2(alg.delta_c[a], x)
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "B"})
        for y in graph.c_elements():
            lhs = lincomb(alg_a.mul(y, ea), alg.delta_b)
            rhs = t2.mul_left_leg1(y, alg.delta_b[a])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "C"})
            lhs = lincomb(alg_a.mul(ea, y), alg.delta_c)
            rhs = t2.mul_right_leg1(alg.delta_c[a], y)
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-base-behavior",
                              {"basis": alg_a.labels[a], "side": "C"})
    return passed("coproduct-base-behavior")


def check_algebroid_coassociativity(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Each coproduct is coassociative after projection to the triple
    balanced space of its own kind, decided by one comparison per basis
    element (``CoproductSlices.first_coassociativity_failure``).  That is
    exact because each triple space is closed under its equation's
    covers.  R_l is a right ideal of A (x) A, being spanned by left
    multiples of x (x) 1 - 1 (x) S_B(x), and R_r is a left ideal.  The
    (l, l) space takes right covers on legs 1 and 3, the (r, r) space
    left ones, so R12 (x) A + A (x) R23 is closed under them.  On the
    section path P_l is left and P_r right multiplication by E; each
    commutes with covers on the opposite side, so ``contains`` is closed
    under the same covers."""
    graph = alg.graph
    bad = alg.slices.first_coassociativity_failure(
        [("r2", "r1", graph.triple("l", "l").equivalent),
         ("l2", "l1", graph.triple("r", "r").equivalent)])
    if bad is None:
        return passed("coproduct-coassociativity")
    *triple, k = bad
    return failed(("left-coproduct-coassociativity", "right-coproduct-coassociativity")[k],
                  {"triple": [alg.algebra.labels[i] for i in triple]})


def check_compatibility(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Joint coassociativity of the left and right coproducts in the
    mixed triple balanced spaces: (c x 1 x 1)(Delta_C x id)(Delta_B(a)(1 x b))
    against (id x Delta_B)((c x 1)Delta_C(a))(1 x 1 x b), then
    (Delta_B x id)((1 x b)Delta_C(a))(c x 1 x 1) against
    (1 x 1 x b)(id x Delta_C)(Delta_B(a)(c x 1)).  Decided once per basis
    element as in ``check_algebroid_coassociativity``: the (r, l) space
    takes a left cover on leg 1 and a right one on leg 3, the (l, r)
    space the mirror, each on the side its relations are closed under."""
    graph = alg.graph
    bad = alg.slices.first_coassociativity_failure(
        [("r2", "l1", graph.triple("r", "l").equivalent),
         ("l2", "r1", graph.triple("l", "r").equivalent)])
    if bad is None:
        return passed("joint-coassociativity")
    *triple, k = bad
    return failed(("joint-coassociativity-first", "joint-coassociativity-second")[k],
                  {"triple": [alg.algebra.labels[i] for i in triple]})


def algebroid_canonical_maps(alg: MultiplierHopfAlgebroid) -> dict[str, LinMap]:
    """The four maps between balanced quotients, in quotient coordinates.

    Raises NotBijective with a kernel witness when one is singular.
    """
    graph = alg.graph
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    specs = {
        "T_lambda": ("t-up", bal_l, 4),
        "T_rho": ("s", bal_l, 1),
        "lambda_T": ("t", bal_r, 2),
        "rho_T": ("s-up", bal_r, 3),
    }
    out = {}
    for name, (dom_kind, codomain, which) in specs.items():
        dom = graph.balanced(dom_kind)
        full = codomain.pi @ alg.slices.canonical_map(which)
        for rel in dom.relations.rows:
            if full.apply(rel):
                raise NotBijective(f"{name} is not well-defined on its quotient")
        induced = full @ dom.theta
        if induced.nrows != induced.ncols or not induced.is_bijective():
            ker = induced.kernel()
            raise NotBijective(
                f"{name}: rank {induced.rank()} on quotients of dims "
                f"{induced.ncols} -> {induced.nrows}"
                + (f"; kernel witness {ker.rows[0]}" if ker.dim else ""))
        out[name] = induced
    return out


def check_canonical_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    try:
        maps = algebroid_canonical_maps(alg)
    except NotBijective as exc:
        return failed("algebroid-canonical-maps-bijective", {"error": str(exc)})
    detail = ", ".join(f"{k}: {m.nrows}x{m.ncols}" for k, m in sorted(maps.items()))
    if alg.source_bundle is not None:
        t1, d = alg.source_bundle.canonical_map(1), alg.dim
        bal_l, bal_s = alg.graph.balanced("l"), alg.graph.balanced("s")
        bad = first_failure((d, d), [
            (lambda a, b: bal_l.project(t1.apply(unit_vec(a * d + b))),
             lambda a, b: maps["T_rho"].apply(bal_s.project(unit_vec(a * d + b))))])
        if bad is not None:
            return failed("canonical-map-commuting-square",
                          {"pair": [alg.algebra.labels[i] for i in bad[0]]})
    return passed("algebroid-canonical-maps-bijective", detail=detail)


def check_counital_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
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
    bad = first_failure((d, d), [
        (lambda a, b: t2.mul_map(t2.map_leg1(s_b_eps_b, alg.slices.r2(a, b))),
         alg_a.mul_basis),
        # sum e_v eps_C(e_u) over the terms e_u (x) e_v of the slice
        (lambda a, b: t2.mul_map(t2.flip(t2.map_leg1(alg.eps_c, alg.slices.l2(a, b)))),
         lambda a, b: alg_a.mul_basis(b, a))])
    if bad is not None:
        pair, k, lhs, rhs = bad
        return failed(("left-counit-diagram", "right-counit-diagram")[k],
                      {"pair": [alg_a.labels[i] for i in pair], "lhs": lhs, "rhs": rhs})
    return passed("counital-maps")


def check_antipode_diagrams(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """mu(S (x) id)T_rho(a (x) b) = S_C(eps_C(a)) b and
    mu(id (x) S) lambda_T(a (x) b) = a S_B(eps_B(b)).  Where eps_C(a) or
    eps_B(b) leaves its base the right-hand side is undefined, and the
    diagram fails at the first pair that needs it."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a, s = alg.algebra, alg.antipode

    def through(apply, eps):
        """apply(eps(e_a)) for each a, None where eps(e_a) leaves the base."""
        out = []
        for a in range(d):
            try:
                out.append(apply(eps.apply(unit_vec(a))))
            except AlgebraError:
                out.append(None)
        return out

    s_c_eps_c = through(graph.apply_s_c, alg.eps_c)
    s_b_eps_b = through(graph.apply_s_b, alg.eps_b)
    bad = first_failure((d, d), [
        (lambda a, b: t2.mul_map(t2.map_leg1(s, alg.slices.r2(a, b))),
         lambda a, b: None if s_c_eps_c[a] is None else alg_a.mul(s_c_eps_c[a], unit_vec(b))),
        (lambda a, b: t2.mul_map(t2.map_leg2(s, alg.slices.l1(b, a))),
         lambda a, b: None if s_b_eps_b[b] is None else alg_a.mul(unit_vec(a), s_b_eps_b[b]))])
    if bad is not None:
        pair, k, lhs, rhs = bad
        why = ({"rhs": rhs} if rhs is not None
               else {"error": ("eps_C(a) is not in C", "eps_B(b) is not in B")[k]})
        return failed(("antipode-diagram-left", "antipode-diagram-right")[k],
                      {"pair": [alg_a.labels[i] for i in pair], "lhs": lhs, **why})
    return passed("antipode-diagrams")


def check_antipode_structure(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """S is a bijective anti-homomorphism restricting to S_B and S_C."""
    s, d = alg.antipode, alg.dim
    alg_a = alg.algebra
    if not s.is_bijective():
        return failed("algebroid-antipode-bijective", {"rank": s.rank()})
    bad = first_failure((d, d), [multiplicativity(alg_a, s.cols, alg_a.mul, anti=True)])
    if bad is not None:
        return failed("algebroid-antipode-antihomomorphism",
                      {"pair": [alg_a.labels[i] for i in bad[0]]})
    graph = alg.graph
    for i, x in enumerate(graph.b_elements()):
        if s.apply(x) != graph.s_b_element(i):
            return failed("antipode-restriction", {"side": "B", "index": i})
    for j, y in enumerate(graph.c_elements()):
        if s.apply(y) != graph.s_c_element(j):
            return failed("antipode-restriction", {"side": "C", "index": j})
    return passed("algebroid-antipode-structure")


def check_algebroid_axioms(alg: MultiplierHopfAlgebroid) -> Report:
    report = Report("algebroid-suite", alg.graph.check_axioms().records)
    if not report.ok:
        return report
    report.add(check_regularity(alg))
    report.add(check_algebroid_homomorphism(alg))
    report.add(check_base_behavior(alg))
    report.add(check_algebroid_coassociativity(alg))
    report.add(check_compatibility(alg))
    report.add(check_canonical_maps(alg))
    report.add(check_counital_maps(alg))
    report.add(check_antipode_structure(alg))
    report.add(check_antipode_diagrams(alg))
    return report
