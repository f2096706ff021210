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
"""

from __future__ import annotations

from .algebra import AlgebraError, CoproductSlices, FiniteAlgebra, TensorSquare
from .balanced import BalancedTensorSpace, TripleQuotient, build_balanced
from .base_algebras import SubalgebraView, run_base_suite
from .linalg import LinMap, Subspace, Vec, lincomb, unit_vec, vaxpy, vtensor
from .reporting import CheckRecord, Report, failed, passed
from .wmha import WeakMultiplierHopfAlgebra


class NotBijective(AlgebraError):
    pass


class QuantumGraphPair:
    """Commuting base algebras B and C inside M(A) with anti-isomorphisms
    S_B: B -> C and S_C: C -> B, optionally carrying a separability
    idempotent realized inside A (x) A."""

    def __init__(self, algebra: FiniteAlgebra, b_view: SubalgebraView,
                 c_view: SubalgebraView, s_b: LinMap, s_c: LinMap,
                 e_element: Vec | None = None, e_coords: Vec | None = None):
        self.algebra = algebra
        self.t2 = TensorSquare(algebra)
        self.b_view = b_view
        self.c_view = c_view
        self.s_b = s_b              # B-coords -> C-coords
        self.s_c = s_c              # C-coords -> B-coords
        self.e_element = e_element  # in A (x) A
        self.e_coords = e_coords    # in B (x) C coordinates
        self._f_cache: dict[int, Vec] = {}
        self._bal_cache: dict[str, BalancedTensorSpace] = {}
        self._triple_cache: dict[tuple[str, str], TripleQuotient] = {}

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

    def f_element(self, which: int) -> Vec:
        """The idempotent with one leg twisted by the matching
        anti-isomorphism, realized in A (x) A."""
        if self.e_coords is None:
            raise AlgebraError("no separability idempotent on this graph pair")
        if which in self._f_cache:
            return self._f_cache[which]
        d = self.algebra.dim
        nb, nc = self.b_view.dim, self.c_view.dim
        sb_inv = self.s_b.inverse()
        sc_inv = self.s_c.inverse()
        out: Vec = {}
        for p, coeff in self.e_coords.items():
            alpha, beta = divmod(p, nc)
            if which == 1:
                left = self.b_view.basis[alpha]
                right = self.b_view.from_coords(self.s_c.apply(unit_vec(beta)))
            elif which == 2:
                left = self.c_view.from_coords(self.s_b.apply(unit_vec(alpha)))
                right = self.c_view.basis[beta]
            elif which == 3:
                left = self.b_view.basis[alpha]
                right = self.b_view.from_coords(sb_inv.apply(unit_vec(beta)))
            elif which == 4:
                left = self.c_view.from_coords(sc_inv.apply(unit_vec(alpha)))
                right = self.c_view.basis[beta]
            else:
                raise ValueError(which)
            vaxpy(out, coeff, vtensor(left, right, d))
        self._f_cache[which] = out
        return out

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

    def check_axioms(self, title: str = "quantum-graph-pair") -> Report:
        report = Report(title)
        alg, d = self.algebra, self.algebra.dim
        if alg.unit() is None:
            report.add(failed("ambient-local-units", {}))
            return report
        report.add(passed("ambient-local-units"))
        commute = all(alg.mul(b, c) == alg.mul(c, b)
                      for b in self.b_view.basis for c in self.c_view.basis)
        report.add(passed("bases-commute") if commute else
                   failed("bases-commute", {}))
        for view, label in ((self.b_view, "B"), (self.c_view, "C")):
            span = Subspace(d)
            for x in view.basis:
                for j in range(d):
                    span.insert(alg.mul(x, unit_vec(j)))
                    span.insert(alg.mul(unit_vec(j), x))
            if span.dim != d:
                report.add(failed("bases-act-fully", {"algebra": label,
                                                      "span": span.dim}))
                return report
        report.add(passed("bases-act-fully"))
        ok = self.s_b.is_bijective() and self.s_c.is_bijective()
        if ok:
            for i in range(self.b_view.dim):
                for j in range(self.b_view.dim):
                    lhs = self.s_b.apply(self.b_view.algebra.mul_basis(i, j))
                    rhs = self.c_view.algebra.mul(self.s_b.apply(unit_vec(j)),
                                                  self.s_b.apply(unit_vec(i)))
                    if lhs != rhs:
                        ok = False
            for i in range(self.c_view.dim):
                for j in range(self.c_view.dim):
                    lhs = self.s_c.apply(self.c_view.algebra.mul_basis(i, j))
                    rhs = self.b_view.algebra.mul(self.s_c.apply(unit_vec(j)),
                                                  self.s_c.apply(unit_vec(i)))
                    if lhs != rhs:
                        ok = False
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


def forward_construct(bundle: WeakMultiplierHopfAlgebra,
                      title: str = "forward-construction") -> tuple[MultiplierHopfAlgebroid | None, Report]:
    """Quotient the coproduct of an accepted bundle into the left and
    right balanced products; counital maps come from the source and
    target maps twisted by the inverse antipode."""
    data, report = run_base_suite(bundle, title)
    if data is None or not report.ok:
        return None, report
    graph = QuantumGraphPair(bundle.algebra, data.b_view, data.c_view,
                             data.s_b, data.s_c,
                             e_element=dict(bundle.E), e_coords=data.e_coords)
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
    graph, t2, d = alg.graph, alg.t2, alg.dim
    bal_l = graph.balanced("l")
    bal_r = graph.balanced("r")
    for i in range(d):
        for j in range(d):
            prod = alg.algebra.mul_basis(i, j)
            lhs = lincomb(prod, alg.delta_b)
            rhs = t2.mul(alg.delta_b[i], alg.delta_b[j])
            if not bal_l.equivalent(lhs, rhs):
                return failed("left-coproduct-homomorphism",
                              {"pair": [alg.algebra.labels[i], alg.algebra.labels[j]]})
            lhs = lincomb(prod, alg.delta_c)
            rhs = t2.mul(alg.delta_c[i], alg.delta_c[j])
            if not bal_r.equivalent(lhs, rhs):
                return failed("right-coproduct-homomorphism",
                              {"pair": [alg.algebra.labels[i], alg.algebra.labels[j]]})
    return passed("coproduct-homomorphisms")


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
    balanced space of its own kind."""
    graph, sl = alg.graph, alg.slices
    bad = sl.first_coassociativity_failure(
        [(sl.r2, sl.r1, graph.triple("l", "l").equivalent),
         (sl.l2, sl.l1, graph.triple("r", "r").equivalent)])
    if bad is None:
        return passed("coproduct-coassociativity")
    a, b, c, k = bad
    return failed(("left-coproduct-coassociativity", "right-coproduct-coassociativity")[k],
                  {"triple": [alg.algebra.labels[i] for i in (a, b, c)]})


def check_compatibility(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Joint coassociativity of the left and right coproducts in the
    mixed triple balanced spaces: (c x 1 x 1)(Delta_C x id)(Delta_B(a)(1 x b))
    against (id x Delta_B)((c x 1)Delta_C(a))(1 x 1 x b), then
    (Delta_B x id)((1 x b)Delta_C(a))(c x 1 x 1) against
    (1 x 1 x b)(id x Delta_C)(Delta_B(a)(c x 1))."""
    graph, sl = alg.graph, alg.slices
    bad = sl.first_coassociativity_failure(
        [(sl.r2, sl.l1, graph.triple("r", "l").equivalent),
         (sl.l2, sl.r1, graph.triple("l", "r").equivalent)])
    if bad is None:
        return passed("joint-coassociativity")
    a, b, c, k = bad
    return failed(("joint-coassociativity-first", "joint-coassociativity-second")[k],
                  {"triple": [alg.algebra.labels[i] for i in (a, b, c)]})


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
        if dom.theta is not None:
            induced = full @ dom.theta
        else:
            # pick representatives for the quotient coordinates
            cols = []
            free = [i for i in range(alg.t2.size)
                    if i not in set(dom.relations.pivots)]
            for f in free:
                cols.append(full.apply(unit_vec(f)))
            induced = LinMap(codomain.q_dim, dom.q_dim, cols)
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
    for a in range(d):
        for b in range(d):
            x = alg.slices.r2(a, b)
            acc: Vec = {}
            for p, coeff in x.items():
                u, v = divmod(p, d)
                acc_term = alg_a.mul(graph.apply_s_b(alg.eps_b.apply(unit_vec(u))),
                                     unit_vec(v))
                vaxpy(acc, coeff, acc_term)
            want = alg_a.mul_basis(a, b)
            if acc != want:
                return failed("left-counit-diagram",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc, "rhs": want})
            w = alg.slices.l2(a, b)
            acc2: Vec = {}
            for p, coeff in w.items():
                u, v = divmod(p, d)
                vaxpy(acc2, coeff, alg_a.mul(unit_vec(v), alg.eps_c.apply(unit_vec(u))))
            want2 = alg_a.mul_basis(b, a)
            if acc2 != want2:
                return failed("right-counit-diagram",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc2, "rhs": want2})
    return passed("counital-maps")


def check_antipode_diagrams(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """mu(S (x) id)T_rho(a (x) b) = S_C(eps_C(a)) b and
    mu(id (x) S) lambda_T(a (x) b) = a S_B(eps_B(b))."""
    graph, d = alg.graph, alg.dim
    alg_a = alg.algebra
    s = alg.antipode
    for a in range(d):
        for b in range(d):
            eb = unit_vec(b)
            x = alg.slices.r2(a, b)
            acc: Vec = {}
            for p, coeff in x.items():
                u, v = divmod(p, d)
                vaxpy(acc, coeff, alg_a.mul(s.apply(unit_vec(u)), unit_vec(v)))
            want = alg_a.mul(graph.apply_s_c(alg.eps_c.apply(unit_vec(a))), eb)
            if acc != want:
                return failed("antipode-diagram-left",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc, "rhs": want})
            y = alg.slices.l1(b, a)
            acc2: Vec = {}
            for p, coeff in y.items():
                u, v = divmod(p, d)
                vaxpy(acc2, coeff, alg_a.mul(unit_vec(u), s.apply(unit_vec(v))))
            want2 = alg_a.mul(unit_vec(a), graph.apply_s_b(alg.eps_b.apply(eb)))
            if acc2 != want2:
                return failed("antipode-diagram-right",
                              {"pair": [alg_a.labels[a], alg_a.labels[b]],
                               "lhs": acc2, "rhs": want2})
    return passed("antipode-diagrams")


def check_antipode_structure(alg: MultiplierHopfAlgebroid) -> CheckRecord:
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


def check_algebroid_axioms(alg: MultiplierHopfAlgebroid,
                           title: str = "algebroid-suite") -> Report:
    report = alg.graph.check_axioms(title)
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
