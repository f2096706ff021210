"""Multiplier Hopf algebroids: quantum graph pairs, the forward
construction from a weak multiplier Hopf algebra, and the axiom suite
for directly supplied algebroids.

A left/right coproduct value Delta_B(a) resp. Delta_C(a) is stored as a
single representative element of A (x) A (the ambient algebra is
unital); its products with covering elements are formed first and
compared modulo the balanced relations.  For bundles arriving through
the forward construction the representatives are the original coproduct
values, which are already section images.  The basis-covered products
come from one ``slices.CoproductSlices`` over (Delta_B, Delta_C), which
caches each slice once.  Each balanced quotient is one idempotent P on
A (x) A with ker P = R (``balanced``), and a law modulo relations
compares P(lhs - rhs) with 0.

The four canonical maps between balanced quotients are decided on the
d module generators where the ``algebra`` lemma applies; the proof and
the code are in ``weakhopf.canonical``.  ``maps``, a
``wmha.CanonicalMaps`` of the slices under S without E, holds S^-1 and
whether S is anti-multiplicative, once for the canonical maps and
``check_antipode_structure``.

Every basis-indexed check is a list of laws for ``algebra.first_failure``:
the witness is the first basis tuple in lexicographic order, then the
first law failing there.  A check over both bases scans (a, side, i),
side B then C (``algebra.by_side``); dim B = dim C, as the graph pair's
``base-anti-isomorphisms`` precedes it.  The triple-indexed checks
compare one element of the triple balanced space per basis element and
scan covers only to name the witness.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (AlgebraError, FiniteAlgebra, TensorSquare, by_side, first_failure,
                      multiplicativity)
from .balanced import BalancedTensorSpace, TripleQuotient, build_balanced
# part of this module's interface, kept in their own module
from .canonical import CANONICAL_MAPS, NotBijective, algebroid_canonical_maps  # noqa: F401
from .base_algebras import (SubalgebraView, action_span_dim, first_anti_homomorphism_failure,
                            first_noncommuting_pair, run_base_suite)
from .linalg import LinMap, Subspace, Vec, apply_legs, lincomb, on_leg, unit_vec, vsub
from .reporting import CheckRecord, Report, failed, passed
from .separability import SeparabilityIdempotent, find_separating_functional, trace_form_radical
from .slices import CoproductSlices
from .wmha import CanonicalMaps, WeakMultiplierHopfAlgebra


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
        return apply_legs(self.b_view.basis_map, self.c_view.basis_map, e_coords)

    def f_element(self, which: int) -> Vec:
        """The pair's idempotent E with one leg twisted by the matching
        anti-isomorphism (F_which), realized in A (x) A: the twist applied
        to E's coordinates, then both legs embedded from the base it maps
        to; F_3 and F_4 invert S_B resp. S_C."""
        if which not in (1, 2, 3, 4):
            raise ValueError(which)
        leg, twist, view = {1: (2, self.s_c, self.b_view), 2: (1, self.s_b, self.c_view),
                            3: (2, self.s_b, self.b_view), 4: (1, self.s_c, self.c_view)}[which]
        twist = twist.inverse() if which > 2 else twist
        twisted = on_leg(self.e_coords, self.c_view.dim if leg == 1 else 1, twist.ncols,
                         twist.cols.__getitem__, twist.nrows)
        return apply_legs(view.basis_map, view.basis_map, twisted)

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
        pair = first_noncommuting_pair(alg, self.b_view, self.c_view)
        report.add(passed("bases-commute") if pair is None else
                   failed("bases-commute", {"b": pair[0], "c": pair[1]}))
        for view, label in ((self.b_view, "B"), (self.c_view, "C")):
            span = action_span_dim(alg, view)
            if span != d:
                report.add(failed("bases-act-fully", {"algebra": label, "span": span}))
                return report
        report.add(passed("bases-act-fully"))
        witness = self._anti_isomorphism_failure()
        report.add(passed("base-anti-isomorphisms") if witness is None else
                   failed("base-anti-isomorphisms", witness))
        return report

    def _anti_isomorphism_failure(self) -> dict | None:
        """S_B, then S_C, not a map between its bases (with its shape)
        or not bijective (with its rank), else the first basis pair where
        S_B, then S_C, is not anti-multiplicative."""
        b, c = self.b_view.algebra, self.c_view.algebra
        maps = {"S_B": (self.s_b, b, c), "S_C": (self.s_c, c, b)}
        for name, (m, source, target) in maps.items():
            if (m.nrows, m.ncols) != (target.dim, source.dim):
                return {"map": name, "shape": [m.nrows, m.ncols]}
            if not m.is_bijective():
                return {"map": name, "rank": m.rank()}
        for name, (m, source, target) in maps.items():
            pair = first_anti_homomorphism_failure(m, source, target)
            if pair is not None:
                return {"map": name, "pair": [source.labels[i] for i in pair]}
        return None


class MultiplierHopfAlgebroid:
    """Compatible left and right coproducts over a quantum graph pair."""

    def __init__(self, graph: QuantumGraphPair, delta_b: list[Vec],
                 delta_c: list[Vec], eps_b: LinMap, eps_c: LinMap,
                 antipode: LinMap):
        self.graph = graph
        self.algebra = graph.algebra
        self.t2 = graph.t2
        self.delta_b = [dict(v) for v in delta_b]
        self.delta_c = [dict(v) for v in delta_c]
        self.eps_b = eps_b
        self.eps_c = eps_c
        self.antipode = antipode
        # representative slices: r* of Delta_B, l* of Delta_C
        self.slices = CoproductSlices(self.t2, self.delta_b, self.delta_c)
        self.maps = CanonicalMaps(self.slices, antipode)
        # name -> "generators", "rank" or "columns": how
        # ``algebroid_canonical_maps`` decided each map it reached
        self.canonical_paths: dict[str, str] = {}

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
    si = bundle.maps.antipode_pair()[1]
    d = bundle.dim
    eps_b = LinMap(d, d, [si.apply(bundle.target_value(i)) for i in range(d)])
    eps_c = LinMap(d, d, [si.apply(bundle.source_value(i)) for i in range(d)])
    alg = MultiplierHopfAlgebroid(
        graph,
        delta_b=[dict(v) for v in bundle.delta],
        delta_c=[dict(v) for v in bundle.delta],
        eps_b=eps_b, eps_c=eps_c,
        antipode=bundle.antipode)
    alg.maps = bundle.maps.over(alg.slices)
    return alg, report


# -- checks ---------------------------------------------------------------

def _modulo(bal: BalancedTensorSpace, lhs, rhs):
    """The law lhs = rhs in a balanced quotient: P(lhs - rhs) against 0."""
    return (lambda *index: bal.project(vsub(lhs(*index), rhs(*index))), lambda *index: {})


def check_regularity(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Delta_B(a)(x (x) 1) = Delta_B(a)(1 (x) S_B(x)) in the l-quotient
    and the mirrored condition for Delta_C in the r-quotient."""
    graph, t2, db, dc = alg.graph, alg.t2, alg.delta_b, alg.delta_c
    xs, ys = graph.b_elements(), graph.c_elements()
    bad = first_failure((alg.dim, 2, len(xs)), by_side([
        [_modulo(graph.balanced("l"), lambda a, i: t2.mul_right_leg1(db[a], xs[i]),
                 lambda a, i: t2.mul_right_leg2(db[a], graph.s_b_element(i)))],
        [_modulo(graph.balanced("r"), lambda a, i: t2.mul_left_leg2(ys[i], dc[a]),
                 lambda a, i: t2.mul_left_leg1(graph.s_c_element(i), dc[a]))]], axis=1))
    if bad is None:
        return passed("coproducts-regular")
    (a, side, i), _, _, _ = bad
    return failed(("left-coproduct-regular", "right-coproduct-regular")[side],
                  {"basis": alg.algebra.labels[a], ("b_index", "c_index")[side]: i})


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
    graph, t2, db, dc, mul = alg.graph, alg.t2, alg.delta_b, alg.delta_c, alg.algebra.mul
    bal_l, bal_r = graph.balanced("l"), graph.balanced("r")
    xs, ys = graph.b_elements(), graph.c_elements()
    bad = first_failure((alg.dim, 2, len(xs)), by_side([
        [_modulo(bal_l, lambda a, i: lincomb(mul(xs[i], unit_vec(a)), db),
                 lambda a, i: t2.mul_left_leg2(xs[i], db[a])),
         _modulo(bal_r, lambda a, i: lincomb(mul(unit_vec(a), xs[i]), dc),
                 lambda a, i: t2.mul_right_leg2(dc[a], xs[i]))],
        [_modulo(bal_l, lambda a, i: lincomb(mul(ys[i], unit_vec(a)), db),
                 lambda a, i: t2.mul_left_leg1(ys[i], db[a])),
         _modulo(bal_r, lambda a, i: lincomb(mul(unit_vec(a), ys[i]), dc),
                 lambda a, i: t2.mul_right_leg1(dc[a], ys[i]))]], axis=1))
    if bad is None:
        return passed("coproduct-base-behavior")
    (a, side, i), k, _, _ = bad
    return failed(("left-coproduct-base-behavior", "right-coproduct-base-behavior")[k],
                  {"basis": alg.algebra.labels[a], "side": "BC"[side],
                   ("b_index", "c_index")[side]: i})


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


def check_canonical_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """The record of ``algebroid_canonical_maps``.  On a forward-built
    algebroid it also gives the square T_rho pi_s = pi_l T_1 with the
    source bundle's T_1 (pi the class maps): ``forward_construct`` sets
    Delta_B = Delta_C = Delta on the bundle's tensor square, so column
    (a, b) of T_rho, Delta(e_a)(1 (x) e_b), is that of T_1, and the square
    says P_l T_1 P_s = P_l T_1, the well-definedness of T_rho just
    decided."""
    try:
        shapes = algebroid_canonical_maps(alg)
    except NotBijective as exc:
        return failed("algebroid-canonical-maps-bijective", {"error": str(exc)})
    detail = ", ".join(f"{k}: {rows}x{cols}" for k, (rows, cols) in sorted(shapes.items()))
    return passed("algebroid-canonical-maps-bijective", detail=detail)


def check_counital_maps(alg: MultiplierHopfAlgebroid) -> CheckRecord:
    """Module relations and both counit diagrams for eps_B and eps_C."""
    graph, t2, d = alg.graph, alg.t2, alg.dim
    alg_a = alg.algebra
    b_sub = graph.b_view.subspace
    c_sub = graph.c_view.subspace
    img_b, img_c = (Subspace.from_vectors(d, m.cols) for m in (alg.eps_b, alg.eps_c))
    if img_b != b_sub:
        return failed("left-counital-image", {"dim": img_b.dim, "B_dim": b_sub.dim})
    if img_c != c_sub:
        return failed("right-counital-image", {"dim": img_c.dim, "C_dim": c_sub.dim})
    xs, ys, mul = graph.b_elements(), graph.c_elements(), alg_a.mul
    eps_b, eps_c = alg.eps_b.cols, alg.eps_c.cols
    bad = first_failure((d, 2, len(xs)), by_side([
        [(lambda a, i: alg.eps_b.apply(mul(xs[i], unit_vec(a))),
          lambda a, i: mul(xs[i], eps_b[a])),
         (lambda a, i: alg.eps_b.apply(mul(graph.s_b_element(i), unit_vec(a))),
          lambda a, i: mul(eps_b[a], xs[i]))],
        [(lambda a, i: alg.eps_c.apply(mul(unit_vec(a), ys[i])),
          lambda a, i: mul(eps_c[a], ys[i])),
         (lambda a, i: alg.eps_c.apply(mul(unit_vec(a), graph.s_c_element(i))),
          lambda a, i: mul(ys[i], eps_c[a]))]], axis=1))
    if bad is not None:
        (a, side, i), k, _, _ = bad
        return failed(("left-counital-module-law", "right-counital-module-law")[side],
                      {"basis": alg_a.labels[a], ("b_index", "c_index")[side]: i,
                       "law": (("eps_B(xa)=x eps_B(a)", "eps_B(S_B(x)a)=eps_B(a)x"),
                               ("eps_C(ay)=eps_C(a)y", "eps_C(a S_C(y))=y eps_C(a)"))[side][k]})
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
    s, maps = alg.antipode, alg.maps
    if maps.antipode_inv is None:
        return failed("algebroid-antipode-bijective", {"rank": s.rank()})
    if maps.antihom_failure is not None:
        return failed("algebroid-antipode-antihomomorphism",
                      {"pair": [alg.algebra.labels[i] for i in maps.antihom_failure[0]]})
    graph = alg.graph
    xs, ys = graph.b_elements(), graph.c_elements()
    bad = first_failure((2, len(xs)), by_side([
        [(lambda i: s.apply(xs[i]), graph.s_b_element)],
        [(lambda i: s.apply(ys[i]), graph.s_c_element)]]))
    if bad is not None:
        (side, i), _, _, _ = bad
        return failed("antipode-restriction", {"side": "BC"[side], "index": i})
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
