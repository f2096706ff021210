"""Balanced tensor products of A with itself over the base algebras.

Six quotients of A (x) A are supported, keyed "l", "r", "s", "t",
"s-up", "t-up", with defining relations (x in B, y in C):

    l:     xa (x) b  =  a (x) S_B(x) b
    r:     a (x) by  =  a S_C(y) (x) b
    s:     ax (x) b  =  a (x) xb
    t:     a (x) yb  =  ay (x) b
    s-up:  xa (x) b  =  a (x) bx
    t-up:  a (x) by  =  ya (x) b

When B has a separating functional with modular automorphism
(S_C S_B)^-1, the graph pair finds its idempotent itself, from a file as
in memory (``QuantumGraphPair.separability``), and each quotient splits
concretely inside A (x) A: for "l"/"r" by one-sided multiplication with
the idempotent, for the other four by the twisted projectors of its
antipodal twists.  The six sections and their images come from
``TensorSquare.projection``, so a graph pair holding the tensor square of
the bundle it was built from shares that bundle's maps.  A balanced
product is then its section P alone: theta is a basis of im P, pi the
coordinates of P in it, and the relation space R is never built.
Without a separating functional the quotient coordinates are the
non-pivot coordinates of R's echelon form: pi reduces modulo R and
theta picks the unit vectors there.  On both paths ker pi = R.

Why ker P = R.  Write E = sum f_i (x) g_i in B (x) C.  The pair holds E
only when every invariant of ``SeparabilityIdempotent.check_invariants``
holds with the pair's S_C:

    E^2 = E;
    antipodal-B:  E(x (x) 1) = E(1 (x) S_B x);
    antipodal-C:  (1 (x) y)E = (S_C y (x) 1)E;
    integral-B:   (phi_B (x) id)E = 1;
    integral-C:   (id (x) phi_C)E = 1.

The graph-pair checks ``bases-act-fully`` and ``base-anti-isomorphisms``
precede every balanced product: 1_B = 1_C = 1_A, and S_B, S_C are
unital anti-isomorphisms.  Two identities follow:

    UB:  u = sum S_B(f_i) g_i is 1.  By antipodal-B at x = f_i,
         E = E^2 = E(1 (x) u); slice by phi_B and use integral-B.
    UC:  v = sum f_i S_C(g_i) is 1.  By antipodal-C at y = g_i,
         E = E^2 = (v (x) 1)E; slice by phi_C and use integral-C.

Per kind, P kills each relator by one antipodal identity, carried into
B (x) B or C (x) C by the leg map that builds P, and a (x) b - P(a (x) b)
is a sum of relators: move the factor of E on one leg across by the
relation and collapse the sum by UB or UC.

    kind  P from                  P kills R by                im(1-P) in R by
    l     y -> Ey                 antipodal-B                 UB
    r     y -> yE                 antipodal-C                 UC
    s     F_1 = (id (x) S_C)E     antipodal-C through S_C     UC
    t     F_2 = (S_B (x) id)E     antipodal-B through S_B     UB
    s-up  F_3 = (id (x) S_B^-1)E  antipodal-B through S_B^-1  S_B^-1 of UB
    t-up  F_4 = (S_C^-1 (x) id)E  antipodal-C through S_C^-1  S_C^-1 of UC

So y - Py lies in R, which lies in ker P: P^2 = P, im(1-P) = ker P, and
ker P is contained in R, hence equal to it.

Triple quotients appear in coassociativity checks: a difference x in
A (x) A (x) A is trivial when it lies in R12 (x) A + A (x) R23, with R12
and R23 the relation spaces on legs (1,2) and (2,3).  With sections,
membership is decided exactly by one composition of the leg-pair
projectors (``TripleQuotient.contains``).  Without them,
N = pi12 (x) id has kernel exactly R12 (x) A, so x is trivial exactly
when N(x) lies in W = N(A (x) R23) inside Q12 (x) A.  Only W is
echelonized, spanned by N(e_i (x) r) for the rows r of R23; nothing of
dimension d^3 is row-reduced.
"""

from __future__ import annotations

from .algebra import PROJECTION_FLAGS, Projection, TensorSquare
from .linalg import LinMap, Subspace, Vec, on_leg, unit_vec, vsub, vtensor

# kind -> (base, which): the relators and the section are columns of
# ``TensorSquare._covered_map`` under the flags PROJECTION_FLAGS[which];
# the section is the map E ("EL", "ER") or F_which cuts out
SIDES = {"l": ("B", "EL"), "r": ("C", "ER"), "s": ("B", 1), "t": ("C", 2),
         "s-up": ("B", 3), "t-up": ("C", 4)}
KINDS = tuple(SIDES)


class BalancedTensorError(ValueError):
    pass


class BalancedTensorSpace:
    """One balanced tensor product with quotient map pi and section theta,
    read off the section P (``relations`` None) or else the relation
    space; either way ker pi = R, which ``equivalent`` reads."""

    def __init__(self, kind: str, t2: TensorSquare, relations: Subspace | None,
                 section: Projection | None):
        self.kind = kind
        self.t2 = t2
        self.relations = relations
        if section is not None:
            self.projector = projector = section.map
            self.image = image = section.image
            self.q_dim = image.dim
            self.theta = LinMap(t2.size, self.q_dim, [dict(r) for r in image.rows])
            self.pi = LinMap(self.q_dim, t2.size, [image.coords(col) for col in projector.cols])
        else:
            self.projector = self.image = None
            self.q_dim = t2.size - relations.dim
            pivots = set(relations.pivots)
            self.theta = LinMap(t2.size, self.q_dim,
                                [unit_vec(f) for f in range(t2.size) if f not in pivots])
            self.pi = relations.quotient_map()

    def project(self, x: Vec) -> Vec:
        """Coordinates of the class of x in the quotient."""
        return self.pi.apply(x)

    def equivalent(self, x: Vec, y: Vec) -> bool:
        return not self.pi.apply(vsub(x, y))

    def __repr__(self):
        return f"BalancedTensorSpace({self.kind}, dim {self.q_dim})"


def relation_generators(kind: str, graph) -> list[Vec]:
    """Spanning relators of the kind's defining relation subspace.

    For each w in the kind's base they are the columns of
    ``t2._covered_map(x (x) 1 - 1 (x) y, left1, left2)`` under the kind's
    flags (``SIDES``), with (x, y) = (w, S_B w) for "l", (S_C w, w) for "r"
    and (w, w) otherwise.  ``graph`` provides: algebra, t2, b_elements(),
    c_elements(), s_b_element(i), s_c_element(j).
    """
    base, which = SIDES[kind]
    t2, d, unit = graph.t2, graph.algebra.dim, graph.algebra.unit()
    elements = graph.b_elements() if base == "B" else graph.c_elements()
    gens: list[Vec] = []
    for i, w in enumerate(elements):
        x = graph.s_c_element(i) if kind == "r" else w
        y = graph.s_b_element(i) if kind == "l" else w
        z = vsub(vtensor(x, unit, d), vtensor(unit, y, d))
        gens.extend(t2._covered_map(z, *PROJECTION_FLAGS[which]).cols)
    return gens


def section_projector(kind: str, graph) -> Projection | None:
    """theta o pi on A (x) A: the map the idempotent ("l", "r") or its
    twist F_which cuts out (``SIDES``), or None without an idempotent."""
    if graph.e_element is None:
        return None
    which = SIDES[kind][1]
    f = graph.e_element if which in ("EL", "ER") else graph.f_element(which)
    return graph.t2.projection(f, which)


def relation_space(kind: str, graph) -> Subspace:
    """The kind's defining relation subspace R of A (x) A."""
    return Subspace.from_vectors(graph.t2.size, relation_generators(kind, graph))


def build_balanced(kind: str, graph) -> BalancedTensorSpace:
    if kind not in KINDS:
        raise BalancedTensorError(f"unknown kind {kind}")
    section = section_projector(kind, graph)
    relations = None if section is not None else relation_space(kind, graph)
    return BalancedTensorSpace(kind, graph.t2, relations, section)


class TripleQuotient:
    """A (x) A (x) A modulo one balanced relation on legs (1,2) and one
    on legs (2,3).  It keeps no reference to the graph pair, which
    caches it: without that cycle a dropped pair, with the maps its
    tensor square holds, is freed at once rather than by the cycle
    collector."""

    def __init__(self, graph, kind12: str, kind23: str):
        self.d = graph.algebra.dim
        self.kind12 = kind12
        self.kind23 = kind23
        self.space12 = graph.balanced(kind12)
        self.space23 = graph.balanced(kind23)
        self._small = self.space12.projector is None or self.space23.projector is None
        if self._small:
            self._relations = self._relation_subspace()

    def _relation_subspace(self) -> Subspace:
        """W = (pi12 (x) id)(A (x) R23) inside Q12 (x) A."""
        d = self.d
        sub = Subspace(self.space12.q_dim * d)
        for rel in self.space23.relations.rows:
            for i in range(d):
                base = i * d * d
                sub.insert(self._apply(self.space12.pi,
                                       {base + p: c for p, c in rel.items()}, 12))
        return sub

    def _apply(self, m: LinMap, x: Vec, legs: int) -> Vec:
        """A map on legs (1,2) applied blockwise over leg 3 (legs 12), or
        on legs (2,3) blockwise over leg 1 (legs 23)."""
        d = self.d
        return on_leg(x, d if legs == 12 else 1, d * d, m.cols.__getitem__, m.nrows)

    def contains(self, x: Vec) -> bool:
        """Is x in the triple relation space?

        With sections, P = P12 (x) id and Q = id (x) P23 have kernels
        R12 (x) A and A (x) R23, and x is trivial exactly when QPx = 0.
        Sound: x = (x - Px) + Px.  Exact: P and Q commute, so Pu = 0 = Qv
        gives QP(u + v) = PQv = 0.  Each is left ("l") or right ("r")
        multiplication by E on its legs; left and right ones commute, and
        so do two on one side, as (E (x) 1)(1 (x) E) = (1 (x) E)(E (x) 1):
        E lies in B (x) C, and B and C commute (the algebroid suite's
        ``bases-commute`` precedes every triple check).  Without
        sections: x is trivial exactly when (pi12 (x) id)(x) lies in W.
        """
        if not x:
            return True
        if self._small:
            return self._relations.contains(self._apply(self.space12.pi, x, 12))
        p12, p23 = self.space12.projector, self.space23.projector
        return not self._apply(p23, self._apply(p12, x, 12), 23)

    def equivalent(self, x: Vec, y: Vec) -> bool:
        return self.contains(vsub(x, y))
