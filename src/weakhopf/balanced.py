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
the bundle it was built from shares that bundle's maps.  Elements of a
balanced product are then stored as their section images.  Without a
separating functional the quotient coordinates are the non-pivot
coordinates of the relation space's echelon form: pi reduces modulo the
relations and theta picks the unit vectors there.

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
from .linalg import LinMap, Subspace, Vec, unit_vec, vsub, vtensor

# kind -> (base, which): the relators and the section are columns of
# ``TensorSquare._covered_map`` under the flags PROJECTION_FLAGS[which];
# the section is the map E ("EL", "ER") or F_which cuts out
SIDES = {"l": ("B", "EL"), "r": ("C", "ER"), "s": ("B", 1), "t": ("C", 2),
         "s-up": ("B", 3), "t-up": ("C", 4)}
KINDS = tuple(SIDES)


class BalancedTensorError(ValueError):
    pass


class BalancedTensorSpace:
    """One balanced tensor product with quotient map and section."""

    def __init__(self, kind: str, t2: TensorSquare, relations: Subspace,
                 section: Projection | None):
        self.kind = kind
        self.t2 = t2
        self.relations = relations
        self.q_dim = t2.size - relations.dim
        self.projector = projector = None if section is None else section.map
        if section is not None:
            image = section.image
            if image.dim != self.q_dim:
                raise BalancedTensorError(
                    f"section rank {image.dim} != quotient dim {self.q_dim} for {kind}")
            for r in relations.rows:
                if projector.apply(r):
                    raise BalancedTensorError(
                        f"section projector does not kill the {kind} relations")
            if projector @ projector != projector:
                raise BalancedTensorError(f"section composite not idempotent for {kind}")
            self.image = image
            self.theta = LinMap(t2.size, self.q_dim,
                                [dict(r) for r in image.rows])
            self.pi = LinMap(self.q_dim, t2.size,
                             [image.coords(col) for col in projector.cols])
        else:
            self.image = None
            pivots = set(relations.pivots)
            self.theta = LinMap(t2.size, self.q_dim,
                                [unit_vec(f) for f in range(t2.size) if f not in pivots])
            self.pi = relations.quotient_map()

    def project(self, x: Vec) -> Vec:
        """Coordinates of the class of x in the quotient."""
        return self.pi.apply(x)

    def equivalent(self, x: Vec, y: Vec) -> bool:
        d = vsub(x, y)
        if not d:
            return True
        if self.projector is not None:
            return not self.projector.apply(d)
        return self.relations.contains(d)

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
    f = graph.e_element if which in ("EL", "ER") else graph.f_element(which, graph.e_coords)
    return graph.t2.projection(f, which)


def build_balanced(kind: str, graph) -> BalancedTensorSpace:
    if kind not in KINDS:
        raise BalancedTensorError(f"unknown kind {kind}")
    t2 = graph.t2
    relations = Subspace.from_vectors(t2.size, relation_generators(kind, graph))
    return BalancedTensorSpace(kind, t2, relations, section_projector(kind, graph))


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
        blocks: dict[int, Vec] = {}
        for p, c in x.items():
            hi, lo = divmod(p, d if legs == 12 else d * d)
            pair, other = (hi, lo) if legs == 12 else (lo, hi)
            blocks.setdefault(other, {})[pair] = c
        out: Vec = {}
        for other, block in blocks.items():
            for pair, c in m.apply(block).items():
                out[pair * d + other if legs == 12 else other * d * d + pair] = c
        return out

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
