"""Balanced tensor products of A with itself over the base algebras.

Six quotients of A (x) A are supported, keyed "l", "r", "s", "t",
"s-up", "t-up", with defining relations (x in B, y in C):

    l:     xa (x) b  =  a (x) S_B(x) b
    r:     a (x) by  =  a S_C(y) (x) b
    s:     ax (x) b  =  a (x) xb
    t:     a (x) yb  =  ay (x) b
    s-up:  xa (x) b  =  a (x) bx
    t-up:  a (x) by  =  ya (x) b

A balanced product is one idempotent P on A (x) A with ker P = R, the
relation space, held by its columns P(e_j), each computed on first use:
x and y are equal in the quotient when P(x - y) = 0, and the quotient
has dimension rank P.  When B has a separating functional with modular
automorphism (S_C S_B)^-1, the graph pair finds its idempotent itself,
from a file as in memory (``QuantumGraphPair.separability``), and P is
the section it cuts out: for "l"/"r" one-sided multiplication with the
idempotent, for the other four the twisted projectors of its antipodal
twists, applied off the element (``Projection.apply``), with
rank P = tr P; no d^2 x d^2 map is built and R is never generated.
Otherwise P is reduction modulo R (``Subspace.reduce``): linear, zero
exactly on R, and fixing the unit vectors at the non-pivots of R's
reduced echelon form, so rank P = d^2 - dim R.

Quotient coordinates, read only to name a failing canonical map, are
those of P(x) over the reduced echelon basis of im P
(``BalancedTensorSpace.image``).  That form is canonical: it is the
echelon form of the section's image, or the unit vectors at the
non-pivots of R in order, where P(x) has its entries there as coordinates.

Why ker P = R on the section path.  Write E = sum f_i (x) g_i in B (x) C.
The pair holds E only when every invariant of
``SeparabilityIdempotent.check_invariants`` holds with the pair's S_C:

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
ker P is contained in R, hence equal to it.  In particular tr P = rank P.

Triple quotients appear in coassociativity checks: x in A (x) A (x) A is
trivial when it lies in R12 (x) A + A (x) R23.  N = P12 (x) id has kernel
R12 (x) A, so x is trivial exactly when N(x) lies in W = N(A (x) R23)
(x = u + v with N(u) = 0 gives N(x) = N(v), and N(x) = N(v) gives
x - v in ker N).  With sections membership is one composition of the
leg-pair projectors (``TripleQuotient.contains``); without them only W
is echelonized, inside A (x) A (x) A, spanned by the N(e_i (x) r) for the
rows r of R23, and nothing of dimension d^3 is row-reduced.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import TensorSquare
from .linalg import Subspace, Vec, on_leg, unit_vec, vaxpy, vsub, vtensor
from .slices import PROJECTION_FLAGS, Projection

# kind -> (base, which): the relators are columns of
# ``TensorSquare._covered_map`` under the flags PROJECTION_FLAGS[which],
# and the section is the map E ("EL", "ER") or F_which cuts out under them
SIDES = {"l": ("B", "EL"), "r": ("C", "ER"), "s": ("B", 1), "t": ("C", 2),
         "s-up": ("B", 3), "t-up": ("C", 4)}
KINDS = tuple(SIDES)


class BalancedTensorError(ValueError):
    pass


class BalancedTensorSpace:
    """One balanced tensor product: the idempotent P with ker P = R, the
    section ``projector`` (then ``relations`` is None) or else reduction
    modulo ``relations`` (then ``projector`` is None)."""

    def __init__(self, kind: str, t2: TensorSquare, relations: Subspace | None,
                 section: Projection | None):
        self.kind = kind
        self.t2 = t2
        self.relations = relations
        self.projector = section
        if section is not None:         # rank P = tr P, as an int
            self.q_dim, self._p = int(section.trace), section.apply
        else:
            self.q_dim, self._p = t2.size - relations.dim, relations.reduce
        self._columns: dict[int, Vec] = {}

    def column(self, j: int) -> Vec:
        """P(e_j), computed once."""
        got = self._columns.get(j)
        if got is None:
            got = self._columns[j] = self._p(unit_vec(j))
        return got

    def project(self, x: Vec) -> Vec:
        """P(x) in A (x) A, summed from the columns of x's support."""
        out: Vec = {}
        for j, c in x.items():
            vaxpy(out, c, self.column(j))
        return out

    def equivalent(self, x: Vec, y: Vec) -> bool:
        return not self.project(vsub(x, y))

    @cached_property
    def image(self) -> Subspace:
        """im P in reduced echelon form (module docstring)."""
        size = self.t2.size
        if self.relations is None:
            return Subspace.from_vectors(size, map(self.column, range(size)))
        pivots = set(self.relations.pivots)
        return Subspace.from_vectors(size, (unit_vec(f) for f in range(size) if f not in pivots))


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
    """The section P on A (x) A: the map the idempotent ("l", "r") or its
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
        self.space12 = graph.balanced(kind12)
        self.space23 = graph.balanced(kind23)
        self._small = self.space12.projector is None or self.space23.projector is None
        if self._small:
            self._relations = self._relation_subspace()

    def _relation_subspace(self) -> Subspace:
        """W = (P12 (x) id)(A (x) R23) inside A (x) A (x) A."""
        d = self.d
        sub = Subspace(d ** 3)
        for rel in self.space23.relations.rows:
            for i in range(d):
                sub.insert(self._apply(self.space12.column,
                                       {i * d * d + p: c for p, c in rel.items()}, 12))
        return sub

    def _apply(self, column, x: Vec, legs: int) -> Vec:
        """The map with columns column(j) on legs (1,2) blockwise over
        leg 3 (legs 12), or on legs (2,3) blockwise over leg 1 (legs 23)."""
        d = self.d
        return on_leg(x, d if legs == 12 else 1, d * d, column, d * d)

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
        sections: x is trivial exactly when (P12 (x) id)(x) lies in W.
        """
        if not x:
            return True
        if self._small:
            return self._relations.contains(self._apply(self.space12.column, x, 12))
        return not self._apply(self.space23.column, self._apply(self.space12.column, x, 12), 23)

    def equivalent(self, x: Vec, y: Vec) -> bool:
        return self.contains(vsub(x, y))
