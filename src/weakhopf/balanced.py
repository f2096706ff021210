"""Balanced tensor products of A with itself over the base algebras.

Six quotients of A (x) A are supported, keyed "l", "r", "s", "t",
"s-up", "t-up", with defining relations (x in B, y in C):

    l:     xa (x) b  =  a (x) S_B(x) b
    r:     a (x) by  =  a S_C(y) (x) b
    s:     ax (x) b  =  a (x) xb
    t:     a (x) yb  =  ay (x) b
    s-up:  xa (x) b  =  a (x) bx
    t-up:  a (x) by  =  ya (x) b

When the base carries a separability idempotent, each quotient splits
concretely inside A (x) A: for "l"/"r" by one-sided multiplication with
the idempotent, for the other four by the sandwich maps built from its
antipodal twists.  Elements of a balanced product are then stored as
their section images.  Without an idempotent only the quotient map is
available (echelon-complement coordinates).

Triple quotients appear in coassociativity checks.  Membership of a
difference vector in the triple relation space is decided through the
composed leg-pair projectors; the kernel of that composition is
contained in the relation space unconditionally, so the test can never
wrongly accept.
"""

from __future__ import annotations

from .algebra import TensorSquare
from .linalg import LinMap, Span, Subspace, Vec, unit_vec, vsub, vtensor

KINDS = ("l", "r", "s", "t", "s-up", "t-up")


class BalancedTensorError(ValueError):
    pass


class BalancedTensorSpace:
    """One balanced tensor product with quotient map and section."""

    def __init__(self, kind: str, t2: TensorSquare, relations: Subspace,
                 projector: LinMap | None):
        self.kind = kind
        self.t2 = t2
        self.relations = relations
        self.q_dim = t2.size - relations.dim
        self.projector = projector
        if projector is not None:
            image = projector.image()
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
            self._coords = Span(t2.size)
            for row in image.rows:
                self._coords.add(row)
            self.theta = LinMap(t2.size, self.q_dim,
                                [dict(r) for r in image.rows])
            pi_cols = []
            for j in range(t2.size):
                c = self._coords.express(projector.apply(unit_vec(j)))
                if c is None:
                    raise BalancedTensorError("projector image escaped its span")
                pi_cols.append(c)
            self.pi = LinMap(self.q_dim, t2.size, pi_cols)
        else:
            self.image = None
            self.theta = None
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

    def section_splits_quotient(self) -> bool:
        """pi o theta = identity on the quotient."""
        if self.theta is None:
            return False
        return self.pi @ self.theta == LinMap.identity(self.q_dim)

    def __repr__(self):
        return f"BalancedTensorSpace({self.kind}, dim {self.q_dim})"


def relation_generators(kind: str, graph) -> list[Vec]:
    """Spanning relators of the kind's defining relation subspace.

    ``graph`` provides: algebra, t2, b_elements(), c_elements(),
    s_b_element(i), s_c_element(j).
    """
    alg = graph.algebra
    t2 = graph.t2
    d = alg.dim
    gens: list[Vec] = []
    if kind in ("l", "s", "s-up"):
        outer = [(x, graph.s_b_element(i)) for i, x in enumerate(graph.b_elements())]
    else:
        outer = [(y, graph.s_c_element(j)) for j, y in enumerate(graph.c_elements())]
    for a in range(d):
        ea = unit_vec(a)
        for b in range(d):
            eb = unit_vec(b)
            plain = vtensor(ea, eb, d)
            for w, sw in outer:
                if kind == "l":
                    lhs = t2.mul_left_leg1(w, plain)
                    rhs = t2.mul_left_leg2(sw, plain)
                elif kind == "r":
                    lhs = t2.mul_right_leg2(plain, w)
                    rhs = t2.mul_right_leg1(plain, sw)
                elif kind == "s":
                    lhs = t2.mul_right_leg1(plain, w)
                    rhs = t2.mul_left_leg2(w, plain)
                elif kind == "t":
                    lhs = t2.mul_left_leg2(w, plain)
                    rhs = t2.mul_right_leg1(plain, w)
                elif kind == "s-up":
                    lhs = t2.mul_left_leg1(w, plain)
                    rhs = t2.mul_right_leg2(plain, w)
                elif kind == "t-up":
                    lhs = t2.mul_right_leg2(plain, w)
                    rhs = t2.mul_left_leg1(w, plain)
                else:
                    raise BalancedTensorError(f"unknown kind {kind}")
                gens.append(vsub(lhs, rhs))
    return gens


def section_projector(kind: str, graph) -> LinMap | None:
    """theta o pi on A (x) A, realized by idempotent multiplications."""
    if getattr(graph, "e_element", None) is None:
        return None
    t2 = graph.t2
    e = graph.e_element
    if kind == "l":
        return t2.left_mult_map(e)
    if kind == "r":
        return t2.right_mult_map(e)
    which = {"s": 1, "t": 2, "s-up": 3, "t-up": 4}[kind]
    return t2.twisted_projector(graph.f_element(which), which)


def build_balanced(kind: str, graph) -> BalancedTensorSpace:
    if kind not in KINDS:
        raise BalancedTensorError(f"unknown kind {kind}")
    t2 = graph.t2
    relations = Subspace.from_vectors(t2.size, relation_generators(kind, graph))
    projector = section_projector(kind, graph)
    return BalancedTensorSpace(kind, t2, relations, projector)


def ranges_of_sections(space: BalancedTensorSpace):
    """The subspace of A (x) A realized by the section: multiplication
    by the idempotent for the one-sided kinds, the sandwich images for
    the others."""
    if space.image is None:
        raise BalancedTensorError(f"no section available for {space.kind}")
    return space.image


class TripleQuotient:
    """A (x) A (x) A modulo one balanced relation on legs (1,2) and one
    on legs (2,3)."""

    def __init__(self, graph, kind12: str, kind23: str):
        self.graph = graph
        self.d = graph.algebra.dim
        self.kind12 = kind12
        self.kind23 = kind23
        self.space12 = build_balanced(kind12, graph)
        self.space23 = build_balanced(kind23, graph)
        self._small = self.space12.projector is None or self.space23.projector is None
        if self._small:
            self._relations = self._relation_subspace()

    def _relation_subspace(self) -> Subspace:
        d = self.d
        sub = Subspace(d ** 3)
        for rel in self.space12.relations.rows:
            for k in range(d):
                sub.insert(vtensor(rel, unit_vec(k), d))
        for rel in self.space23.relations.rows:
            for i in range(d):
                out: Vec = {}
                base = i * d * d
                for p, c in rel.items():
                    out[base + p] = c
                sub.insert(out)
        return sub

    def _apply12(self, x: Vec) -> Vec:
        """Leg-(1,2) projector applied blockwise over leg 3."""
        d = self.d
        blocks: dict[int, Vec] = {}
        for p, c in x.items():
            pq, k = divmod(p, d)
            blocks.setdefault(k, {})[pq] = c
        out: Vec = {}
        for k, block in blocks.items():
            img = self.space12.projector.apply(block)
            for pq, c in img.items():
                out[pq * d + k] = c
        return out

    def _apply23(self, x: Vec) -> Vec:
        d = self.d
        blocks: dict[int, Vec] = {}
        for p, c in x.items():
            i, qr = divmod(p, d * d)
            blocks.setdefault(i, {})[qr] = c
        out: Vec = {}
        for i, block in blocks.items():
            img = self.space23.projector.apply(block)
            base = i * d * d
            for qr, c in img.items():
                out[base + qr] = c
        return out

    def contains(self, x: Vec) -> bool:
        """Is x in the triple relation space?

        With sections: the kernel of the composed projectors is always
        inside the relation space, so a True answer is trustworthy in
        both orders of composition.
        """
        if not x:
            return True
        if self._small:
            return self._relations.contains(x)
        return (not self._apply23(self._apply12(x))
                and not self._apply12(self._apply23(x)))

    def equivalent(self, x: Vec, y: Vec) -> bool:
        return self.contains(vsub(x, y))
