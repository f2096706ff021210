"""Finite and countable groupoids and their function algebras.

A finite groupoid is stored as explicit arrow tables; its function
algebra K(G) is the pointwise algebra on the arrow basis, the coproduct
is dual to composition (f goes to (p, q) -> f(pq) when pq is defined),
the antipode is pullback along inversion and the counit sums over
units.  Countable groupoids are handled through pure oracles plus a
finite probe set; see :mod:`weakhopf.lazy`.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .linalg import LinMap, Vec, unit_vec


class GroupoidError(ValueError):
    pass


class InvalidAction(GroupoidError):
    pass


class Groupoid:
    """Finite groupoid with arrows indexed 0..n-1.

    source/target give the index of the unit arrow at the corresponding
    object, composition is a partial dict (i, j) -> k defined exactly
    when source(i) == target(j).
    """

    def __init__(self, arrows: list[str], source: list[int], target: list[int],
                 inverse: list[int], compose: dict[tuple[int, int], int]):
        self.arrows = list(arrows)
        self.size = len(arrows)
        self.source = list(source)
        self.target = list(target)
        self.inverse = list(inverse)
        self.compose = dict(compose)
        self.units = sorted({u for u in source} | {u for u in target})
        self.index = {a: i for i, a in enumerate(arrows)}
        self.validate()

    def validate(self) -> None:
        n = self.size
        comp = self.compose
        for (i, j), k in comp.items():
            if self.source[i] != self.target[j]:
                raise GroupoidError(
                    f"composite defined for non-matching pair {self.arrows[i]}, {self.arrows[j]}")
            if self.source[k] != self.source[j] or self.target[k] != self.target[i]:
                raise GroupoidError(f"composite {self.arrows[k]} has wrong ends")
        for i in range(n):
            for j in range(n):
                if self.source[i] == self.target[j] and (i, j) not in comp:
                    raise GroupoidError(
                        f"missing composite of {self.arrows[i]}, {self.arrows[j]}")
        for i in range(n):
            for j in range(n):
                if (i, j) not in comp:
                    continue
                for k in range(n):
                    if (j, k) not in comp:
                        continue
                    if comp[(comp[(i, j)], k)] != comp[(i, comp[(j, k)])]:
                        raise GroupoidError(
                            f"associativity fails at {self.arrows[i]}, "
                            f"{self.arrows[j]}, {self.arrows[k]}")
        for u in self.units:
            if comp.get((u, u)) != u:
                raise GroupoidError(f"unit {self.arrows[u]} is not idempotent")
        for i in range(n):
            inv = self.inverse[i]
            if comp.get((i, inv)) != self.target[i]:
                raise GroupoidError(f"{self.arrows[i]} * inverse is not the target unit")
            if comp.get((inv, i)) != self.source[i]:
                raise GroupoidError(f"inverse * {self.arrows[i]} is not the source unit")

    def is_unit(self, i: int) -> bool:
        return i in self.units

    def __repr__(self):
        return f"Groupoid({self.size} arrows, {len(self.units)} units)"


def pair_groupoid(n: int) -> Groupoid:
    """Arrows (i, j) over n points; (i, j) * (j, k) = (i, k)."""
    if n < 1:
        raise GroupoidError("need at least one point")
    arrows = [f"({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)]

    def idx(i, j):
        return (i - 1) * n + (j - 1)

    source = [idx(j, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    target = [idx(i, i) for i in range(1, n + 1) for j in range(1, n + 1)]
    inverse = [idx(j, i) for i in range(1, n + 1) for j in range(1, n + 1)]
    compose = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                compose[(idx(i, j), idx(j, k))] = idx(i, k)
    return Groupoid(arrows, source, target, inverse, compose)


class GroupTable:
    """Finite group given by a multiplication table on labels."""

    def __init__(self, elements: list[str], mul: dict[tuple[str, str], str]):
        self.elements = list(elements)
        self.mul = dict(mul)
        ident = None
        for e in elements:
            if all(mul[(e, x)] == x and mul[(x, e)] == x for x in elements):
                ident = e
                break
        if ident is None:
            raise GroupoidError("table has no identity")
        self.identity = ident
        self.inv = {}
        for x in elements:
            for y in elements:
                if mul[(x, y)] == ident and mul[(y, x)] == ident:
                    self.inv[x] = y
        if len(self.inv) != len(elements):
            raise GroupoidError("table has non-invertible element")
        for x in elements:
            for y in elements:
                for z in elements:
                    if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
                        raise GroupoidError(f"non-associative at {x},{y},{z}")


def cyclic_group(n: int) -> GroupTable:
    elems = [f"g{k}" for k in range(n)]
    mul = {(f"g{a}", f"g{b}"): f"g{(a + b) % n}" for a in range(n) for b in range(n)}
    return GroupTable(elems, mul)


def action_groupoid(group: GroupTable, points: list[str],
                    action: dict[tuple[str, str], str]) -> Groupoid:
    """Left action h.x; arrows are triples (h.x, h, x)."""
    for x in points:
        if action.get((group.identity, x)) != x:
            raise InvalidAction(f"identity must fix {x}")
    for h in group.elements:
        for k in group.elements:
            for x in points:
                if action[(h, action[(k, x)])] != action[(group.mul[(h, k)], x)]:
                    raise InvalidAction(f"action fails at ({h}, {k}, {x})")

    triples = [(action[(h, x)], h, x) for h in group.elements for x in points]
    arrows = [f"({y},{h},{x})" for (y, h, x) in triples]
    idx = {t: i for i, t in enumerate(triples)}

    def unit_of(x):
        return idx[(x, group.identity, x)]

    source = [unit_of(x) for (_, _, x) in triples]
    target = [unit_of(y) for (y, _, _) in triples]
    inverse = [idx[(x, group.inv[h], y)] for (y, h, x) in triples]
    compose = {}
    for a, (y, h, u) in enumerate(triples):
        for b, (v, k, x) in enumerate(triples):
            if u == v:
                compose[(a, b)] = idx[(action[(group.mul[(h, k)], x)],
                                       group.mul[(h, k)], x)]
    return Groupoid(arrows, source, target, inverse, compose)


def group_groupoid(group: GroupTable) -> Groupoid:
    """A group seen as a one-object groupoid."""
    return action_groupoid(group, ["*"],
                           {(h, "*"): "*" for h in group.elements})


# -- the function algebra K(G) and its Hopf-type structure -------------

def function_algebra(g: Groupoid) -> FiniteAlgebra:
    """Pointwise algebra on the arrow basis."""
    n = len(g.arrows)
    return FiniteAlgebra(list(g.arrows), [[{i: 1} if i == j else {} for j in range(n)]
                                          for i in range(n)], associative=True)


def coproduct_element(g: Groupoid, f: Vec) -> Vec:
    """Image of f under the composition-dual coproduct, as an element of
    K(G) (x) K(G) (G finite, so the multiplier is an honest element)."""
    out: Vec = {}
    n = g.size
    for (p, q), r in g.compose.items():
        c = f.get(r)
        if c:
            out[p * n + q] = c
    return out


def composability_element(g: Groupoid) -> Vec:
    """Indicator of composable pairs in K(G) (x) K(G)."""
    n = g.size
    return {p * n + q: 1 for (p, q) in g.compose}


def antipode_map(g: Groupoid) -> LinMap:
    """Pullback along arrow inversion."""
    return LinMap.from_entries(g.size, g.size,
                               {(g.inverse[p], p): 1 for p in range(g.size)})


def counit_functional(g: Groupoid) -> Vec:
    """Row vector summing a function over the units."""
    return {u: 1 for u in g.units}


def source_indicator(g: Groupoid, u: int) -> Vec:
    """Indicator of arrows whose source is the unit u."""
    return {p: 1 for p in range(g.size) if g.source[p] == u}


def target_indicator(g: Groupoid, u: int) -> Vec:
    return {p: 1 for p in range(g.size) if g.target[p] == u}


def as_wmha(g: Groupoid):
    """Bundle K(G) with coproduct, counit, antipode and canonical
    idempotent; the result is ready for the full axiom suite."""
    from .wmha import WeakMultiplierHopfAlgebra

    alg = function_algebra(g)
    deltas = [coproduct_element(g, unit_vec(i)) for i in range(g.size)]
    return WeakMultiplierHopfAlgebra(
        algebra=alg,
        delta=deltas,
        counit=counit_functional(g),
        antipode=antipode_map(g),
        canonical_idempotent=composability_element(g),
    )
