"""Finite-dimensional algebras presented by structure constants.

An algebra lives on Q^dim with basis products e_i * e_j given by sparse
structure-constant vectors.  The constructors check (or inherit) the
three structural requirements: associativity, non-degenerate product,
and idempotency (A*A = A).  Multipliers are pairs of action maps; for a
unital algebra they reify to ordinary elements.

``TensorSquare`` holds the only leg-wise product code, for A (x) A and
for B (x) C alike.  ``CoproductSlices`` is the one slice object: it
multiplies a pair of coproduct families by basis covers, caches every
slice per (kind, a, b), and assembles the canonical maps T_1..T_4 from
those slices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .linalg import (LinMap, Span, Subspace, Vec, rat, solve, unit_vec,
                     vaxpy, vtensor)


class AlgebraError(ValueError):
    pass


class NonAssociative(AlgebraError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")


class DegenerateProduct(AlgebraError):
    def __init__(self, side, witness):
        self.side = side
        self.witness = witness
        super().__init__(f"nonzero element annihilates the algebra ({side})")


class NotIdempotent(AlgebraError):
    def __init__(self, dim_product):
        self.dim_product = dim_product
        super().__init__(f"A*A has dimension {dim_product} < dim A")


class FiniteAlgebra:
    """Structure-constants presentation of an algebra over Q."""

    def __init__(self, labels: list[str],
                 mul_basis: Callable[[int, int], Vec],
                 validated: bool = False):
        self.dim = len(labels)
        self.labels = list(labels)
        self._mul_basis = mul_basis
        self._mul_cache: dict[tuple[int, int], Vec] = {}
        self._unit: Vec | None = None
        self._unit_known = False
        if not validated:
            self.validate()

    # -- product ------------------------------------------------------

    def mul_basis(self, i: int, j: int) -> Vec:
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self._mul_basis(i, j)
            self._mul_cache[key] = out
        return out

    def mul(self, x: Vec, y: Vec) -> Vec:
        out: Vec = {}
        for i, c in x.items():
            for j, d in y.items():
                vaxpy(out, c * d, self.mul_basis(i, j))
        return out

    def left_mult(self, x: Vec) -> LinMap:
        """The map y -> x*y."""
        return LinMap(self.dim, self.dim,
                      [self.mul(x, unit_vec(j)) for j in range(self.dim)])

    def right_mult(self, x: Vec) -> LinMap:
        """The map y -> y*x."""
        return LinMap(self.dim, self.dim,
                      [self.mul(unit_vec(j), x) for j in range(self.dim)])

    # -- structural checks --------------------------------------------

    def validate(self) -> None:
        n = self.dim
        for i in range(n):
            for j in range(n):
                eij = self.mul_basis(i, j)
                for k in range(n):
                    left = self.mul(eij, unit_vec(k))
                    right = self.mul(unit_vec(i), self.mul_basis(j, k))
                    if left != right:
                        raise NonAssociative(i, j, k)
        for side, mats in (("left", [self.left_mult(unit_vec(i)) for i in range(n)]),
                           ("right", [self.right_mult(unit_vec(i)) for i in range(n)])):
            # a annihilates iff sum a_i * (mult map of e_i) = 0
            stacked = LinMap(n * n, n)
            for i, m in enumerate(mats):
                col: Vec = {}
                for j, mcol in enumerate(m.cols):
                    for r, c in mcol.items():
                        col[j * n + r] = c
                stacked.cols[i] = col
            ker = stacked.kernel()
            if ker.dim:
                raise DegenerateProduct(side, ker.rows[0])
        prod = Subspace(n)
        for i in range(n):
            for j in range(n):
                prod.insert(self.mul_basis(i, j))
        if prod.dim != n:
            raise NotIdempotent(prod.dim)

    # -- unit ----------------------------------------------------------

    def unit(self) -> Vec | None:
        """Two-sided unit, or None.  With finite dimension this decides
        local units as well."""
        if self._unit_known:
            return self._unit
        n = self.dim
        rows: list[Vec] = []
        rhs: Vec = {}
        # e * e_i = e_i and e_i * e = e_i, all i
        for i in range(n):
            lm = self.right_mult(unit_vec(i))   # e -> e*e_i
            rm = self.left_mult(unit_vec(i))    # e -> e_i*e
            for m in (lm, rm):
                for r, row in enumerate(m.rows()):
                    rows.append(row)
                    if r == i:
                        rhs[len(rows) - 1] = Fraction(1)
        system = LinMap.from_rows(n, rows)
        self._unit = solve(system, rhs)
        self._unit_known = True
        return self._unit

    def __repr__(self):
        return f"FiniteAlgebra(dim {self.dim})"


def make_algebra(labels: list[str], structure: dict | list) -> FiniteAlgebra:
    """Build and fully check an algebra.

    ``structure`` is either a dense nested list c[i][j][k] or a sparse
    dict {(i, j, k): coeff} with e_i e_j = sum_k c[i][j][k] e_k.
    """
    n = len(labels)
    table: list[list[Vec]] = [[{} for _ in range(n)] for _ in range(n)]
    if isinstance(structure, dict):
        for (i, j, k), x in structure.items():
            c = rat(x)
            if c:
                table[i][j][k] = c
    else:
        if len(structure) != n:
            raise DimensionMismatchError(n, len(structure))
        for i in range(n):
            for j in range(n):
                for k, x in enumerate(structure[i][j]):
                    c = rat(x)
                    if c:
                        table[i][j][k] = c
    return FiniteAlgebra(labels, lambda i, j: dict(table[i][j]))


class DimensionMismatchError(AlgebraError):
    def __init__(self, expected, got):
        super().__init__(f"structure tensor has size {got}, expected {expected}")


def field_algebra() -> FiniteAlgebra:
    """Q itself as a 1-dimensional algebra."""
    return make_algebra(["1"], {(0, 0, 0): 1})


def matrix_algebra(n: int) -> FiniteAlgebra:
    """M_n(Q) on the matrix-unit basis; index (i, j) sits at i*n + j."""
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    struct = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                struct[(i * n + j, j * n + k, i * n + k)] = 1
    return make_algebra(labels, struct)


def direct_sum(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    labels = [f"L.{s}" for s in a.labels] + [f"R.{s}" for s in b.labels]
    off = a.dim

    def mul(i: int, j: int) -> Vec:
        if i < off and j < off:
            return dict(a.mul_basis(i, j))
        if i >= off and j >= off:
            return {k + off: c for k, c in b.mul_basis(i - off, j - off).items()}
        return {}

    return FiniteAlgebra(labels, mul, validated=True)


def tensor_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) B with componentwise product; validity is inherited."""
    labels = [f"{p}(x){q}" for p in a.labels for q in b.labels]

    def mul(i: int, j: int) -> Vec:
        i1, i2 = divmod(i, b.dim)
        j1, j2 = divmod(j, b.dim)
        return vtensor(a.mul_basis(i1, j1), b.mul_basis(i2, j2), b.dim)

    return FiniteAlgebra(labels, mul, validated=True)


def opposite_algebra(a: FiniteAlgebra) -> FiniteAlgebra:
    """Same space, reversed product; validity is inherited."""
    return FiniteAlgebra(list(a.labels), lambda i, j: a.mul_basis(j, i),
                         validated=True)


class Multiplier:
    """Element of M(A) given by its two action maps on A.

    left(b) = m*b and right(b) = b*m.  The compatibility laws
    left(ab) = left(a)b, right(ab) = a right(b), right(a)b = a left(b)
    are what make the pair a genuine multiplier.
    """

    __slots__ = ("algebra", "left", "right")

    def __init__(self, algebra: FiniteAlgebra, left: LinMap, right: LinMap):
        self.algebra = algebra
        self.left = left
        self.right = right

    @classmethod
    def from_element(cls, algebra: FiniteAlgebra, x: Vec) -> "Multiplier":
        return cls(algebra, algebra.left_mult(x), algebra.right_mult(x))

    @classmethod
    def one(cls, algebra: FiniteAlgebra) -> "Multiplier":
        ident = LinMap.identity(algebra.dim)
        return cls(algebra, ident, ident)

    def is_compatible(self) -> tuple[bool, tuple | None]:
        alg = self.algebra
        for i in range(alg.dim):
            for j in range(alg.dim):
                ab = alg.mul_basis(i, j)
                a, b = unit_vec(i), unit_vec(j)
                if self.left.apply(ab) != alg.mul(self.left.apply(a), b):
                    return False, ("left", i, j)
                if self.right.apply(ab) != alg.mul(a, self.right.apply(b)):
                    return False, ("right", i, j)
                if alg.mul(self.right.apply(a), b) != alg.mul(a, self.left.apply(b)):
                    return False, ("mixed", i, j)
        return True, None

    def __mul__(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(self.algebra, self.left @ other.left,
                          other.right @ self.right)

    def __add__(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(self.algebra, self.left + other.left,
                          self.right + other.right)

    def __sub__(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(self.algebra, self.left - other.left,
                          self.right - other.right)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multiplier)
                and self.left == other.left and self.right == other.right)

    def __hash__(self):
        raise TypeError("Multiplier is not hashable")

    def reify(self) -> Vec:
        """The element m*1 when the algebra has a unit."""
        e = self.algebra.unit()
        if e is None:
            raise AlgebraError("algebra has no unit; multiplier is not an element")
        return self.left.apply(e)

    def __repr__(self):
        return f"Multiplier(dim {self.algebra.dim})"


def multiplier_algebra(a: FiniteAlgebra) -> tuple[FiniteAlgebra, LinMap]:
    """M(A) as a structure-constants algebra plus the embedding A -> M(A).

    Solved as the space of compatible (left, right) pairs: first the
    left-multiplier and right-multiplier laws separately, then the
    mixed law coupling the two.
    """
    n = a.dim
    nn = n * n

    def col_index(j, i):
        return j * n + i  # entry (i, j) of an action matrix

    def law_rows(which: str) -> LinMap:
        rows = []
        for i in range(n):
            for j in range(n):
                ab = a.mul_basis(i, j)
                for r in range(n):
                    row: Vec = {}
                    # L(ab)_r  -  (L(e_i) e_j)_r  resp. right-side variant
                    if which == "left":
                        for k, c in ab.items():
                            vaxpy(row, c, {col_index(k, r): Fraction(1)})
                        for s in range(n):
                            prod = a.mul_basis(s, j)
                            c = prod.get(r)
                            if c:
                                vaxpy(row, -c, {col_index(i, s): Fraction(1)})
                    else:
                        for k, c in ab.items():
                            vaxpy(row, c, {col_index(k, r): Fraction(1)})
                        for s in range(n):
                            prod = a.mul_basis(i, s)
                            c = prod.get(r)
                            if c:
                                vaxpy(row, -c, {col_index(j, s): Fraction(1)})
                    rows.append(row)
        return LinMap.from_rows(nn, rows)

    left_space = law_rows("left").kernel()
    right_space = law_rows("right").kernel()

    def as_map(v: Vec) -> LinMap:
        m = LinMap(n, n)
        for idx, c in v.items():
            j, i = divmod(idx, n)
            m.cols[j][i] = c
        return m

    lmaps = [as_map(v) for v in left_space.rows]
    rmaps = [as_map(v) for v in right_space.rows]

    # mixed law: R(e_i) e_j = e_i L(e_j) over the product of the two spaces
    rows = []
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row: Vec = {}
                for t, lm in enumerate(lmaps):
                    c = a.mul(unit_vec(i), lm.apply(unit_vec(j))).get(r)
                    if c:
                        row[t] = -c
                for t, rm in enumerate(rmaps):
                    c = a.mul(rm.apply(unit_vec(i)), unit_vec(j)).get(r)
                    if c:
                        vaxpy(row, Fraction(1), {len(lmaps) + t: c})
                rows.append(row)
    pairs = LinMap.from_rows(len(lmaps) + len(rmaps), rows).kernel()

    basis: list[tuple[LinMap, LinMap]] = []
    for combo in pairs.rows:
        lm = LinMap(n, n)
        rm = LinMap(n, n)
        for t, c in combo.items():
            if t < len(lmaps):
                lm = lm + lmaps[t].scale(c)
            else:
                rm = rm + rmaps[t - len(lmaps)].scale(c)
        basis.append((lm, rm))

    dim_m = len(basis)
    # coordinates: flatten (left, right) pair into one tracking span
    span = Span(2 * nn)

    def flatten(lm: LinMap, rm: LinMap) -> Vec:
        v: Vec = {}
        for j in range(n):
            for i, c in lm.cols[j].items():
                v[col_index(j, i)] = c
            for i, c in rm.cols[j].items():
                v[nn + col_index(j, i)] = c
        return v

    for lm, rm in basis:
        span.add(flatten(lm, rm))

    def coords(lm: LinMap, rm: LinMap) -> Vec:
        combo = span.express(flatten(lm, rm))
        if combo is None:
            raise AlgebraError("product left the multiplier space")
        return combo

    def mul(i: int, j: int) -> Vec:
        li, ri = basis[i]
        lj, rj = basis[j]
        return coords(li @ lj, rj @ ri)

    m_alg = FiniteAlgebra([f"m{t}" for t in range(dim_m)], mul, validated=True)
    embed_cols = []
    for i in range(n):
        x = unit_vec(i)
        embed_cols.append(coords(a.left_mult(x), a.right_mult(x)))
    embedding = LinMap(dim_m, n, embed_cols)
    return m_alg, embedding




# -- tensor products and slices used throughout the Hopf machinery -------

class TensorSquare:
    """A (x) B with leg-wise products; index (i, j) -> i*dim + j.

    B defaults to A: coproducts live in A (x) A, the separability
    idempotent in B (x) C.  ``dim`` is the dimension of the second
    factor, the stride of the index.
    """

    def __init__(self, algebra: FiniteAlgebra, second: FiniteAlgebra | None = None):
        self.algebra = algebra
        self.second = algebra if second is None else second
        self.dim = self.second.dim
        self.size = algebra.dim * self.dim

    def tensor(self, x: Vec, y: Vec) -> Vec:
        return vtensor(x, y, self.dim)

    def mul(self, x: Vec, y: Vec) -> Vec:
        """Componentwise product of elements of A (x) B."""
        first, second = self.algebra, self.second
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            for q, e in y.items():
                q1, q2 = divmod(q, d)
                left = first.mul_basis(p1, q1)
                if not left:
                    continue
                right = second.mul_basis(p2, q2)
                if not right:
                    continue
                vaxpy(out, c * e, vtensor(left, right, d))
        return out

    def _on_leg(self, x: Vec, leg: int, image: Callable[[int], Vec]) -> Vec:
        """x with the basis vector e_k in the given leg of every term
        replaced by image(k); the one kernel behind the leg products."""
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            if leg == 1:
                for k, e in image(p1).items():
                    vaxpy(out, c * e, {k * d + p2: Fraction(1)})
            else:
                for k, e in image(p2).items():
                    vaxpy(out, c * e, {p1 * d + k: Fraction(1)})
        return out

    def mul_left_leg1(self, w: Vec, x: Vec) -> Vec:
        """(w (x) 1) * x for w in A (or a reified multiplier)."""
        return self._on_leg(x, 1, lambda k: self.algebra.mul(w, unit_vec(k)))

    def mul_right_leg1(self, x: Vec, w: Vec) -> Vec:
        """x * (w (x) 1)."""
        return self._on_leg(x, 1, lambda k: self.algebra.mul(unit_vec(k), w))

    def mul_left_leg2(self, w: Vec, x: Vec) -> Vec:
        """(1 (x) w) * x."""
        return self._on_leg(x, 2, lambda k: self.second.mul(w, unit_vec(k)))

    def mul_right_leg2(self, x: Vec, w: Vec) -> Vec:
        """x * (1 (x) w)."""
        return self._on_leg(x, 2, lambda k: self.second.mul(unit_vec(k), w))

    def sandwich(self, a: Vec, mid: Vec, b: Vec) -> Vec:
        """(a (x) 1) * mid * (1 (x) b)."""
        return self.mul_right_leg2(self.mul_left_leg1(a, mid), b)

    def map_leg1(self, m: LinMap, x: Vec) -> Vec:
        return self._on_leg(x, 1, lambda k: m.apply(unit_vec(k)))

    def map_leg2(self, m: LinMap, x: Vec) -> Vec:
        return self._on_leg(x, 2, lambda k: m.apply(unit_vec(k)))

    def flip(self, x: Vec) -> Vec:
        d = self.dim
        return {(p % d) * d + (p // d): c for p, c in x.items()}

    def mul_map(self, x: Vec) -> Vec:
        """Multiplication map A (x) A -> A applied to an element."""
        alg, d = self.algebra, self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            vaxpy(out, c, alg.mul_basis(p1, p2))
        return out

    def functional_leg1(self, phi: Vec, x: Vec) -> Vec:
        """(phi (x) id) applied to an element; phi is a row vector on A."""
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            w = phi.get(p1)
            if w:
                vaxpy(out, c * w, {p2: Fraction(1)})
        return out

    def functional_leg2(self, phi: Vec, x: Vec) -> Vec:
        """(id (x) phi) applied to an element; phi is a row vector on B."""
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            w = phi.get(p2)
            if w:
                vaxpy(out, c * w, {p1: Fraction(1)})
        return out

    def expand_leg1(self, x: Vec, f: Callable[[int], Vec]) -> Vec:
        """sum x[u, v] f(u) (x) e_v in A (x) A (x) A, for f(u) in A (x) A."""
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            u, v = divmod(p, d)
            vaxpy(out, c, vtensor(f(u), unit_vec(v), d))
        return out

    def expand_leg2(self, x: Vec, g: Callable[[int], Vec]) -> Vec:
        """sum x[u, v] e_u (x) g(v) in A (x) A (x) A, for g(v) in A (x) A."""
        d = self.dim
        out: Vec = {}
        for p, c in x.items():
            u, v = divmod(p, d)
            vaxpy(out, c, vtensor(unit_vec(u), g(v), d * d))
        return out

    def twisted_projector(self, f: Vec, which: int) -> LinMap:
        """The map whose column (a, b) is (e_a (x) 1) F (1 (x) e_b) for
        F = F_1, F_2 and (1 (x) e_b) F (e_a (x) 1) for F = F_3, F_4,
        where f is F_which."""
        d = self.dim
        cols = []
        for a in range(d):
            ea = unit_vec(a)
            for b in range(d):
                eb = unit_vec(b)
                if which in (1, 2):
                    cols.append(self.sandwich(ea, f, eb))
                else:
                    cols.append(self.mul_left_leg2(eb, self.mul_right_leg1(f, ea)))
        return LinMap(self.size, self.size, cols)

    def left_mult_map(self, x: Vec) -> LinMap:
        """y -> x*y on A (x) B."""
        return LinMap(self.size, self.size,
                      [self.mul(x, unit_vec(j)) for j in range(self.size)])

    def right_mult_map(self, x: Vec) -> LinMap:
        return LinMap(self.size, self.size,
                      [self.mul(unit_vec(j), x) for j in range(self.size)])


class CoproductSlices:
    """Slices of a left family Delta(e_a) and a right family Delta'(e_a)
    in A (x) A by basis covers e_b, e_c:

        r1(a, c) = Delta(e_a)(e_c (x) 1)    l1(a, c) = (e_c (x) 1)Delta'(e_a)
        r2(a, b) = Delta(e_a)(1 (x) e_b)    l2(a, b) = (1 (x) e_b)Delta'(e_a)

    Each slice is computed once and cached per (kind, a, b), because the
    triple-indexed checks revisit them constantly; the canonical maps
    T_1..T_4 are assembled from the cached slices once.  Cached values
    are shared, so callers must not mutate them.  A bundle slices (Delta,
    Delta), an algebroid (Delta_B, Delta_C), reconstruction the rebuilt
    (E Delta_B, Delta_C E).
    """

    def __init__(self, t2: TensorSquare, left: list[Vec], right: list[Vec]):
        self.t2 = t2
        self.left = left
        self.right = right
        self._slices: dict[tuple[str, int, int], Vec] = {}
        self._maps: dict[int, LinMap] = {}

    def r1(self, a: int, c: int) -> Vec:
        return self._slice("r1", a, c)

    def r2(self, a: int, b: int) -> Vec:
        return self._slice("r2", a, b)

    def l1(self, a: int, c: int) -> Vec:
        return self._slice("l1", a, c)

    def l2(self, a: int, b: int) -> Vec:
        return self._slice("l2", a, b)

    def _slice(self, kind: str, a: int, b: int) -> Vec:
        key = (kind, a, b)
        got = self._slices.get(key)
        if got is None:
            t2, cover = self.t2, unit_vec(b)
            if kind == "r1":
                got = t2.mul_right_leg1(self.left[a], cover)
            elif kind == "r2":
                got = t2.mul_right_leg2(self.left[a], cover)
            elif kind == "l1":
                got = t2.mul_left_leg1(cover, self.right[a])
            else:
                got = t2.mul_left_leg2(cover, self.right[a])
            self._slices[key] = got
        return got

    def canonical_map(self, which: int) -> LinMap:
        """T_1..T_4 on A (x) A; column (a, b) is r2(a, b), l1(b, a),
        l2(a, b) resp. r1(b, a)."""
        if which not in (1, 2, 3, 4):
            raise ValueError(which)
        m = self._maps.get(which)
        if m is None:
            d = self.t2.dim
            column = {1: lambda a, b: self.r2(a, b), 2: lambda a, b: self.l1(b, a),
                      3: lambda a, b: self.l2(a, b), 4: lambda a, b: self.r1(b, a)}[which]
            m = self._maps[which] = LinMap(self.t2.size, self.t2.size,
                                           [column(a, b) for a in range(d) for b in range(d)])
        return m

    def first_coassociativity_failure(self, equations) -> tuple[int, int, int, int] | None:
        """The first (a, b, c, k), looping over a, b, c and then k, at
        which equation k fails; None when all hold.

        Equation k is (outer, inner, same), two slice methods and a
        comparison.  It compares sum outer(a, b)[u, v] inner(u, c) (x) e_v
        with sum inner(a, c)[u, v] e_u (x) outer(v, b), the two covered
        forms of coassociativity.
        """
        t2, d = self.t2, self.t2.dim
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for k, (outer, inner, same) in enumerate(equations):
                        lhs = t2.expand_leg1(outer(a, b), lambda u: inner(u, c))
                        rhs = t2.expand_leg2(inner(a, c), lambda v: outer(v, b))
                        if not same(lhs, rhs):
                            return a, b, c, k
        return None
