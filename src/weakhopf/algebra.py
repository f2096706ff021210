"""Finite-dimensional algebras presented by structure constants.

An algebra lives on Q^dim and is its structure-constant table:
``table[i][j]`` is the basis product e_i e_j = sum_k c_ijk e_k as a
sparse vector.  The table and its vectors are shared, never copied, so
nothing may mutate them.  ``FiniteAlgebra`` does not check its table;
``make_algebra`` is the one constructor that validates the three
structural requirements: associativity, non-degenerate product, and
idempotency (A*A = A).  The other constructors build their tables from
algebras that already hold them and inherit validity: ``direct_sum``,
``tensor_algebra``, ``opposite_algebra``,
``groupoids.function_algebra``, ``base_algebras.SubalgebraView`` and
``examples.crossed_scalar_extension_wmha``.  They pass on the flag
``FiniteAlgebra.associative``, which a passing associativity scan of
``validate`` sets; a bare ``FiniteAlgebra`` starts without it.  The
engine works with unital algebras only, where the multiplier algebra
M(A) is A itself, so every multiplier the theory needs is an element.

Products follow the sparsity of the table.  Each algebra derives from
it, once, the partner rows ``partners[i] = {j: e_i e_j}`` holding only
the nonzero products.  They are the one product path: ``mul`` skips
every pair of basis indices whose product is zero, ``TensorSquare.mul``
visits only the partners of each leg that occur in its second factor,
and the leg images read a product by a basis vector straight off a
row.  ``validate`` scans associativity row by row over basis pairs.

``first_failure`` is the one witness scan for identities indexed by
basis tuples: the first tuple in lexicographic order, then the first
law that fails there; ``by_side`` states a law over a side axis (B,
then C) from one law per side.  A law that is a module map in one
index is first decided on the generators, and ``live_at`` passes the
indices where that fails, the only ones the scan then visits for it.
``multiplicativity`` states the law
f(e_i e_j) = f(e_i) f(e_j) (or its anti form) once for every map that
must respect products.  ``TensorSquare`` holds the leg-wise
operations, for A (x) A and for B (x) C alike; its leg products, leg
maps, functionals, expansions and triple covers are each one call of
``linalg.on_leg``, the one kernel that replaces a tensor leg.
``_covered_map`` keeps its own loop: it covers both legs for all d^2
basis pairs and shares each second-leg sum across every first-leg
cover, which a leg-at-a-time build would recompute.  ``projection`` is
the one memoized home of the six maps that the canonical idempotent E
and its twists F_1..F_4 cut out of A (x) A (``PROJECTION_FLAGS``), each
a ``Projection`` built on first use.  ``PROJECTION_FLAGS`` and
``Projection`` live in ``weakhopf.slices``, with ``CoproductSlices``,
the one slice object, and ``T_COVERS``: the engine is often compiled
from source, and compiling the largest module sets that step's memory
peak, so no module is allowed to grow large.

Lemma (module maps on A (x) A).  Its premises are associativity and a
bijective anti-multiplicative S; it needs no E law.  Let T_1..T_4 be the
canonical maps (T_1(a (x) b) = Delta(a)(1 (x) b), T_2(a (x) b) =
(a (x) 1)Delta(b), T_3(a (x) b) = (1 (x) b)Delta(a), T_4(a (x) b) =
Delta(b)(a (x) 1)), R_1..R_4 their generalized inverses,
Q_1 = Q_4 = EL (y -> Ey), Q_2 = Q_3 = ER (y -> yE), and P_i the map
cut out by an element x under ``PROJECTION_FLAGS``.

* Associativity makes T_i, Q_i and P_i module maps.  T_1 and P_1 are
  right-linear on leg 2, T_3 and P_3 left-linear on leg 2, T_2 and P_2
  left-linear on leg 1, and T_4 and P_4 right-linear on leg 1
  (``slices.T_COVERS``): T_1(y(1 (x) c)) = T_1(y)(1 (x) c), and so on.
  A cut map is linear on both legs, each from the side of its flag, so
  Q_i is of T_i's kind too.
* If S is a bijective anti-homomorphism, then S(1) = 1, because S(1)
  is a unit of S(A) = A, and R_i = L T_p L^-1 (``slices.TWISTS``), with L
  the map S or S^-1 on the leg T_i is linear on, is a module map of T_i's
  kind: L^-1 turns a cover c there into one by S^-1(c) on the other
  side, T_p is linear for that one, and L turns it back.
* Generators.  g_a = e_a (x) 1 for i = 1, 3 and g_a = 1 (x) e_a for
  i = 2, 4.  A is unital, so every y in A (x) A is a sum of the g_a
  covered on the other leg (y = sum g_a (1 (x) y_a) for i = 1), and two
  module maps of one kind are equal exactly when they agree on every g_a.

The values on the generators are read off the coproduct and x; the
vector g_a is never built, since the unit of K(G) has d terms.
T_i(g_a) = Delta(e_a) (``CoproductSlices.on_generators``).  L^-1 g_a =
g_a, so R_i(g_a) = L(Delta(e_a)).  P(g_a) and Q(g_a) are x covered by
e_a on the generator leg (``Projection.on_generators``, one pass over x
for every a).  PP = P holds iff P(x) = x: P commutes with that cover, so
PP(g_a) is P(x) covered by e_a, and summing with the unit's coefficients
gives P(x) = x.  tr P = sum x_uv t1(u) t2(v) from the one-sided traces of
the table (``FiniteAlgebra.traces``).  T_i is applied to a vector from
the cached slices of its support only (``CoproductSlices.apply``).  The
premises are read as flags: ``TensorSquare.generated`` asks both
factors for the associativity flag and a unit; without them the
identities are compared on the basis vectors (``first_difference``).
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from types import MappingProxyType
from typing import Callable

from .linalg import LinMap, Subspace, Vec, lincomb, on_leg, rat, solve, unit_vec, vaxpy, vtensor
from .slices import PROJECTION_FLAGS, Projection


_ZERO = MappingProxyType({})


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
    """Structure-constant table of an algebra over Q.

    ``table[i][j]`` is e_i e_j.  The table is shared with the caller and
    with every vector ``mul_basis`` returns, so it must stay immutable.
    The partner rows derived from it once, ``partners``, are the one
    product path, read by ``mul``, ``TensorSquare.mul`` and the leg
    images.  The constructor does not validate: ``make_algebra`` does,
    and the constructors listed in the module docstring inherit validity.
    """

    def __init__(self, labels: list[str], table: list[list[Vec]], associative: bool = False):
        self.dim = len(labels)
        self.labels = list(labels)
        self.table = table
        # set by a passing associativity scan, or by a constructor that
        # inherits validity; read by ``TensorSquare.generated``
        self.associative = associative
        self._unit: Vec | None = None
        self._unit_known = False
        self._valid = False

    # -- product ------------------------------------------------------

    @cached_property
    def partners(self) -> list[dict[int, Vec]]:
        """partners[i] = {j: e_i e_j} over the nonzero products only,
        sharing the table's vectors."""
        return [{j: v for j, v in enumerate(row) if v} for row in self.table]

    def mul_basis(self, i: int, j: int) -> Vec:
        """e_i e_j, shared with the table: callers must not mutate it."""
        return self.table[i][j]

    def mul(self, x: Vec, y: Vec) -> Vec:
        partners = self.partners
        out: Vec = {}
        for i, c in x.items():
            row = partners[i]
            for j, d in y.items():
                v = row.get(j)
                if v is not None:
                    vaxpy(out, c * d, v)
        return out

    def times_basis(self, w: Vec, left: bool) -> Callable[[int], Vec]:
        """k -> w e_k when left, else k -> e_k w.  For w = e_b it is a
        partner-row read: the shared product, or the read-only empty
        ``_ZERO``, so callers must not mutate it."""
        rows = self.partners
        if len(w) == 1 and 1 in w.values():
            b, = w
            return (lambda k: rows[b].get(k, _ZERO)) if left else (lambda k: rows[k].get(b, _ZERO))
        if left:
            return lambda k: self.mul(w, unit_vec(k))
        return lambda k: self.mul(unit_vec(k), w)

    @cached_property
    def traces(self) -> tuple[list, list]:
        """The one-sided traces of the basis: tr(y -> e_u y) and
        tr(y -> y e_u) for every u, read off the partner rows."""
        left, right = [0] * self.dim, [0] * self.dim
        for a, row in enumerate(self.partners):
            for u, v in row.items():
                left[a] += v.get(u, 0)
                right[u] += v.get(a, 0)
        return left, right

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
        """Raise the first structural failure.  A success is remembered
        (the table is immutable); a failure raises again on every call.

        Associativity is scanned row by row: the law at a basis pair
        (i, j) compares the rows [(e_i e_j) e_k]_k and [e_i (e_j e_k)]_k,
        each built from the nonzero structure constants only, and
        ``NonAssociative`` names the first (i, j) and then the least k
        at which they differ, the first failing triple in lexicographic
        order.  Only the two rows of one pair are held at a time."""
        if self._valid:
            return
        n, table, partners = self.dim, self.table, self.partners

        def left_row(i, j):             # (e_i e_j) e_k for every k
            row: list[Vec] = [{} for _ in range(n)]
            for m, c in table[i][j].items():
                for k, v in partners[m].items():
                    vaxpy(row[k], c, v)
            return row

        def right_row(i, j):            # e_i (e_j e_k) for every k
            row: list[Vec] = [{} for _ in range(n)]
            e_i = unit_vec(i)
            for k, u in partners[j].items():
                row[k] = self.mul(e_i, u)
            return row

        bad = first_failure((n, n), [(left_row, right_row)])
        if bad is not None:
            (i, j), _, left, right = bad
            raise NonAssociative(i, j, next(k for k in range(n) if left[k] != right[k]))
        self.associative = True
        # a annihilates from the left iff sum a_i e_i e_j = 0 for all j:
        # column i of the stacked structure tensor holds e_i e_j at rows
        # j*n .. j*n + n-1; from the right it holds e_j e_i there
        for side, product in (("left", lambda i, j: table[i][j]),
                              ("right", lambda i, j: table[j][i])):
            stacked = LinMap(n * n, n, [{j * n + r: c for j in range(n)
                                         for r, c in product(i, j).items()}
                                        for i in range(n)])
            ker = stacked.kernel()
            if ker.dim:
                raise DegenerateProduct(side, ker.rows[0])
        prod = Subspace.from_vectors(n, (v for row in table for v in row))
        if prod.dim != n:
            raise NotIdempotent(prod.dim)
        self._valid = True

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
                        rhs[len(rows) - 1] = 1
        system = LinMap.from_rows(n, rows)
        self._unit = solve(system, rhs)
        self._unit_known = True
        return self._unit

    def __repr__(self):
        return f"FiniteAlgebra(dim {self.dim})"


def make_algebra(labels: list[str], structure: dict) -> FiniteAlgebra:
    """Build and fully check an algebra; the one validating constructor.

    ``structure`` is a sparse dict {(i, j, k): coeff} with
    e_i e_j = sum_k c[i][j][k] e_k.
    """
    n = len(labels)
    table: list[list[Vec]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j, k), x in structure.items():
        c = rat(x)
        if c:
            table[i][j][k] = c
    alg = FiniteAlgebra(labels, table)
    alg.validate()
    return alg


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
    table = [row + [{} for _ in range(b.dim)] for row in a.table]
    table += [[{} for _ in range(off)] + [{k + off: c for k, c in v.items()} for v in row]
              for row in b.table]
    return FiniteAlgebra(labels, table, a.associative and b.associative)


def tensor_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) B with componentwise product; validity is inherited."""
    labels = [f"{p}(x){q}" for p in a.labels for q in b.labels]
    table = [[vtensor(u, v, b.dim) for u in row_a for v in row_b]
             for row_a in a.table for row_b in b.table]
    return FiniteAlgebra(labels, table, a.associative and b.associative)


def opposite_algebra(a: FiniteAlgebra) -> FiniteAlgebra:
    """Same space, transposed table; validity is inherited."""
    return FiniteAlgebra(list(a.labels), [list(col) for col in zip(*a.table)], a.associative)


# -- witness scans over basis tuples ---------------------------------------

def first_failure(shape: tuple[int, ...], laws,
                  live=None) -> tuple[tuple[int, ...], int, object, object] | None:
    """The witness of a family of basis-indexed identities.

    Walks the index tuples of range(shape[0]) x range(shape[1]) x ... in
    lexicographic order and tries the laws in order at each tuple.  A
    law is (lhs, rhs) or (lhs, rhs, same): lhs and rhs take the indices
    as arguments, and same compares their values (== by default).
    Returns (index tuple, k, lhs value, rhs value) at the first tuple
    and then the first law k that fails there; None when all hold.

    live, when given, has one entry per law: None, or (axis, indices)
    from ``live_at`` when law k is known to hold at every tuple whose
    index on axis is not in indices.  Law k is then tried only at the
    other tuples, and a tuple where no law is tried is not visited.  The
    skipped evaluations all hold, so the witness is the full scan's.
    """
    spans = [range(n) for n in shape]
    if live is None or None in live:
        tuples = itertools.product(*spans)
    else:
        tuples = sorted({index for axis, indices in live for index in itertools.product(
            *(indices if n == axis else span for n, span in enumerate(spans)))})
    tried = list(zip(laws, live or [None] * len(laws)))
    for index in tuples:
        for k, ((lhs, rhs, *same), where) in enumerate(tried):
            if where is not None and index[where[0]] not in where[1]:
                continue
            left, right = lhs(*index), rhs(*index)
            if not (same[0](left, right) if same else left == right):
                return index, k, left, right
    return None


def live_at(axis: int, n: int, lhs, rhs) -> tuple[int, set[int]]:
    """The entry of ``first_failure``'s live for a law that is a module
    map in every index but one: (axis, the i < n with lhs(i) != rhs(i)),
    where lhs(i) = rhs(i) is the law on the generators at index i on
    axis, which the caller has proved gives the law at every tuple with
    that index (the ``wmha`` docstring)."""
    return axis, {i for i in range(n) if lhs(i) != rhs(i)}


def by_side(laws, axis: int = 0) -> list:
    """Laws for ``first_failure`` over index tuples with a side axis of
    length 2 (0 for B, 1 for C) at position axis: law k at a tuple is
    laws[side][k], an (lhs, rhs) pair taking the other indices."""
    def part(k, p):
        return lambda *index: laws[index[axis]][k][p](*index[:axis], *index[axis + 1:])

    return [(part(k, 0), part(k, 1)) for k in range(len(laws[0]))]


def multiplicativity(alg: FiniteAlgebra, images, product, anti: bool = False):
    """The law f(e_i e_j) = f(e_i) f(e_j), or f(e_j) f(e_i) when anti,
    as an (lhs, rhs) pair over basis pairs (i, j) of alg.  f is the
    linear map with f(e_k) = images[k], and product multiplies in its
    target: a coproduct with the tensor-square product, an antipode or
    an automorphism with an algebra product."""
    def rhs(i, j):
        return product(images[j], images[i]) if anti else product(images[i], images[j])

    return (lambda i, j: lincomb(alg.mul_basis(i, j), images)), rhs


# -- the tensor square, used throughout the Hopf machinery ---------------

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
        self._projections: dict[tuple, Projection] = {}

    def tensor(self, x: Vec, y: Vec) -> Vec:
        return vtensor(x, y, self.dim)

    def generated(self) -> bool:
        """Whether both factors carry the associativity flag and have a
        unit: then a map that commutes with the covers on one leg is
        fixed by its values on the generators (module docstring)."""
        return all(alg.associative and alg.unit() is not None
                   for alg in (self.algebra, self.second))

    def mul(self, x: Vec, y: Vec) -> Vec:
        """Componentwise product of elements of A (x) B: y is grouped by
        its first leg, and a term e_p1 (x) e_p2 of x visits only the
        first-leg partners of p1 that occur in y, then in each such group
        only the second-leg partners of p2."""
        rows1, rows2 = self.algebra.partners, self.second.partners
        d = self.dim
        groups: dict[int, Vec] = {}
        for q, e in y.items():
            q1, q2 = divmod(q, d)
            groups.setdefault(q1, {})[q2] = e
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            row2 = rows2[p2]
            for q1, left in rows1[p1].items():
                group = groups.get(q1, _ZERO)
                for q2, right in row2.items():
                    if q2 in group:
                        vaxpy(out, c * group[q2], vtensor(left, right, d))
        return out

    def mul_left_leg1(self, w: Vec, x: Vec) -> Vec:
        """(w (x) 1) * x for w in A (or a reified multiplier)."""
        return on_leg(x, self.dim, self.algebra.dim, self.algebra.times_basis(w, True),
                      self.algebra.dim)

    def mul_right_leg1(self, x: Vec, w: Vec) -> Vec:
        """x * (w (x) 1)."""
        return on_leg(x, self.dim, self.algebra.dim, self.algebra.times_basis(w, False),
                      self.algebra.dim)

    def mul_left_leg2(self, w: Vec, x: Vec) -> Vec:
        """(1 (x) w) * x."""
        return on_leg(x, 1, self.dim, self.second.times_basis(w, True), self.dim)

    def mul_right_leg2(self, x: Vec, w: Vec) -> Vec:
        """x * (1 (x) w)."""
        return on_leg(x, 1, self.dim, self.second.times_basis(w, False), self.dim)

    def sandwich(self, a: Vec, mid: Vec, b: Vec) -> Vec:
        """(a (x) 1) * mid * (1 (x) b)."""
        return self.mul_right_leg2(self.mul_left_leg1(a, mid), b)

    def map_leg1(self, m: LinMap, x: Vec) -> Vec:
        return on_leg(x, self.dim, self.algebra.dim, m.cols.__getitem__, self.algebra.dim)

    def map_leg2(self, m: LinMap, x: Vec) -> Vec:
        return on_leg(x, 1, self.dim, m.cols.__getitem__, self.dim)

    def flip(self, x: Vec) -> Vec:
        d = self.dim
        return {(p % d) * d + (p // d): c for p, c in x.items()}

    def mul_map(self, x: Vec) -> Vec:
        """Multiplication map A (x) A -> A applied to an element."""
        partners, d = self.algebra.partners, self.dim
        out: Vec = {}
        for p, c in x.items():
            p1, p2 = divmod(p, d)
            vaxpy(out, c, partners[p1].get(p2, _ZERO))
        return out

    def functional_leg1(self, phi: Vec, x: Vec) -> Vec:
        """(phi (x) id) applied to an element; phi is a row vector on A."""
        return on_leg(x, self.dim, self.algebra.dim,
                      lambda j: {0: w} if (w := phi.get(j)) else _ZERO, 1)

    def functional_leg2(self, phi: Vec, x: Vec) -> Vec:
        """(id (x) phi) applied to an element; phi is a row vector on B."""
        return on_leg(x, 1, self.dim, lambda j: {0: w} if (w := phi.get(j)) else _ZERO, 1)

    def leg_vectors(self, x: Vec, leg: int) -> dict[int, Vec]:
        """x grouped by its other leg: for leg 1 the first-leg vectors
        sum_u x[u, v] e_u keyed by the second-leg index v, for leg 2 the
        second-leg vectors sum_v x[u, v] e_v keyed by u.  The values span
        the leg span of x on that leg."""
        d = self.dim
        out: dict[int, Vec] = {}
        for p, c in x.items():
            u, v = divmod(p, d)
            if leg == 1:
                out.setdefault(v, {})[u] = c
            else:
                out.setdefault(u, {})[v] = c
        return out

    def expand_leg1(self, x: Vec, f: Callable[[int], Vec]) -> Vec:
        """sum x[u, v] f(u) (x) e_v in A (x) A (x) A, for f(u) in A (x) A;
        f(u) is computed once per distinct u."""
        return on_leg(x, self.dim, self.algebra.dim, f, self.dim ** 2)

    def expand_leg2(self, x: Vec, g: Callable[[int], Vec]) -> Vec:
        """sum x[u, v] e_u (x) g(v) in A (x) A (x) A, for g(v) in A (x) A;
        g(v) is computed once per distinct v."""
        return on_leg(x, 1, self.dim, g, self.dim ** 2)

    def cover(self, z: Vec, leg: int, left: bool, i: int) -> Vec:
        """z in A (x) A (x) A multiplied by e_i in the given leg, from
        the left when left is true, else from the right."""
        d = self.dim
        return on_leg(z, d ** (3 - leg), d, self.algebra.times_basis(unit_vec(i), left), d)

    def first_nonzero_cover(self, diffs) -> tuple[tuple[int, ...], int]:
        """Witness locator for a failed identity of elements of
        A (x) A (x) A.  diffs[k] is (X_k - Y_k, covers[, trivial]), where
        covers[n] = (leg, left) says how the n-th loop index covers the
        element and trivial, "is zero" by default, says when a covered
        difference holds.  Returns the first index tuple in lexicographic
        order, and then the first k, at which the covered difference is
        not trivial: where a covered comparison loop over X_k and Y_k
        would first fail.  Covers on distinct legs commute and trivial
        differences stay trivial under the covers, so a difference that
        is trivial under the outer covers is dropped with all its inner
        ones.
        """
        def search(prefix, live):
            n = len(prefix)
            if n == len(live[0][1]):
                return prefix, live[0][0]
            for i in range(self.dim):
                nxt = [(k, covers, trivial, z2) for k, covers, trivial, z in live
                       if not trivial(z2 := self.cover(z, *covers[n], i))]
                found = search(prefix + (i,), nxt) if nxt else None
                if found:
                    return found
            return None

        live = [(k, covers, trivial[0] if trivial else operator.not_, z)
                for k, (z, covers, *trivial) in enumerate(diffs)]
        found = search((), [entry for entry in live if not entry[2](entry[3])])
        if found is None:
            raise AlgebraError("a nontrivial difference is trivial under every basis cover")
        return found

    def _covered_map(self, x: Vec, left1: bool, left2: bool) -> LinMap:
        """The map on A (x) B whose column (a, b) is x multiplied by e_a
        in the first leg and by e_b in the second, each from the left
        when its flag is set, else from the right.  Column (a, b) is
        sum x[u, v] L(a, u) (x) R(v, b), with L(a, u) = e_a e_u or
        e_u e_a and R(v, b) = e_b e_v or e_v e_b, read off the partner
        rows; the one kernel behind ``projection`` and the balanced
        relators.  Not memoized: on the relation path only, the relators
        build d * dim B throwaway maps per kind."""
        rows1, rows2, d = self.algebra.partners, self.second.partners, self.dim
        # for each first-leg index u of x, sum_v x[u, v] R(v, b) for every b
        covered = []
        for u, row in self.leg_vectors(x, 2).items():
            per_b = []
            for b in range(d):
                acc: Vec = {}
                for v, c in row.items():
                    vaxpy(acc, c, rows2[b].get(v, _ZERO) if left2 else rows2[v].get(b, _ZERO))
                per_b.append(acc)
            covered.append((u, per_b))
        cols = []
        for a in range(self.algebra.dim):
            terms = [(lv, per_b) for u, per_b in covered
                     if (lv := rows1[a].get(u) if left1 else rows1[u].get(a)) is not None]
            for b in range(d):
                col: Vec = {}
                for lv, per_b in terms:
                    rv = per_b[b]
                    if rv:
                        for k, c in lv.items():
                            vaxpy(col, c, {k * d + m: e for m, e in rv.items()})
                cols.append(col)
        return LinMap(self.size, self.size, cols)

    def projection(self, x: Vec, which) -> Projection:
        """The map x cuts out under ``PROJECTION_FLAGS[which]``, with its
        image and im(id - map), held once per flags and exact entries of
        x: a hit means x equals the element the map is cut by.  The map is
        built on first use.  The bundle, the balanced sections and
        reconstruction holding one t2 share each map this way, so callers
        must not mutate it."""
        flags = PROJECTION_FLAGS[which]
        key = (flags, frozenset(x.items()))
        got = self._projections.get(key)
        if got is None:
            # cut from a square of its own: holding self would make a cycle
            # that keeps every square and its maps until a collection
            got = self._projections[key] = Projection(
                cut=(TensorSquare(self.algebra, self.second), dict(x), flags))
        return got
