"""Exact sparse linear algebra over the rationals.

Vectors are plain dicts mapping a coordinate index to a nonzero Fraction.
Linear maps store their columns as such dicts.  Subspaces are kept in
reduced row-echelon form, so equality of subspaces is equality of their
stored bases.  Everything is exact: no floats, no tolerances.

The zero-free invariant matters: a dict never holds a zero entry, hence
``u == v`` on raw dicts is exact vector equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Vec = dict  # index -> nonzero Fraction


class DimensionMismatch(ValueError):
    pass


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec_from(entries: Mapping[int, object] | Iterable[tuple[int, object]]) -> Vec:
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: Vec = {}
    for i, x in items:
        c = rat(x)
        if c:
            out[i] = c
    return out


def unit_vec(i: int) -> Vec:
    return {i: Fraction(1)}


def vaxpy(acc: Vec, coeff: Fraction, v: Vec) -> Vec:
    """In place: acc += coeff * v.  Returns acc."""
    if not coeff:
        return acc
    for i, c in v.items():
        w = acc.get(i)
        if w is None:
            acc[i] = coeff * c
        else:
            w = w + coeff * c
            if w:
                acc[i] = w
            else:
                del acc[i]
    return acc


def vadd(u: Vec, v: Vec) -> Vec:
    return vaxpy(dict(u), Fraction(1), v)


def vsub(u: Vec, v: Vec) -> Vec:
    return vaxpy(dict(u), Fraction(-1), v)


def vscale(coeff, v: Vec) -> Vec:
    c = rat(coeff)
    if not c:
        return {}
    return {i: c * x for i, x in v.items()}


def vdot(u: Vec, v: Vec) -> Fraction:
    if len(u) > len(v):
        u, v = v, u
    total = Fraction(0)
    for i, c in u.items():
        w = v.get(i)
        if w is not None:
            total += c * w
    return total


def lincomb(x: Vec, table) -> Vec:
    """sum_i x_i * table[i]: a linear map given by its basis images."""
    out: Vec = {}
    for i, c in x.items():
        vaxpy(out, c, table[i])
    return out


def vtensor(u: Vec, v: Vec, dim2: int) -> Vec:
    """Tensor of coordinate vectors; pair (i, j) lives at index i*dim2 + j."""
    out: Vec = {}
    for i, c in u.items():
        base = i * dim2
        for j, d in v.items():
            out[base + j] = c * d
    return out


def dense(v: Vec, n: int) -> list[Fraction]:
    row = [Fraction(0)] * n
    for i, c in v.items():
        row[i] = c
    return row


class LinMap:
    """Linear map Q^ncols -> Q^nrows stored column-sparse."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: list[Vec] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [{} for _ in range(ncols)] if cols is None else cols
        if len(self.cols) != ncols:
            raise DimensionMismatch("column count mismatch")

    @classmethod
    def identity(cls, n: int) -> "LinMap":
        return cls(n, n, [unit_vec(i) for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "LinMap":
        return cls(nrows, ncols)

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: Mapping) -> "LinMap":
        m = cls(nrows, ncols)
        for (i, j), x in entries.items():
            c = rat(x)
            if c:
                m.cols[j][i] = c
        return m

    @classmethod
    def from_cols(cls, nrows: int, cols: list[Vec]) -> "LinMap":
        return cls(nrows, len(cols), [dict(c) for c in cols])

    @classmethod
    def from_rows(cls, ncols: int, rows: list[Vec]) -> "LinMap":
        m = cls(len(rows), ncols)
        for i, row in enumerate(rows):
            for j, c in row.items():
                m.cols[j][i] = c
        return m

    @classmethod
    def from_dense(cls, rows: list[list]) -> "LinMap":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionMismatch("ragged matrix")
            for j, x in enumerate(row):
                c = rat(x)
                if c:
                    m.cols[j][i] = c
        return m

    def entry(self, i: int, j: int) -> Fraction:
        return self.cols[j].get(i, Fraction(0))

    def apply(self, v: Vec) -> Vec:
        if self.ncols == 0:
            return {}
        out: Vec = {}
        for j, c in v.items():
            if j >= self.ncols:
                raise DimensionMismatch("vector outside domain")
            vaxpy(out, c, self.cols[j])
        return out

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if self.ncols != other.nrows:
            raise DimensionMismatch("composition shape mismatch")
        return LinMap(self.nrows, other.ncols, [self.apply(c) for c in other.cols])

    def __add__(self, other: "LinMap") -> "LinMap":
        self._same_shape(other)
        return LinMap(self.nrows, self.ncols,
                      [vadd(a, b) for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._same_shape(other)
        return LinMap(self.nrows, self.ncols,
                      [vsub(a, b) for a, b in zip(self.cols, other.cols)])

    def scale(self, coeff) -> "LinMap":
        return LinMap(self.nrows, self.ncols, [vscale(coeff, c) for c in self.cols])

    def _same_shape(self, other: "LinMap") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinMap) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def __hash__(self):
        raise TypeError("LinMap is not hashable")

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                out[i][j] = c
        return out

    def transpose(self) -> "LinMap":
        return LinMap.from_rows(self.nrows, [dict(c) for c in self.cols])

    def tensor(self, other: "LinMap") -> "LinMap":
        """Kronecker product; index (i, j) -> i * other.dim + j on both sides."""
        cols = []
        for j1 in range(self.ncols):
            c1 = self.cols[j1]
            for j2 in range(other.ncols):
                cols.append(vtensor(c1, other.cols[j2], other.nrows))
        return LinMap(self.nrows * other.nrows, self.ncols * other.ncols, cols)

    def image(self) -> "Subspace":
        return Subspace.from_vectors(self.nrows, self.cols)

    def rank(self) -> int:
        return self.image().dim

    def kernel(self) -> "Subspace":
        """Null space, computed from the reduced echelon form of the rows."""
        rows = Subspace.from_vectors(self.ncols, self.rows())
        pivset = set(rows.pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivset:
                continue
            v = {f: Fraction(1)}
            for p, row in zip(rows.pivots, rows.rows):
                c = row.get(f)
                if c:
                    v[p] = -c
            basis.append(v)
        return Subspace.from_vectors(self.ncols, basis)

    def is_bijective(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self) -> "LinMap":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square maps invert")
        span = Span(self.nrows)
        for j, col in enumerate(self.cols):
            span.add(col, unit_vec(j))
        cols = []
        for i in range(self.nrows):
            combo = span.express(unit_vec(i))
            if combo is None:
                raise ValueError("map is singular")
            cols.append(combo)
        return LinMap(self.nrows, self.ncols, cols)

    def __repr__(self):
        return f"LinMap({self.nrows}x{self.ncols})"


class Subspace:
    """Subspace of Q^ambient in reduced row-echelon form (canonical)."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Vec]) -> "Subspace":
        sub = cls(ambient)
        for v in vectors:
            sub.insert(v)
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v modulo the subspace (copy; v untouched)."""
        out = dict(v)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                vaxpy(out, -c, row)
        return out

    def insert(self, v: Vec) -> bool:
        """Add a vector to the span.  Returns True if the dimension grew."""
        for i in v:
            if i >= self.ambient or i < 0:
                raise DimensionMismatch("vector outside ambient space")
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        inv = Fraction(1) / r[p]
        r = {i: inv * c for i, c in r.items()}
        for row in self.rows:
            c = row.get(p)
            if c:
                vaxpy(row, -c, r)
        k = 0
        while k < len(self.pivots) and self.pivots[k] < p:
            k += 1
        self.pivots.insert(k, p)
        self.rows.insert(k, r)
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.pivots == other.pivots and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("Subspace is not hashable")

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        out = Subspace.from_vectors(self.ambient, self.rows)
        for v in other.rows:
            out.insert(v)
        return out

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap V via the kernel of the stacked basis map."""
        self._same_ambient(other)
        cols = [dict(r) for r in self.rows] + [dict(r) for r in other.rows]
        if not cols:
            return Subspace(self.ambient)
        stacked = LinMap(self.ambient, len(cols), cols)
        inter = Subspace(self.ambient)
        for combo in stacked.kernel().rows:
            v: Vec = {}
            for j, c in combo.items():
                if j < len(self.rows):
                    vaxpy(v, c, self.rows[j])
            inter.insert(v)
        return inter

    def quotient_map(self) -> LinMap:
        """Projection onto the non-pivot coordinates of the residual.

        The kernel of the returned map is exactly this subspace, so it
        models the quotient Q^ambient / U with dim = ambient - dim U.
        """
        free = [i for i in range(self.ambient) if i not in set(self.pivots)]
        lookup = {f: k for k, f in enumerate(free)}
        cols = []
        for j in range(self.ambient):
            r = self.reduce(unit_vec(j))
            cols.append({lookup[i]: c for i, c in r.items()})
        return LinMap(len(free), self.ambient, cols)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


class Span:
    """Echelon basis with expression tracking.

    Every stored row remembers a combination of the inserted generators
    that produces it, so membership queries also return coordinates.
    """

    __slots__ = ("ambient", "rows", "pivots", "combos", "count")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[Vec] = []
        self.pivots: list[int] = []
        self.combos: list[Vec] = []
        self.count = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v: Vec, tag: Vec | None = None) -> bool:
        """Insert a generator; tag defaults to a fresh unit coordinate."""
        if tag is None:
            tag = unit_vec(self.count)
        self.count += 1
        r = dict(v)
        combo = dict(tag)
        for p, row, cmb in zip(self.pivots, self.rows, self.combos):
            c = r.get(p)
            if c:
                vaxpy(r, -c, row)
                vaxpy(combo, -c, cmb)
        if not r:
            return False
        p = min(r)
        inv = Fraction(1) / r[p]
        r = {i: inv * c for i, c in r.items()}
        combo = {i: inv * c for i, c in combo.items()}
        for row, cmb in zip(self.rows, self.combos):
            c = row.get(p)
            if c:
                vaxpy(row, -c, r)
                vaxpy(cmb, -c, combo)
        k = 0
        while k < len(self.pivots) and self.pivots[k] < p:
            k += 1
        self.pivots.insert(k, p)
        self.rows.insert(k, r)
        self.combos.insert(k, combo)
        return True

    def express(self, v: Vec) -> Vec | None:
        """Coordinates of v over the inserted generators, or None."""
        r = dict(v)
        combo: Vec = {}
        for p, row, cmb in zip(self.pivots, self.rows, self.combos):
            c = r.get(p)
            if c:
                vaxpy(r, -c, row)
                vaxpy(combo, c, cmb)
        if r:
            return None
        return combo


def solve(m: LinMap, target: Vec) -> Vec | None:
    """One solution x of m(x) = target, or None if inconsistent."""
    span = Span(m.nrows)
    for j, col in enumerate(m.cols):
        span.add(col, unit_vec(j))
    return span.express(target)


def solve_unique(m: LinMap, target: Vec) -> Vec | None:
    """The solution of m(x) = target if it exists and is unique."""
    x = solve(m, target)
    if x is None:
        return None
    if m.kernel().dim:
        return None
    return x
