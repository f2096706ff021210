"""Exact sparse linear algebra over the rationals.

Vectors are plain dicts mapping a coordinate index to a nonzero exact
rational: an ``int`` when it is integral, else a ``Fraction``.  Python's
int and Fraction arithmetic mix exactly, so one code path serves both,
and ``1 == Fraction(1)`` with equal hashes keeps every comparison and
dict key exact.  Only division can leave the rationals for the floats;
it is always written ``Fraction(1) / x``.  Linear maps store their
columns as such dicts.  Subspaces are kept in reduced row-echelon form,
so equality of subspaces is equality of their stored bases; ``Subspace``
says how reduction and coordinates follow from that form.  ``solve`` and
``LinMap.inverse`` reduce the columns of a map, each tagged with its unit
vector, in one such echelon form.
Everything is exact: no floats, no tolerances.

``on_leg`` is the one loop that replaces a tensor leg, behind every leg
operation of ``algebra.TensorSquare`` and ``balanced.TripleQuotient``;
a map on two legs is two calls (``apply_legs``), never a Kronecker
matrix.  Only ``TensorSquare._covered_map`` keeps its own loop (see the
``algebra`` docstring for why).

The zero-free invariant matters: a dict never holds a zero entry, hence
``u == v`` on raw dicts is exact vector equality.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping

Vec = dict  # index -> nonzero int or Fraction


class DimensionMismatch(ValueError):
    pass


def rat(x) -> int | Fraction:
    """Coerce ints, strings like '2/3' and Fractions to an exact rational:
    an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is str and x.isdecimal():  # plain digits: int reads them as Fraction does
        return int(x)
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def vec_from(entries: Mapping[int, object] | Iterable[tuple[int, object]]) -> Vec:
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: Vec = {}
    for i, x in items:
        c = rat(x)
        if c:
            out[i] = c
    return out


def unit_vec(i: int) -> Vec:
    return {i: 1}


def vaxpy(acc: Vec, coeff, v: Vec) -> Vec:
    """In place: acc += coeff * v.  Returns acc.  A product by the int
    1 or -1, on either side, is skipped: a Fraction product costs far
    more than a sign.  The type is checked first, so a Fraction never
    pays for ``__eq__``."""
    if not coeff:
        return acc
    for i, c in v.items():
        # an int product is cheap; by 1 or -1 a Fraction is kept or negated
        if type(coeff) is int:
            t = coeff * c if type(c) is int or (coeff != 1 and coeff != -1) else (
                c if coeff == 1 else -c)
        elif type(c) is int and (c == 1 or c == -1):
            t = coeff if c == 1 else -coeff
        else:
            t = coeff * c
        w = acc.get(i)
        if w is None:
            acc[i] = t
        else:
            w = w + t
            if w:
                acc[i] = w
            else:
                del acc[i]
    return acc


def vadd_at(acc: Vec, i: int, c) -> None:
    """In place: acc[i] += c, keeping acc zero-free; c is nonzero."""
    w = acc.get(i)
    if w is None:
        acc[i] = c
    else:
        w = w + c
        if w:
            acc[i] = w
        else:
            del acc[i]


def vsub(u: Vec, v: Vec) -> Vec:
    return vaxpy(dict(u), -1, v)


def vdot(u: Vec, v: Vec) -> int | Fraction:
    if len(u) > len(v):
        u, v = v, u
    total = 0
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


def on_leg(x: Vec, stride: int, n: int, image, width: int) -> Vec:
    """x with one tensor leg replaced: the one leg kernel.

    An index p of x is read as digits (hi, j, lo), p = (hi*n + j)*stride
    + lo, with the leg's basis index j of range n and lo of range stride.
    Each term's e_j becomes image(j), a vector on a slot of size width,
    so entry k of the image lands at (hi*width + k)*stride + lo.
    image(j) is computed once per distinct j and only read, so it may
    be a shared vector.  As in ``vaxpy``, a product by the int 1 or -1
    is skipped."""
    out: Vec = {}
    images: dict[int, Vec] = {}
    for p, c in x.items():
        q, lo = divmod(p, stride)
        hi, j = divmod(q, n)
        img = images.get(j)
        if img is None:
            img = images[j] = image(j)
        base = hi * width
        for k, e in img.items():
            if type(c) is int:
                t = c * e if type(e) is int or (c != 1 and c != -1) else (e if c == 1 else -e)
            elif type(e) is int and (e == 1 or e == -1):
                t = c if e == 1 else -c
            else:
                t = c * e
            i = (base + k) * stride + lo
            w = out.get(i)
            if w is None:
                out[i] = t
            else:
                w = w + t
                if w:
                    out[i] = w
                else:
                    del out[i]
    return out


def apply_legs(left: "LinMap", right: "LinMap", x: Vec) -> Vec:
    """(left (x) right)(x) for x on the index (i, j) -> i*right.ncols + j,
    landing on (k, m) -> k*right.nrows + m: one leg, then the other,
    with no Kronecker matrix."""
    y = on_leg(x, right.ncols, left.ncols, left.cols.__getitem__, left.nrows)
    return on_leg(y, 1, right.ncols, right.cols.__getitem__, right.nrows)


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
    def from_entries(cls, nrows: int, ncols: int, entries: Mapping) -> "LinMap":
        m = cls(nrows, ncols)
        for (i, j), x in entries.items():
            c = rat(x)
            if c:
                m.cols[j][i] = c
        return m

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

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.cols[j].get(i, 0)

    def trace(self) -> int | Fraction:
        return sum(col.get(j, 0) for j, col in enumerate(self.cols))

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

    def __sub__(self, other: "LinMap") -> "LinMap":
        self._same_shape(other)
        return LinMap(self.nrows, self.ncols,
                      [vsub(a, b) for a, b in zip(self.cols, other.cols)])

    def _same_shape(self, other: "LinMap") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinMap) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def __hash__(self):
        raise TypeError("LinMap is not hashable")

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                out[i][j] = c
        return out

    def transpose(self) -> "LinMap":
        return LinMap.from_rows(self.nrows, [dict(c) for c in self.cols])

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
            v = {f: 1}
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
        n = self.nrows
        tagged = _tagged_columns(self)
        if tagged.dim < n:
            raise ValueError("map is singular")
        # full rank: row i is e_i followed by column i of the inverse
        return LinMap(n, n, [{j - n: c for j, c in row.items() if j >= n}
                             for row in tagged.rows])

    def __repr__(self):
        return f"LinMap({self.nrows}x{self.ncols})"


class Subspace:
    """Subspace of Q^ambient in reduced row-echelon form (canonical).

    Each row has 1 at its own pivot and 0 at every other pivot.  Hence
    subtracting a row never changes the entry at another pivot, and the
    coefficient of row p in the reduction of v is v[p] itself: reducing
    v walks only the pivots in v's support, in increasing order, and the
    coordinates of a member on the rows are its entries at the pivots.
    ``_at`` maps each pivot to its row; it shares the row dicts.
    """

    __slots__ = ("ambient", "rows", "pivots", "_at")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[Vec] = []
        self.pivots: list[int] = []
        self._at: dict[int, Vec] = {}

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
        at = self._at
        for p in sorted(v.keys() & at.keys()):
            vaxpy(out, -v[p], at[p])
        return out

    def insert(self, v: Vec) -> bool:
        """Add a vector to the span.  Returns True if the dimension grew."""
        for i in v:
            if i >= self.ambient or i < 0:
                raise DimensionMismatch("vector outside ambient space")
        return self._place(self.reduce(v))

    def _place(self, r: Vec) -> bool:
        """Add a residual of ``reduce`` as a row, unless it is zero.  Only
        the rows before its slot can hold an entry at its pivot: a row
        has no entry before its own pivot.  A residual led by 1 is kept
        and one led by -1 negated, so integer rows stay ints; any other
        is scaled by the inverse of its lead."""
        if not r:
            return False
        p = min(r)
        lead = r[p]
        if lead == -1:
            r = {i: -c for i, c in r.items()}
        elif lead != 1:
            inv = Fraction(1) / lead
            r = {i: inv * c for i, c in r.items()}
        k = bisect_left(self.pivots, p)
        for row in self.rows[:k]:
            c = row.get(p)
            if c:
                vaxpy(row, -c, r)
        self.pivots.insert(k, p)
        self.rows.insert(k, r)
        self._at[p] = r
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of v over the stored rows, or None when v is not in
        the subspace (see the class docstring)."""
        if self.reduce(v):
            return None
        pivots = self.pivots
        return {bisect_left(pivots, p): v[p] for p in sorted(v.keys() & self._at.keys())}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.pivots == other.pivots and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("Subspace is not hashable")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _tagged_columns(m: LinMap) -> Subspace:
    """The columns of m, column j tagged with 1 at coordinate nrows + j,
    in reduced echelon form.  A column whose residual vanishes on the
    first nrows coordinates is left out, so every pivot lies there and
    each row ends in the combination of columns that gives its start."""
    n = m.nrows
    tagged = Subspace(n + m.ncols)
    for j, col in enumerate(m.cols):
        r = tagged.reduce({**col, n + j: 1})
        if min(r) < n:
            tagged._place(r)
    return tagged


def solve(m: LinMap, target: Vec) -> Vec | None:
    """One solution x of m(x) = target, or None if inconsistent.

    Reducing the target over the tagged columns leaves target - m(x)
    in the first nrows coordinates and -x after them."""
    n = m.nrows
    r = _tagged_columns(m).reduce(target)
    if r and min(r) < n:
        return None
    return {j - n: -c for j, c in r.items()}
