from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.linalg import (DimensionMismatch, LinMap, Subspace, on_leg, rat, solve,
                             unit_vec, vaxpy, vec_from, vsub, vtensor)


def test_rat_parses_strings():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(-4) == Fraction(-4)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_vec_ops_keep_zero_free_invariant():
    u = vec_from({0: 1, 2: "1/2"})
    v = vec_from({0: -1, 1: 3})
    w = vaxpy(dict(u), Fraction(1), v)
    assert 0 not in w and w == {1: Fraction(3), 2: Fraction(1, 2)}
    assert vsub(u, u) == {}
    assert vaxpy({}, Fraction(0), u) == {}


_UNIT_MIX = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]


def test_unit_factors_skip_fraction_products(monkeypatch):
    """vaxpy and on_leg give the plain products for every mix of ints
    and Fractions, and form no Fraction product where one factor is the
    int 1 or -1."""
    v = dict(enumerate(_UNIT_MIX))
    want = {(coeff, k): coeff * c for coeff in _UNIT_MIX for k, c in v.items()}
    products = []
    mul, rmul = Fraction.__mul__, Fraction.__rmul__
    monkeypatch.setattr(Fraction, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(Fraction, "__rmul__", lambda a, b: products.append(1) or rmul(a, b))
    for coeff in _UNIT_MIX:
        products.clear()
        assert vaxpy({}, coeff, v) == {k: want[coeff, k] for k in v}
        # coeff * e_1 with its one leg replaced by v
        assert on_leg({1: coeff}, 1, 2, lambda j: v, len(v)) == {
            k: want[coeff, k] for k in v}
        fraction_products = sum(type(coeff) is not int and type(c) is not int
                                or type(c) is not int and coeff not in (1, -1)
                                or type(coeff) is not int and c not in (1, -1)
                                for c in v.values())
        assert len(products) == 2 * fraction_products


def test_tensor_indexing():
    u = {0: Fraction(1), 1: Fraction(2)}
    v = {1: Fraction(3)}
    assert vtensor(u, v, 2) == {1: Fraction(3), 3: Fraction(6)}


def test_linmap_compose_and_identity():
    m = LinMap.from_dense([[1, 2], [0, 1]])
    ident = LinMap.identity(2)
    assert m @ ident == m and ident @ m == m
    sq = m @ m
    assert sq.entry(0, 1) == Fraction(4)


def test_linmap_apply_dimension_check():
    m = LinMap.identity(2)
    with pytest.raises(DimensionMismatch):
        m.apply({5: Fraction(1)})


def test_kernel_of_zero_map_is_full_space():
    z = LinMap(2, 2)
    assert z.kernel().dim == 2


def test_rank_one_idempotent_splits():
    # projection onto first coordinate: image cap kernel = 0
    p = LinMap.from_dense([[1, 0], [0, 0]])
    assert p @ p == p
    image, kernel = p.image(), p.kernel()
    both = Subspace.from_vectors(2, image.rows + kernel.rows)
    assert both.dim == image.dim + kernel.dim


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [{0: Fraction(1), 1: Fraction(1)},
                                  {1: Fraction(1), 2: Fraction(1)}])
    b = Subspace.from_vectors(3, [{0: Fraction(2), 2: Fraction(-2)},
                                  {1: Fraction(5), 2: Fraction(5)},
                                  {0: Fraction(1), 1: Fraction(1)}])
    assert a == b


def test_inverse_and_bijectivity():
    m = LinMap.from_dense([[1, 1], [0, 1]])
    inv = m.inverse()
    assert m @ inv == LinMap.identity(2)
    singular = LinMap.from_dense([[1, 1], [1, 1]])
    assert not singular.is_bijective()
    with pytest.raises(ValueError):
        singular.inverse()


def test_solve_and_uniqueness():
    m = LinMap.from_dense([[1, 1], [0, 0]])
    sol = solve(m, {0: Fraction(2)})
    assert sol is not None and m.apply(sol) == {0: Fraction(2)}
    assert solve(m, {1: Fraction(1)}) is None


def test_span_expresses_combinations():
    m = LinMap(3, 2, [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}])
    combo = solve(m, {0: Fraction(2), 1: Fraction(5)})
    assert combo == {0: Fraction(2), 1: Fraction(3)}
    assert solve(m, {2: Fraction(1)}) is None


# leading entries 1, -1 and 2: echelon rows keep the first two as they
# are (the second negated) and scale only the third
MIXED_PIVOT_ROWS = [[1, 2, 0, 1], [0, -1, 1, 0], [0, 0, 2, 1]]


def _as_fractions(v):
    return {i: Fraction(c) for i, c in v.items()}


def test_unit_pivots_keep_integer_rows():
    sub = Subspace.from_vectors(4, [{0: 1, 1: 2, 3: -1}, {1: -1, 2: 3}])
    assert sub.rows == [{0: 1, 2: 6, 3: -1}, {1: 1, 2: -3}]
    assert all(type(c) is int for row in sub.rows for c in row.values())


def test_int_and_fraction_spans_are_equal():
    vectors = [vec_from(enumerate(row)) for row in MIXED_PIVOT_ROWS]
    ints = Subspace.from_vectors(4, vectors)
    fracs = Subspace.from_vectors(4, [_as_fractions(v) for v in vectors])
    assert ints == fracs and ints.pivots == fracs.pivots == [0, 1, 2]
    assert ints.rows[2] == {2: 1, 3: Fraction(1, 2)}


def test_int_and_fraction_maps_agree():
    wide = LinMap.from_dense(MIXED_PIVOT_ROWS)
    square = LinMap.from_dense([row[:3] for row in MIXED_PIVOT_ROWS])
    for m in (wide, square):
        assert all(type(c) is int for col in m.cols for c in col.values())
    as_fracs = [LinMap(m.nrows, m.ncols, [_as_fractions(c) for c in m.cols])
                for m in (wide, square)]
    assert wide.kernel() == as_fracs[0].kernel() and wide.kernel().dim == 1
    assert wide.rank() == as_fracs[0].rank() == 3
    assert square.inverse() == as_fracs[1].inverse()
    assert square @ square.inverse() == LinMap.identity(3)
    target = {0: 3, 1: -2, 2: 4}
    assert solve(wide, target) == solve(as_fracs[0], _as_fractions(target))
    assert wide.apply(solve(wide, target)) == target


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vec_strategy(n):
    return st.lists(small_rationals, min_size=n, max_size=n).map(
        lambda xs: vec_from(enumerate(xs)))


@settings(max_examples=40, deadline=None)
@given(st.lists(vec_strategy(4), min_size=1, max_size=4))
def test_reduce_is_idempotent_and_membership(vectors):
    sub = Subspace.from_vectors(4, vectors)
    for v in vectors:
        assert sub.contains(v)
    r = sub.reduce({0: Fraction(1), 3: Fraction(2)})
    assert sub.reduce(r) == r


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rank_nullity_for_maps(rows):
    m = LinMap.from_dense(rows)
    assert m.rank() + m.kernel().dim == 3


class ReferenceSpan:
    """An echelon basis that tracks, beside each row, the combination of
    generators producing it: the reference for solve's particular
    solutions on rank-deficient systems."""

    def __init__(self):
        self.rows, self.pivots, self.combos = [], [], []

    def add(self, v, tag):
        r, combo = dict(v), dict(tag)
        for p, row, cmb in zip(self.pivots, self.rows, self.combos):
            c = r.get(p)
            if c:
                vaxpy(r, -c, row)
                vaxpy(combo, -c, cmb)
        if not r:
            return
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

    def express(self, v):
        r, combo = dict(v), {}
        for p, row, cmb in zip(self.pivots, self.rows, self.combos):
            c = r.get(p)
            if c:
                vaxpy(r, -c, row)
                vaxpy(combo, c, cmb)
        return None if r else combo


def _reference_solve(m, target):
    span = ReferenceSpan()
    for j, col in enumerate(m.cols):
        span.add(col, unit_vec(j))
    return span.express(target)


def small_map(nrows, ncols):
    return st.lists(vec_strategy(nrows), min_size=ncols, max_size=ncols).map(
        lambda cols: LinMap(nrows, ncols, cols))


@settings(max_examples=60, deadline=None)
@given(st.lists(vec_strategy(5), min_size=0, max_size=4),
       st.lists(small_rationals, min_size=4, max_size=4), vec_strategy(5))
def test_coords_are_pivot_entries(vectors, weights, probe):
    sub = Subspace.from_vectors(5, vectors)
    c = vec_from(enumerate(weights[:sub.dim]))
    v = {}
    for k, x in c.items():
        vaxpy(v, x, sub.rows[k])
    assert sub.coords(v) == c
    if not sub.contains(probe):
        assert sub.coords(probe) is None


def test_coords_of_a_member_on_few_of_many_pivots():
    """Row k has pivot 2k; a member on rows 90 and 7, written from its
    highest entry down, has those two coordinates in row order."""
    sub = Subspace.from_vectors(200, [{2 * k: 1, 2 * k + 1: k} for k in range(100)])
    v = {181: -180, 180: -2, 15: Fraction(21, 2), 14: Fraction(3, 2)}
    assert list(sub.coords(v).items()) == [(7, Fraction(3, 2)), (90, -2)]
    assert sub.coords({181: 1, 180: 1, 14: 1}) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    small_map(n, 4), vec_strategy(n))))
def test_solve_matches_image_membership_and_reference(case):
    m, target = case
    x = solve(m, target)
    assert (x is None) == (not m.image().contains(target))
    if x is not None:
        assert m.apply(x) == target
    # the rank-deficient systems keep the particular solution of the
    # combination-tracking reference, value for value
    assert x == _reference_solve(m, target)
    reached = m.apply({0: Fraction(1), 2: Fraction(-2)})
    assert solve(m, reached) == _reference_solve(m, reached)


@settings(max_examples=60, deadline=None)
@given(small_map(3, 3))
def test_inverse_of_bijective_map(m):
    if not m.is_bijective():
        with pytest.raises(ValueError):
            m.inverse()
        return
    inv = m.inverse()
    assert inv @ m == LinMap.identity(3)
    assert inv.cols == [_reference_solve(m, unit_vec(i)) for i in range(3)]


def _reference_reduce(sub, v):
    """Reduction that walks every stored pivot, reading each coefficient
    off the running residual."""
    out = dict(v)
    for p, row in zip(sub.pivots, sub.rows):
        c = out.get(p)
        if c:
            vaxpy(out, -c, row)
    return out


nonzero_rationals = small_rationals.filter(bool)


def sparse_vec(n):
    return st.dictionaries(st.integers(0, n - 1), nonzero_rationals, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(sparse_vec(12), min_size=1, max_size=8).flatmap(
    lambda vs: st.tuples(st.just(vs), st.permutations(vs))),
       st.lists(sparse_vec(12), max_size=4))
def test_subspace_echelon_reduction_and_coordinates(case, probes):
    vectors, shuffled = case
    sub = Subspace.from_vectors(12, vectors)
    assert sub.pivots == sorted(set(sub.pivots))
    for p, row in zip(sub.pivots, sub.rows):
        assert min(row) == p and row[p] == 1
        assert all(q == p or q not in row for q in sub.pivots)
    for v in vectors + probes + list(sub.rows):
        got, ref = sub.reduce(v), _reference_reduce(sub, v)
        assert got == ref and list(got.items()) == list(ref.items())
    assert Subspace.from_vectors(12, shuffled) == sub
    assert Subspace.from_vectors(12, reversed(vectors)) == sub
    for v in vectors:
        c = sub.coords(v)
        rebuilt = {}
        for k, x in c.items():
            vaxpy(rebuilt, x, sub.rows[k])
        assert rebuilt == v
