from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf.linalg import (DimensionMismatch, LinMap, Span, Subspace, rat,
                             solve, vadd, vec_from,
                             vscale, vsub, vtensor)


def test_rat_parses_strings():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(-4) == Fraction(-4)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)


def test_vec_ops_keep_zero_free_invariant():
    u = vec_from({0: 1, 2: "1/2"})
    v = vec_from({0: -1, 1: 3})
    w = vadd(u, v)
    assert 0 not in w and w == {1: Fraction(3), 2: Fraction(1, 2)}
    assert vsub(u, u) == {}
    assert vscale(0, u) == {}


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
    z = LinMap.zero(2, 2)
    assert z.kernel().dim == 2


def test_rank_one_idempotent_splits():
    # projection onto first coordinate: image cap kernel = 0
    p = LinMap.from_dense([[1, 0], [0, 0]])
    assert p @ p == p
    assert p.image().intersect(p.kernel()).dim == 0


def test_quotient_dimension_rank_nullity():
    sub = Subspace.from_vectors(4, [{0: Fraction(1), 1: Fraction(1)},
                                    {2: Fraction(1)}])
    q = sub.quotient_map()
    assert q.nrows == 2
    assert q.kernel() == sub


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
    span = Span(3)
    span.add({0: Fraction(1), 1: Fraction(1)})
    span.add({1: Fraction(1)})
    combo = span.express({0: Fraction(2), 1: Fraction(5)})
    assert combo == {0: Fraction(2), 1: Fraction(3)}
    assert span.express({2: Fraction(1)}) is None


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vec_strategy(n):
    return st.lists(small_rationals, min_size=n, max_size=n).map(
        lambda xs: vec_from(enumerate(xs)))


@settings(max_examples=60, deadline=None)
@given(st.lists(vec_strategy(5), min_size=0, max_size=4),
       st.lists(vec_strategy(5), min_size=0, max_size=4))
def test_dimension_formula(us, vs):
    u = Subspace.from_vectors(5, us)
    v = Subspace.from_vectors(5, vs)
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


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
