"""The separating functional is decided at the first faithful point of a
moment curve through the constraint space.

The inputs are random direct sums of Q, M_2 and M_3 with sigma = Ad(u)
for a random invertible u, possibly followed by the swap of two
isomorphic summands.  sigma fixes the centre exactly when it fixes every
block identity, and then tr(u .) is a faithful functional with modular
automorphism sigma; a swap moves the centre and leaves none.

The reference is the small-coefficient sweep the search replaced, kept
here without its budget, with the sigma-fixed centre it rescaled over
solved from the commutator and fixed-point rows together, as it was.
"""

from __future__ import annotations

import itertools
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakhopf import separability
from weakhopf.algebra import direct_sum, field_algebra, matrix_algebra
from weakhopf.examples import obstruction_scenario
from weakhopf.linalg import LinMap, lincomb, unit_vec, vaxpy
from weakhopf.separability import (NotIdempotentE, SeparabilityError, _central_rescale,
                                   build_E_from_functional, find_separating_functional,
                                   modular_automorphism, pairing_matrix, sigma_center,
                                   sigma_constraint_space)


def _reference_fixed_center(b, sigma):
    n = b.dim
    rows = []
    for i in range(n):
        rows.extend((b.left_mult(unit_vec(i)) - b.right_mult(unit_vec(i))).rows())
    rows.extend((sigma - LinMap.identity(n)).rows())
    return LinMap.from_rows(n, rows).kernel()


def _reference_sweep(b, sigma):
    """The first candidate of the sweep that is separating, after the
    central repair; None when no candidate is."""
    space = sigma_constraint_space(b, sigma)
    fixed = _reference_fixed_center(b, sigma)
    for coeffs in ((1,), (1, -1), (1, -1, 2), (1, -1, 2, -2, 3)):
        for combo in itertools.product(coeffs, repeat=space.dim):
            phi = {}
            for c, row in zip(combo, space.rows):
                vaxpy(phi, c, row)
            if not phi or not pairing_matrix(b, phi).is_bijective():
                continue
            if modular_automorphism(b, phi) != sigma:
                continue
            try:
                return phi, build_E_from_functional(b, phi)
            except NotIdempotentE as exc:
                got = _central_rescale(exc, fixed)
                if got is not None:
                    return got
            except SeparabilityError:
                pass
    return None


def _blocks(sizes):
    """B = the direct sum of M_n for n in sizes (M_1 = Q), and the offset
    of each summand."""
    algebras = [field_algebra() if n == 1 else matrix_algebra(n) for n in sizes]
    b = algebras[0]
    for a in algebras[1:]:
        b = direct_sum(b, a)
    offsets = list(itertools.accumulate([0] + [n * n for n in sizes[:-1]]))
    return b, offsets


@st.composite
def semisimple_bases(draw):
    """(B, sigma, whether sigma fixes the centre)."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3)
                 .filter(lambda ns: sum(n * n for n in ns) <= 10))
    b, offsets = _blocks(sizes)
    u = {}
    for n, off in zip(sizes, offsets):
        entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
        for p, c in enumerate(entries):
            if c:
                u[off + p] = c
    left_u = b.left_mult(u)
    assume(left_u.is_bijective())
    u_inv = left_u.inverse().apply(b.unit())
    perm = list(range(b.dim))
    pairs = [(s, t) for s, t in itertools.combinations(range(len(sizes)), 2)
             if sizes[s] == sizes[t]]
    if pairs and draw(st.booleans()):
        s, t = draw(st.sampled_from(pairs))
        for p in range(sizes[s] ** 2):
            perm[offsets[s] + p], perm[offsets[t] + p] = offsets[t] + p, offsets[s] + p
    cols = [{perm[i]: c for i, c in b.mul(u, b.mul(unit_vec(j), u_inv)).items()}
            for j in range(b.dim)]
    sigma = LinMap(b.dim, b.dim, cols)
    identities = [{off + i * n + i: 1 for i in range(n)} for n, off in zip(sizes, offsets)]
    fixes_center = all(sigma.apply(e) == e for e in identities)
    return b, sigma, fixes_center


@settings(max_examples=30, deadline=None)
@given(semisimple_bases())
def test_first_faithful_point_decides(case):
    b, sigma, fixes_center = case
    space = sigma_constraint_space(b, sigma)
    k = space.dim
    with mock.patch.object(separability, "pairing_matrix", wraps=pairing_matrix) as built:
        found = find_separating_functional(b, sigma)
    # one pairing matrix per functional: the walked points of the curve,
    # at most k(k-1)+1, then at most the centrally rescaled functional
    functionals = [call.args[1] for call in built.call_args_list]
    curve = [lincomb({j: t ** j for j in range(k)}, space.rows)
             for t in range(1, k * (k - 1) + 2)]
    walked = 0
    while walked < min(len(functionals), len(curve)) and functionals[walked] == curve[walked]:
        walked += 1
    assert walked >= 1 and functionals[walked:] in ([], [found and found[0]])
    reference = _reference_sweep(b, sigma)
    if reference is not None:
        assert found is not None
        assert found[0] == reference[0]
        assert found[1].e == reference[1].e
    if found is not None:
        idem = found[1]
        assert idem.bc.mul(idem.e, idem.e) == idem.e
        assert idem.check_invariants() == []
    moved = sigma_center(b, sigma)[1]
    assert (found is None and moved is not None) == (not fixes_center)


def test_one_pairing_matrix_per_functional():
    """auto-weighted is decided at t = 1 through the central rescale: the
    faithful point and the rescaled functional each get one pairing
    matrix and one inversion of it, which give both sigma and the dual
    basis."""
    graph = obstruction_scenario("auto-weighted")[0].graph
    b, c = graph.b_view.algebra, graph.c_view.algebra
    sigma = (graph.s_c @ graph.s_b).inverse()
    inverted = []
    invert = LinMap.inverse

    def counted_inverse(self):
        inverted.append(self)
        return invert(self)

    with mock.patch.object(separability, "pairing_matrix", wraps=pairing_matrix) as build, \
            mock.patch.object(LinMap, "inverse", counted_inverse):
        found = find_separating_functional(b, sigma, graph.s_b, c)
    built = [(call.args[1], pairing_matrix(*call.args)) for call in build.call_args_list]
    assert found is not None
    assert [phi for phi, _ in built] == [sigma_constraint_space(b, sigma).rows[0], found[0]]
    for _, p in built:
        assert sum(m == p or m == p.transpose() for m in inverted) == 1
