"""Coproduct slices, the canonical maps T_1..T_4 they assemble, and the
maps the canonical idempotent E and its twists F_1..F_4 cut out of
A (x) A.

``CoproductSlices`` is the one slice object: it multiplies a pair of
coproduct families by basis covers, caches every slice per (kind, a, b),
and assembles T_1..T_4 from those slices; ``apply`` sums T_i(v) from the
slices of v's support alone, and ``twisted`` applies the generalized
inverse R_i = L T_p L^-1 (``TWISTS``) for the wmha suite, the
algebroid's canonical maps and reconstruction alike.  ``Projection`` holds one map cut out by an
element x (``algebra.TensorSquare.projection``, its one home) and builds
it only on first use: its trace, its values on the module generators and
its value at any vector are read off x.  ``first_difference`` compares
two composites of such maps with no map product.  Whether ker T =
im(id - P) for such a P is decided by one exact rule, T P = T and
rank(id - P) = d^2 - rank T (``wmha.CanonicalMaps.kernel_failure``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple

from .linalg import LinMap, Subspace, Vec, unit_vec, vaxpy, vsub, vtensor


# The six maps E and its twists F_i cut out of A (x) A, as the flags
# (left1, left2) of ``TensorSquare._covered_map``: "EL" is y -> Ey, "ER"
# is y -> yE, and which = 1..4 the twisted projector of F_which, whose
# column (a, b) is (e_a (x) 1) F (1 (x) e_b) for F_1, F_2 and
# (1 (x) e_b) F (e_a (x) 1) for F_3, F_4.
PROJECTION_FLAGS = {"EL": (False, False), "ER": (True, True),
                    1: (True, False), 2: (True, False), 3: (False, True), 4: (False, True)}


# which -> (leg, left): T_which, and every P_which and Q_which, commutes
# with the basis covers on that leg from the left when left, else from
# the right; its module generators are e_a on the other leg, and its
# value there is Delta(e_a) from ``CoproductSlices.on_generators``
T_COVERS = {1: (2, False), 2: (1, True), 3: (2, True), 4: (1, False)}

# which -> (leg, inverted, partner): R_which = L T_partner L^-1 and
# F_which = (L on the leg) E, with L = S on that leg, or S^-1 when inverted
TWISTS = {1: (2, False, 3), 2: (1, False, 4), 3: (2, True, 1), 4: (1, True, 2)}


class Applied(NamedTuple):
    """A map as a function, and a thunk of its values on the g_a."""
    apply: Callable[[Vec], Vec]
    generators: Callable[[], Iterable[Vec]]


def first_difference(lhs: list[Applied], rhs: list[Applied],
                     size: int | None = None) -> int | None:
    """The index of the first test vector at which the composites lhs
    and rhs (maps in the order they apply) differ, None if none: the g_a,
    which decide two module maps of one kind (``algebra`` lemma), with
    size None, else e_0, ..., e_(size-1).  It stops at a difference."""
    def values(side):
        got = (side[0].generators() if size is None
               else (side[0].apply(unit_vec(p)) for p in range(size)))
        for f in side[1:]:
            got = map(f.apply, got)
        return got
    return next((k for k, (x, y) in enumerate(zip(values(lhs), values(rhs))) if x != y), None)


class Projection:
    """The map P that x cuts out of t2, cut = (t2, x, flags) under
    ``PROJECTION_FLAGS``, built on first use of ``map``: its trace and
    its values, on the module generators or at any vector, are read off x
    (``algebra`` docstring).  Its image and im(id - P) are echelonized on
    first use; the kernel rule needs im(id - P) only where P(x) != x or
    the square is not generated (``wmha.CanonicalMaps.kernel_failure``)."""

    def __init__(self, cut: tuple):
        self.cut = cut
        self._generators: dict[int, list[Vec]] = {}

    @cached_property
    def map(self) -> LinMap:
        t2, x, flags = self.cut
        return t2._covered_map(x, *flags)

    @cached_property
    def trace(self) -> int | Fraction:
        """tr P.  Column (a, b) of a cut map is sum x[u, v] L(a, u) (x)
        R(v, b), so tr P = sum x[u, v] t1(u) t2(v), where t1(u) sums the
        a-th entries of L(a, u) over a, a one-sided trace of e_u, and
        t2(v) likewise for R(v, b)."""
        t2, x, (left1, left2) = self.cut
        tr1, tr2, d = t2.algebra.traces[left1], t2.second.traces[left2], t2.dim
        return sum(c * tr1[p // d] * tr2[p % d] for p, c in x.items())

    def on_generators(self, leg: int) -> list[Vec]:
        """P(e_a (x) 1) for leg 1, or P(1 (x) e_a) for leg 2, for every a:
        x multiplied by e_a on that leg, from the side its flag gives.
        One pass groups x by its index u on the leg; each product of e_a
        with e_u is then read off a partner row."""
        got = self._generators.get(leg)
        if got is None:
            t2, x, flags = self.cut
            rows = (t2.algebra if leg == 1 else t2.second).partners
            groups = t2.leg_vectors(x, 3 - leg)
            if flags[leg - 1]:          # e_a e_u
                pairs = ((a, u, e) for a, row in enumerate(rows)
                         for u, e in row.items() if u in groups)
            else:                       # e_u e_a
                pairs = ((a, u, e) for u in groups for a, e in rows[u].items())
            got = self._generators[leg] = [{} for _ in rows]
            for a, u, e in pairs:
                vaxpy(got[a], 1, vtensor(e, groups[u], t2.dim) if leg == 1
                      else vtensor(groups[u], e, t2.dim))
        return got

    def applied(self, which: int) -> Applied:
        """P as a function, with its values on T_which's generators."""
        return Applied(self.apply, partial(self.on_generators, 3 - T_COVERS[which][0]))

    def commutes_with(self, which: int) -> bool:
        """Whether P commutes with T_which's covers (``T_COVERS``)."""
        leg, left = T_COVERS[which]
        return self.cut[2][leg - 1] == left

    def apply(self, v: Vec) -> Vec:
        """P(v) = sum v[a, b] x[u, w] L(a, u) (x) R(w, b)
        (``TensorSquare._covered_map``), with x grouped by its first leg
        and each product read off a partner row."""
        t2, x, (left1, left2) = self.cut
        rows1, rows2, d = t2.algebra.partners, t2.second.partners, t2.dim
        out: Vec = {}
        for p, c in v.items():
            a, b = divmod(p, d)
            for u, row in self._groups.items():
                lv = rows1[a].get(u) if left1 else rows1[u].get(a)
                if lv is not None:
                    for w, e in row.items():
                        rv = rows2[b].get(w) if left2 else rows2[w].get(b)
                        if rv is not None:
                            vaxpy(out, c * e, vtensor(lv, rv, d))
        return out

    @cached_property
    def _groups(self) -> dict[int, Vec]:
        return self.cut[0].leg_vectors(self.cut[1], 2)

    @cached_property
    def image(self) -> Subspace:
        return self.map.image()

    @cached_property
    def complement(self) -> Subspace:
        return (LinMap.identity(self.map.nrows) - self.map).image()


class CoproductSlices:
    """Slices of a left family Delta(e_a) and a right family Delta'(e_a)
    in A (x) A by basis covers e_b, e_c:

        r1(a, c) = Delta(e_a)(e_c (x) 1)    l1(a, c) = (e_c (x) 1)Delta'(e_a)
        r2(a, b) = Delta(e_a)(1 (x) e_b)    l2(a, b) = (1 (x) e_b)Delta'(e_a)

    Each slice is computed once and cached per (kind, a, b), because the
    pair- and triple-indexed checks revisit them; the canonical maps
    T_1..T_4 are assembled from the cached slices once, and their images
    and kernels are echelonized once, on first use: the kernel rule reads
    rank T off the image, and only a failing reconstruction kernel stage
    builds ker T.  Cached values are shared, so callers must not mutate
    them.  A bundle slices (Delta, Delta), an algebroid (Delta_B,
    Delta_C), reconstruction the rebuilt (E Delta_B, Delta_C E); a bundle
    rebuilt by reconstruction keeps the rebuilt slices, since there
    Delta = Delta'.
    """

    def __init__(self, t2: TensorSquare, left: list[Vec], right: list[Vec]):
        self.t2 = t2
        self.left = left
        self.right = right
        self._slices: dict[tuple[str, int, int], Vec] = {}
        self._maps: dict[int, LinMap] = {}
        self._spaces: dict[tuple[str, int], Subspace] = {}

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

    def column(self, which: int, a: int, b: int) -> Vec:
        """Column (a, b) of T_which: r2(a, b), l1(b, a), l2(a, b) resp.
        r1(b, a)."""
        if which == 1:
            return self.r2(a, b)
        if which == 2:
            return self.l1(b, a)
        if which == 3:
            return self.l2(a, b)
        return self.r1(b, a)

    def canonical_map(self, which: int) -> LinMap:
        """T_1..T_4 on A (x) A, from the columns of ``column``."""
        if which not in T_COVERS:
            raise ValueError(which)
        m = self._maps.get(which)
        if m is None:
            d = self.t2.dim
            m = self._maps[which] = LinMap(self.t2.size, self.t2.size, [
                self.column(which, a, b) for a in range(d) for b in range(d)])
        return m

    def apply(self, which: int, v: Vec) -> Vec:
        """T_which(v), summed from the cached slices of v's support only."""
        d, out = self.t2.dim, {}
        for p, c in v.items():
            vaxpy(out, c, self.column(which, *divmod(p, d)))
        return out

    def on_generators(self, which: int) -> list[Vec]:
        """T_which on its module generators (``T_COVERS``):
        T_1(e_a (x) 1) = T_4(1 (x) e_a) = left[a] and
        T_2(1 (x) e_a) = T_3(e_a (x) 1) = right[a]."""
        return self.left if which in (1, 4) else self.right

    def applied(self, which: int) -> Applied:
        """T_which as a function, with its values on the generators."""
        return Applied(partial(self.apply, which), partial(self.on_generators, which))

    def twisted(self, which: int, s: LinMap, s_inv: LinMap) -> Applied:
        """R_which = L T_p L^-1 (``TWISTS``) as a function, never built,
        with L = s or s_inv on its leg.  On T_which's generators, which
        are T_p's, R_which(g_a) = L(T_p(g_a)), as L^-1 fixes g_a when
        S(1) = 1 (``algebra`` lemma)."""
        leg, inverted, partner = TWISTS[which]
        l, l_inv = (s_inv, s) if inverted else (s, s_inv)
        leg_map = self.t2.map_leg1 if leg == 1 else self.t2.map_leg2
        t = self.applied(partner)
        return Applied(lambda v: leg_map(l, t.apply(leg_map(l_inv, v))),
                       lambda: (leg_map(l, y) for y in t.generators()))

    def canonical_image(self, which: int) -> Subspace:
        """im T_which, computed once."""
        return self._space("image", which)

    def canonical_kernel(self, which: int) -> Subspace:
        """ker T_which, computed once."""
        return self._space("kernel", which)

    def _space(self, kind: str, which: int) -> Subspace:
        key = (kind, which)
        got = self._spaces.get(key)
        if got is None:
            m = self.canonical_map(which)
            got = self._spaces[key] = m.image() if kind == "image" else m.kernel()
        return got

    def first_coassociativity_failure(self, equations) -> tuple[int, int, int, int] | None:
        """The first (a, b, c, k), in the order of a covered loop over a,
        b, c and then k, at which equation k fails; None when all hold.

        Equation k is (outer, inner[, same]): slice kinds outer "r2" or
        "l2" and inner "r1" or "l1", and a comparison (== by default).
        Its covered form compares sum outer(a, b)[u, v] inner(u, c) (x) e_v
        with sum inner(a, c)[u, v] e_u (x) outer(v, b).  With O and I the
        coproduct families behind the two kinds, these are
        (I (x) id)O(e_a) and (id (x) O)I(e_a) in A (x) A (x) A, covered by
        e_c on the first leg and e_b on the third, each on the side its
        slice covers.  If same is closed under those covers, as == is,
        comparing the two elements decides every b, c at once: closure
        carries a pass to each cover, and conversely, A being unital, the
        covers weighted by the unit's coefficients sum to the elements.
        same must be linear, same(x, y) holding as same(x - y, 0) does.
        Covers are scanned only at the first failing a, to name (b, c) and
        k, by ``first_nonzero_cover`` with the covered differences trivial
        under same against zero.
        """
        t2, d = self.t2, self.t2.dim
        family = {"r2": self.left, "r1": self.left, "l2": self.right, "l1": self.right}
        for a in range(d):
            sides = [(t2.expand_leg1(family[outer][a], family[inner].__getitem__),
                      t2.expand_leg2(family[inner][a], family[outer].__getitem__))
                     for outer, inner, *_ in equations]
            if all(same[0](x, y) if same else x == y
                   for (x, y), (_, _, *same) in zip(sides, equations)):
                continue
            # an l-kind slice covers from the left, an r-kind from the right
            (b, c), k = t2.first_nonzero_cover(
                [(vsub(x, y), ((3, outer[0] == "l"), (1, inner[0] == "l")),
                  *[lambda z, same=f: same(z, {}) for f in same])
                 for (x, y), (outer, inner, *same) in zip(sides, equations)])
            return a, b, c, k
        return None
