"""Weak multiplier Hopf algebra bundles and their axiom suite.

The bundle holds the coproduct as one tensor-square element per basis
vector (the finite engine requires a unital algebra, where multipliers
reify to elements), together with counit, antipode and the canonical
idempotent.  Every defining identity is an executable check returning a
structured record; leg-notation expressions are realized as compositions
of slice maps and the antipode, never symbolically.  Identities indexed
by basis elements or pairs are stated as laws for the one scanner,
``algebra.first_failure``, which names the first tuple in lexicographic
order and then the first law failing there; the multiplicativity of
Delta and S is the one law of ``algebra.multiplicativity``.  The maps
that E and its twists F_i cut out of A (x) A, their images and the
kernel descriptions im(id - P_i) come from ``maps.projection``, held
per which and memoized on the tensor square; whoever holds that square
with an equal element (the forward construction's sections,
reconstruction's range and kernel stages) shares the same map.

``CanonicalMaps`` is the one home of T_i, R_i, Q_i (Q_1 = Q_4 = EL,
y -> Ey, Q_2 = Q_3 = ER, y -> yE) and P_i (the map F_i cuts out), with
S^-1, the scan ``antihom_failure``, the memo ``agrees``, the certificate
H and the range and kernel decisions.  The bundle holds one; the
forward algebroid's and reconstruction's are ``over`` the maps they come
from, so S is inverted and scanned once.  The bundle reconstruction
rebuilds holds the stages' own, and so reads their decisions.  Each
identity is one comparison, ``first_difference``: both sides are
applied as functions (``maps[i, name]``) to a test set, and no map
product and no R_i is formed.  The test set is the d module generators
g_a when M holds: S is bijective and anti-multiplicative, and
``TensorSquare.generated``.  By the lemma in the ``algebra`` docstring,
which needs no E law, M makes the four maps module maps of one kind.
Otherwise it is the d^2 basis vectors e_p, in order.

The memoized certificate H, ``certificate``, asks, cheapest first: the
E laws on the two slice families, E^2 = E, E left[a] = left[a] and
right[a] E = right[a] for every a (``e_law_failure``, which
``check_E_identities`` reads; a bundle has Delta for both), M, and
T_i R_i == Q_i for i = 1..4 up to the first that differs.  Under H:

* T_i R_i T_i = Q_i T_i = T_i column by column: a column of T_1 or T_4
  is left[a] times a cover, which E absorbs from the left, and one of
  T_2 or T_3 is a cover times right[a], which E absorbs from the right.
  So ``generalized-inverses`` passes: by ``TWISTS``,
  R_i = L_i T_p L_i^-1 for the partner p, and L_p = L_i^-1, so
  T_i = L_i R_p L_i^-1 and R_i T_i R_i = L_i (T_p R_p T_p) L_i^-1 =
  L_i T_p L_i^-1 = R_i.
* The ranges hold (``range_failure``).  im T_i contains im T_i R_i,
  which contains im T_i R_i T_i = im T_i, so im T_i = im T_i R_i =
  im Q_i.  E^2 = E makes EL and ER idempotent, so their ranks are
  their traces, read off E.  Without H, im T_i and im Q_i are
  echelonized in the caller's order up to the first that differ.

Without H, R_i T_i R_i = R_i is T_p R_p T_p = T_p by the first bullet,
which needs only S bijective.  ``projection-formulas`` compares T_i R_i
with Q_i, then R_i T_i with P_i; where R_i T_i differs, e_p, p = a d + b,
are scanned in order for the first differing column (a, b).

``kernel_failure`` decides ker T_i = im(id - P), P cut out by x, by the
rule: ker T = im(id - P) iff T P = T and rank(id - P) = d^2 - rank T.
(<=) T P = T puts im(id - P) inside ker T, and equal dimensions make the
two equal; (=>) T (id - P) = 0, and rank-nullity gives the dimension.
T P = T is compared on the g_a when P commutes with T_i's covers on a
generated square, else on the e_p.  rank T_i is tr Q_i under H, else
read off im T_i's echelon form; rank(id - P) is d^2 - tr P when P(x) = x
on a generated square (then P^2 = P, ``algebra`` lemma), else read off
im(id - P)'s; the witness is (dim im(id - P), dim ker T_i).  For the
maps' own P_i, T_i R_i T_i = T_i (H, or compared) and R_i T_i = P_i
decide first, from comparisons already made: T_i P_i = T_i, P_i^2 = P_i,
and rank P_i = rank T_i as each factors through the other.  Every
decision is exact, so reports do not depend on the path.

Unital reductions.  The paper states the counit and antipode laws with
covering elements, (eps (x) id)(Delta(a)(1 (x) b)) = ab, because for an
infinite groupoid A has no unit.  A is unital here (the bundle requires
it), and each law below is a module map in one index, which it carries
through: at (a, b) it is F(a) b = G(a) b, or a F(b) = a G(b).  So it
holds at every pair whose other index is i when F(e_i) = G(e_i), the
law on the generators, and only the i where that fails are scanned
(``algebra.live_at``), to name today's witness: the first failing pair
in lexicographic order, then the first law.  The unit gives the
converse, by summing the covers with its coefficients: where F(e_i) !=
G(e_i), some pair fails, so a passing suite forms no pair-indexed value.

* ``counit-laws``.  (eps (x) id)(Delta(e_a)(1 (x) e_b)) =
  ((eps (x) id)Delta(e_a)) e_b, by the product of A (x) A alone, so the
  left law holds for every b iff (eps (x) id)Delta(e_a) = e_a.  Likewise
  (id (x) eps)((e_a (x) 1)Delta(e_b)) = e_a (id (x) eps)Delta(e_b), so
  the right law holds for every a iff (id (x) eps)Delta(e_b) = e_b; its
  module index is the outer one.
* ``antipode-triple-products``, when the square is generated
  (associativity is needed to move e_b out of m).  The first law is
  m((t (x) id)Delta(e_a)) e_b = e_a e_b, t the target map, so it holds
  for every b iff m((t (x) id)Delta(e_a)) = e_a.  When S is also
  anti-multiplicative, (id (x) S)((1 (x) S^-1 e_b)Delta(e_a)) =
  ((id (x) S)Delta(e_a))(1 (x) e_b), as S(S^-1(e_b) x) = S(x) e_b, so the
  second law holds for every b iff m((s (x) id)(id (x) S)Delta(e_a)) =
  S(e_a), s the source map.  Otherwise the second law keeps the full
  scan.
* ``counit-uniqueness``.  By the first bullet with f for eps, f
  satisfies the 2 d^2 vector equations of both laws iff it satisfies
  the 2d equations (f (x) id)Delta(e_a) = e_a = (id (x) f)Delta(e_a):
  the two systems have one solution set, and, with zero right-hand
  sides, one kernel.  The kernel is reported in reduced echelon form and
  the solution only when it is unique, so the witness is unchanged.
* ``coproduct-fullness``.  (id (x) phi)(Delta(e_a)(1 (x) e_b)) =
  (id (x) phi(. e_b))Delta(e_a) lies in the first-leg span of
  Delta(e_a), and Delta(e_a) = sum_b u_b Delta(e_a)(1 (x) e_b) for the
  unit u = sum_b u_b e_b, so over all b the covers span what Delta(e_a)
  spans, on either leg.  Only the leg vectors of the Delta(e_a) are
  inserted, and ``span_dim`` is unchanged.
* The E laws.  Delta(1) = E and the multiplicativity of Delta, which
  ``coproduct-homomorphism`` decides on basis pairs and bilinearity
  extends, give E^2 = Delta(1 1) = E and E Delta(a) = Delta(1 a) =
  Delta(a) = Delta(a) E.  So once that record passes and Delta(1) == E,
  ``run_suite`` sets ``e_law_failure`` to None and forms none of the
  d + 1 products; otherwise it is scanned.  Every valid input takes
  this path.  Delta(1) = Delta(1)(1 (x) 1) lies in Delta(A)(1 (x) A) =
  E(A (x) A), on which E^2 = E acts as the identity, so E Delta(1) =
  Delta(1).  E lies in (A (x) A)E = (A (x) 1)Delta(A), and
  (a (x) 1)Delta(b)Delta(1) = (a (x) 1)Delta(b), so E Delta(1) = E.
  Hence E = Delta(1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import (AlgebraError, FiniteAlgebra, TensorSquare, first_failure, live_at,
                      multiplicativity)
from .slices import TWISTS, Applied, CoproductSlices, Projection, first_difference
from .linalg import LinMap, Subspace, Vec, lincomb, solve, unit_vec, vdot, vsub
from .reporting import PASS, SKIP, CheckRecord, Report, failed, passed

# which -> the map Q_which is, cut out by E
Q_CUTS = {1: "EL", 2: "ER", 3: "ER", 4: "EL"}


class CanonicalMaps:
    """T_i, R_i, P_i and Q_i of one set of slices under one antipode S,
    with E: S^-1, M, the comparison memo, H and the range and kernel
    decisions (module docstring)."""

    def __init__(self, slices: CoproductSlices, antipode: LinMap, e: Vec | None = None):
        self.slices = slices
        self.t2 = slices.t2
        self.antipode = antipode
        self.E = e
        self._applied: dict[tuple[int, str], Applied] = {}
        self._agrees: dict[tuple[int, str, str], bool] = {}
        self._projections: dict = {}

    def over(self, slices: CoproductSlices, e: Vec | None = None) -> CanonicalMaps:
        """The maps of other slices of A under S, with this S^-1 and scan."""
        maps = CanonicalMaps(slices, self.antipode, e)
        maps.antipode_inv, maps.antihom_failure = self.antipode_inv, self.antihom_failure
        return maps

    @cached_property
    def antipode_inv(self) -> LinMap | None:
        """S^-1, or None when S is not square or singular."""
        try:
            return self.antipode.inverse()
        except ValueError:
            return None

    @cached_property
    def antihom_failure(self) -> tuple | None:
        """The first basis pair (i, j), as ``first_failure`` names it, at
        which S(e_i e_j) != S(e_j) S(e_i); None when S is
        anti-multiplicative."""
        alg = self.t2.algebra
        return first_failure((alg.dim, alg.dim),
                             [multiplicativity(alg, self.antipode.cols, alg.mul, anti=True)])

    def antipode_pair(self) -> tuple[LinMap, LinMap]:
        """(S, S^-1), which R_i, F_i and the antipode identities need;
        ``AlgebraError`` when S is singular."""
        if self.antipode_inv is None:
            raise AlgebraError("antipode matrix is singular")
        return self.antipode, self.antipode_inv

    @property
    def module_premise(self) -> bool:
        """M of the module docstring."""
        return (self.antipode_inv is not None and self.antihom_failure is None
                and self.t2.generated())

    def __getitem__(self, key: tuple[int, str]) -> Applied:
        """T_i, R_i, P_i or Q_i for key (i, "T"), (i, "R"), (i, "P") or
        (i, "Q"), as a function with its values on the g_a of T_i's kind;
        R_i = L T_p L^-1 is ``CoproductSlices.twisted``."""
        if key not in self._applied:
            which, name = key
            self._applied[key] = (
                self.slices.applied(which) if name == "T" else
                self.slices.twisted(which, *self.antipode_pair()) if name == "R" else
                self.projection(which if name == "P" else Q_CUTS[which])
                .applied(which))
        return self._applied[key]

    def twisted(self, which: int) -> Applied | None:
        """R_which when M makes it a module map of T_which's kind, else
        None."""
        return self[which, "R"] if self.module_premise else None

    def kernel_idempotent(self, which: int) -> Vec:
        """F_1..F_4: E with L moved through its leg (``TWISTS``); like
        R_which, it needs S bijective."""
        if which not in TWISTS:
            raise ValueError(which)
        leg, inverted, _ = TWISTS[which]
        lmap = self.antipode_pair()[inverted]
        return (self.t2.map_leg1 if leg == 1 else self.t2.map_leg2)(lmap, self.E)

    def projection(self, which) -> Projection:
        """The map E ("EL", "ER") or F_which (1..4) cuts out of A (x) A,
        under ``slices.PROJECTION_FLAGS``, held once per which: P_which is
        expected to equal R_which T_which, its complement ker T_which."""
        got = self._projections.get(which)
        if got is None:
            elt = self.E if which in ("EL", "ER") else self.kernel_idempotent(which)
            got = self._projections[which] = self.t2.projection(elt, which)
        return got

    def first_difference(self, which: int, lhs: str, rhs: str,
                         basis: bool = False) -> int | None:
        """``slices.first_difference`` of the words lhs and rhs over "T",
        "R", "P", "Q" of index which ("RT" is R_which T_which), on the
        basis vectors when basis is set or M fails."""
        size = None if self.module_premise and not basis else self.t2.size
        return first_difference(*([self[which, name] for name in reversed(word)]
                                  for word in (lhs, rhs)), size=size)

    def agrees(self, which: int, lhs: str, rhs: str) -> bool:
        """Whether ``first_difference`` finds none; memoized."""
        key = (which, lhs, rhs)
        if key not in self._agrees:
            self._agrees[key] = self.first_difference(which, lhs, rhs) is None
        return self._agrees[key]

    @cached_property
    def e_law_failure(self) -> tuple[str, dict] | None:
        """The first of E^2 = E, E left[a] = left[a] and right[a] E =
        right[a] (first a, then the family) that fails, as the record
        name and witness ``check_E_identities`` reports; None when all
        hold.  ``run_suite`` assigns None when E = Delta(1) proves them
        (module docstring)."""
        t2, e, left, right = self.t2, self.E, self.slices.left, self.slices.right
        ee = t2.mul(e, e)
        if ee != e:
            return "canonical-idempotent-squared", {"EE": ee, "E": e}
        bad = first_failure((len(left),), [(lambda a: t2.mul(e, left[a]), left.__getitem__),
                                           (lambda a: t2.mul(right[a], e), right.__getitem__)])
        if bad is not None:
            return ("canonical-idempotent-absorbs-coproduct",
                    {"basis": t2.algebra.labels[bad[0][0]]})
        return None

    @cached_property
    def certificate(self) -> tuple | None:
        """(tr EL, tr ER) when H holds, else None.  T_i R_i == Q_i is
        asked for i = 1, 2, ... only up to the first i that fails."""
        if (self.e_law_failure is not None or not self.module_premise
                or not all(self.agrees(i, "TR", "Q") for i in (1, 2, 3, 4))):
            return None
        return self.projection("EL").trace, self.projection("ER").trace

    def range_failure(self, order) -> tuple[int, Subspace, Subspace] | None:
        """The first i in order with im T_i != im Q_i, with the two
        images; None under H, else when the echelon forms agree."""
        if self.certificate is None:
            for i in order:
                got = self.slices.canonical_image(i)
                want = self.projection(Q_CUTS[i]).image
                if got != want:
                    return i, got, want
        return None

    @property
    def range_dims(self) -> tuple:
        """(dim E(A (x) A), dim (A (x) A)E) once the ranges hold: the
        traces under H, else the echelon forms' dimensions."""
        return self.certificate or (self.projection("EL").image.dim,
                                    self.projection("ER").image.dim)

    def kernel_shortcut(self, which: int, proj: Projection) -> bool:
        """Whether proj is the maps' own P_which, with T R T = T (H, or
        compared) and R T = P (module docstring)."""
        return (self.antipode_inv is not None and proj is self.projection(which)
                and (self.certificate is not None or self.agrees(which, "TRT", "T"))
                and self.agrees(which, "RT", "P"))

    def kernel_failure(self, which: int, proj: Projection) -> tuple[int, int] | None:
        """None when ker T_which = im(id - P) for proj's map P, else
        (dim im(id - P), dim ker T_which), by the shortcut or the rule."""
        if self.kernel_shortcut(which, proj):
            return None
        size, x, generated = self.t2.size, proj.cut[1], self.t2.generated()
        kernel = size - (self.certificate[Q_CUTS[which] == "ER"] if self.certificate
                         else self.slices.canonical_image(which).dim)
        described = size - proj.trace if generated and proj.apply(x) == x else proj.complement.dim
        t, on = self[which, "T"], None if generated and proj.commutes_with(which) else size
        if described == kernel and first_difference([proj.applied(which), t], [t], on) is None:
            return None
        return int(described), int(kernel)


class WeakMultiplierHopfAlgebra:
    """Bundle (A, Delta, counit, S, E) with its ``CanonicalMaps``.
    Shared maps bring their slices and tensor square, and with them
    every map and comparison they hold."""

    def __init__(self, algebra: FiniteAlgebra, delta: list[Vec], counit: Vec,
                 antipode: LinMap, canonical_idempotent: Vec,
                 maps: CanonicalMaps | None = None):
        self.algebra = algebra
        self.delta = [dict(v) for v in delta]
        self.counit = dict(counit)
        self.antipode = antipode
        self.E = dict(canonical_idempotent)
        if len(delta) != algebra.dim:
            raise AlgebraError("coproduct needs one element per basis vector")
        if algebra.unit() is None:
            raise AlgebraError("finite engine requires a unital algebra")
        if maps is None:
            maps = CanonicalMaps(CoproductSlices(TensorSquare(algebra), self.delta, self.delta),
                                 antipode, self.E)
        elif (maps.t2.algebra is not algebra or maps.slices.left != self.delta
              or maps.slices.right != self.delta or maps.antipode != antipode
              or maps.E != self.E):
            raise AlgebraError("shared maps belong to another coproduct, antipode or idempotent")
        self.maps = maps
        self.slices = maps.slices
        self.t2 = maps.t2

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta_of(self, x: Vec) -> Vec:
        return lincomb(x, self.delta)

    def eps(self, x: Vec) -> int | Fraction:
        return vdot(x, self.counit)

    # reified source/target values mu(S (x) id)Delta resp. mu(id (x) S)Delta
    def source_value(self, a: int) -> Vec:
        return self.t2.mul_map(self.t2.map_leg1(self.antipode, self.delta[a]))

    def target_value(self, a: int) -> Vec:
        return self.t2.mul_map(self.t2.map_leg2(self.antipode, self.delta[a]))


# -- individual checks --------------------------------------------------

def check_algebra(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    try:
        bundle.algebra.validate()
    except AlgebraError as exc:
        return failed("algebra-structure", {"error": str(exc)})
    return passed("algebra-structure")


def check_homomorphism(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    alg = bundle.algebra
    bad = first_failure((alg.dim, alg.dim),
                        [multiplicativity(alg, bundle.delta, bundle.t2.mul)])
    if bad is not None:
        pair, _, lhs, rhs = bad
        return failed("coproduct-homomorphism",
                      {"pair": [alg.labels[i] for i in pair], "lhs": lhs, "rhs": rhs})
    return passed("coproduct-homomorphism")


def check_coassociativity(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """(Delta (x) id)Delta(b) = (id (x) Delta)Delta(b), decided per b in
    A (x) A (x) A.  The witness is the first basis triple (a, b, c), in
    the loop order b, c, a, at which the covered form
    (a(x)1(x)1)(Delta(x)id)(Delta(b)(1(x)c)) =
    (id(x)Delta)((a(x)1)Delta(b))(1(x)1(x)c) fails."""
    bad = bundle.slices.first_coassociativity_failure([("r2", "l1")])
    if bad is not None:
        b, c, a, _ = bad
        return failed("coproduct-coassociativity",
                      {"triple": [bundle.algebra.labels[i] for i in (a, b, c)]})
    return passed("coproduct-coassociativity")


def check_fullness(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """The leg spans of the Delta(a)(1 (x) b) and of the (a (x) 1)Delta(b)
    are A.  They are the leg spans of the Delta(e_a) (module docstring),
    so only those leg vectors are inserted."""
    t2, d = bundle.t2, bundle.dim
    left = Subspace(d)
    right = Subspace(d)
    for delta in bundle.delta:
        for vec1 in t2.leg_vectors(delta, 1).values():
            left.insert(vec1)
        for vec2 in t2.leg_vectors(delta, 2).values():
            right.insert(vec2)
        if left.dim == d and right.dim == d:
            break
    if left.dim != d:
        return failed("coproduct-fullness", {"leg": "first", "span_dim": left.dim})
    if right.dim != d:
        return failed("coproduct-fullness", {"leg": "second", "span_dim": right.dim})
    return passed("coproduct-fullness")


def check_counit(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """(eps (x) id)(Delta(a)(1 (x) b)) = ab and (id (x) eps)((a (x) 1)Delta(b))
    = ab, scanned only at the a, resp. b, where (eps (x) id)Delta(e_a) =
    e_a, resp. (id (x) eps)Delta(e_b) = e_b, fails (module docstring)."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    eps, sl, delta = bundle.counit, bundle.slices, bundle.delta
    bad = first_failure((d, d), [
        (lambda a, b: t2.functional_leg1(eps, sl.r2(a, b)), alg.mul_basis),
        (lambda a, b: t2.functional_leg2(eps, sl.l1(b, a)), alg.mul_basis)],
        live=[live_at(0, d, lambda a: t2.functional_leg1(eps, delta[a]), unit_vec),
              live_at(1, d, lambda b: t2.functional_leg2(eps, delta[b]), unit_vec)])
    if bad is not None:
        pair, k, lhs, rhs = bad
        return failed(("counit-left-law", "counit-right-law")[k],
                      {"pair": [alg.labels[i] for i in pair], "lhs": lhs, "rhs": rhs})
    return passed("counit-laws")


def check_counit_uniqueness(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """Solve for every functional f satisfying both counit laws; fullness
    should force a one-point solution set equal to the stored counit.
    The laws hold for f exactly when (f (x) id)Delta(e_a) = e_a =
    (id (x) f)Delta(e_a) for every a (module docstring), so those 2d
    vector equations are solved."""
    t2, d = bundle.t2, bundle.dim
    rows: list[Vec] = []
    rhs: Vec = {}

    def emit(coeffs_by_leg: dict[int, Vec], target: Vec):
        for k in set(coeffs_by_leg) | set(target):
            rows.append(coeffs_by_leg.get(k, {}))
            t = target.get(k)
            if t:
                rhs[len(rows) - 1] = t

    for a, delta in enumerate(bundle.delta):
        # (f (x) id)(x) = e_a: for each output coord k, sum_j x[j,k] f_j
        emit(t2.leg_vectors(delta, 1), unit_vec(a))
        emit(t2.leg_vectors(delta, 2), unit_vec(a))
    system = LinMap.from_rows(d, rows)
    sol = solve(system, rhs)
    if sol is None:
        return failed("counit-uniqueness", {"error": "no functional satisfies the laws"})
    hom = system.kernel()
    if hom.dim:
        return failed("counit-uniqueness",
                      {"degrees_of_freedom": hom.dim, "direction": hom.rows[0]})
    if sol != bundle.counit:
        return failed("counit-uniqueness", {"solved": sol, "stored": bundle.counit})
    return passed("counit-uniqueness")


def check_E_identities(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """E^2 = E, E absorbs every Delta(a), and E is comultiplicative:
    (Delta (x) id)E and (id (x) Delta)E equal (E (x) 1)(1 (x) E).  The
    three sides are compared as elements of A (x) A (x) A; a failure is
    named by the first basis triple covering it on the right."""
    bad = bundle.maps.e_law_failure
    if bad is not None:
        return failed(*bad)
    t2, e = bundle.t2, bundle.E
    twice = t2.expand_leg2(e, lambda k: t2.mul_left_leg1(unit_vec(k), e))
    right = ((1, False), (2, False), (3, False))
    diffs = [(vsub(t2.expand_leg1(e, lambda j: bundle.delta[j]), twice), right),
             (vsub(t2.expand_leg2(e, lambda k: bundle.delta[k]), twice), right)]
    if any(z for z, _ in diffs):
        triple, k = t2.first_nonzero_cover(diffs)
        return failed("canonical-idempotent-comultiplicative",
                      {"triple": [bundle.algebra.labels[i] for i in triple],
                       "side": ("delta-leg1", "delta-leg2")[k]})
    return passed("canonical-idempotent-identities")


def check_range_conditions(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """im T_1 = im T_4 = E(A (x) A) and im T_2 = im T_3 = (A (x) A)E, by
    ``CanonicalMaps.range_failure``."""
    maps = bundle.maps
    bad = maps.range_failure((1, 2, 3, 4))
    if bad is not None:
        which, got, want = bad
        return failed("range-conditions",
                      {"map": f"T{which}", "range_dim": got.dim, "expected_dim": want.dim})
    return passed("range-conditions",
                  detail="E(AxA) dim {}, (AxA)E dim {}".format(*maps.range_dims))


def check_antipode_identities(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """m((target (x) id)(Delta(a)(1 (x) b))) = ab and
    m((source (x) id)(id (x) S)((1 (x) S^-1 b)Delta(a))) = S(a)b.  When
    the square is generated, the first is scanned only at the a where
    m((target (x) id)Delta(e_a)) = e_a fails, and, when S is also
    anti-multiplicative, the second only where m((source (x) id)
    (id (x) S)Delta(e_a)) = S(e_a) fails (module docstring)."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    maps = bundle.maps
    s, si = maps.antipode_pair()
    target_map = LinMap(d, d, [bundle.target_value(j) for j in range(d)])
    source_map = LinMap(d, d, [bundle.source_value(j) for j in range(d)])

    def first(y):
        return t2.mul_map(t2.map_leg1(target_map, y))

    def second(y):
        return t2.mul_map(t2.map_leg1(source_map, t2.map_leg2(s, y)))

    live = None
    if t2.generated():
        live = [live_at(0, d, lambda a: first(bundle.delta[a]), unit_vec),
                None if maps.antihom_failure is not None else
                live_at(0, d, lambda a: second(bundle.delta[a]), s.cols.__getitem__)]
    bad = first_failure((d, d), [
        (lambda a, b: first(bundle.slices.r2(a, b)), alg.mul_basis),
        (lambda a, b: second(t2.mul_left_leg2(si.apply(unit_vec(b)), bundle.delta[a])),
         lambda a, b: alg.mul(s.apply(unit_vec(a)), unit_vec(b)))], live=live)
    if bad is not None:
        pair, k, lhs, rhs = bad
        return failed(("antipode-triple-product-first", "antipode-triple-product-second")[k],
                      {"pair": [alg.labels[i] for i in pair], "lhs": lhs, "rhs": rhs})
    return passed("antipode-triple-products")


def check_antipode_antihom(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    bad = bundle.maps.antihom_failure
    if bad is not None:
        return failed("antipode-antihomomorphism",
                      {"pair": [bundle.algebra.labels[i] for i in bad[0]]})
    return passed("antipode-antihomomorphism")


def check_antipode_flips_coproduct(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    t2, s = bundle.t2, bundle.antipode
    bad = first_failure((bundle.dim,), [
        (lambda a: bundle.delta_of(s.cols[a]),
         lambda a: t2.map_leg1(s, t2.map_leg2(s, t2.flip(bundle.delta[a]))))])
    if bad is not None:
        (a,), _, lhs, rhs = bad
        return failed("antipode-flips-coproduct",
                      {"basis": bundle.algebra.labels[a], "lhs": lhs, "rhs": rhs})
    return passed("antipode-flips-coproduct")


def check_generalized_inverses(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """T_i R_i T_i = T_i and R_i T_i R_i = R_i.  The certificate proves
    both (module docstring); without it T_i R_i T_i = T_i is compared,
    and R_i T_i R_i = R_i is T_p R_p T_p = T_p for the partner p."""
    maps = bundle.maps
    if maps.certificate is not None:
        return passed("generalized-inverses")
    for i in (1, 2, 3, 4):
        if not maps.agrees(i, "TRT", "T"):
            return failed("generalized-inverse-TRT", {"map": f"T{i}"})
        if not maps.agrees(TWISTS[i][2], "TRT", "T"):     # R_i T_i R_i = R_i
            return failed("generalized-inverse-RTR", {"map": f"R{i}"})
    return passed("generalized-inverses")


def check_projection_formulas(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """TR is multiplication by E on the matching side; RT is the
    twisted F-idempotent projector.  Where RT differs, the basis vectors
    are scanned for the first differing column (a, b), the witness."""
    maps = bundle.maps
    for i in (1, 2, 3, 4):
        if not maps.agrees(i, "TR", "Q"):
            return failed("projection-formula-TR", {"map": f"T{i}R{i}"})
    for i in (1, 2, 3, 4):
        if not maps.agrees(i, "RT", "P"):
            pair = divmod(maps.first_difference(i, "RT", "P", basis=True), bundle.dim)
            return failed("projection-formula-RT", {
                "map": f"R{i}T{i}", "pair": [bundle.algebra.labels[a] for a in pair]})
    return passed("projection-formulas")


def check_kernel_subspaces(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """ker T_i = im(id - P_i), by ``CanonicalMaps.kernel_failure``."""
    maps = bundle.maps
    for i in (1, 2, 3, 4):
        bad = maps.kernel_failure(i, maps.projection(i))
        if bad is not None:
            return failed("kernel-subspaces",
                          {"map": f"T{i}", "described_dim": bad[0], "kernel_dim": bad[1]})
    return passed("kernel-subspaces")


def run_suite(bundle: WeakMultiplierHopfAlgebra) -> Report:
    """All core checks in a fixed order."""
    report = Report("wmha-suite")
    report.add(check_algebra(bundle))
    homomorphism = check_homomorphism(bundle)
    report.add(homomorphism)
    if homomorphism.status == PASS and bundle.delta_of(bundle.algebra.unit()) == bundle.E:
        bundle.maps.e_law_failure = None        # E = Delta(1) (module docstring)
    report.add(check_coassociativity(bundle))
    report.add(check_fullness(bundle))
    report.add(check_counit(bundle))
    report.add(check_counit_uniqueness(bundle))
    report.add(check_E_identities(bundle))
    report.add(check_range_conditions(bundle))
    if bundle.maps.antipode_inv is None:
        report.add(failed("antipode-bijective", {"rank": bundle.antipode.rank()}))
        return report
    report.add(passed("antipode-bijective"))
    report.add(check_antipode_antihom(bundle))
    report.add(check_antipode_flips_coproduct(bundle))
    report.add(check_antipode_identities(bundle))
    report.add(check_generalized_inverses(bundle))
    report.add(check_projection_formulas(bundle))
    report.add(check_kernel_subspaces(bundle))
    report.add(CheckRecord("axioms-outside-reproduced-list", SKIP,
                           detail="only the identities exercised above are certified"))
    return report

