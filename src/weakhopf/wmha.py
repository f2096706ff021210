"""Weak multiplier Hopf algebra bundles and their axiom suite.

The bundle holds the coproduct as one tensor-square element per basis
vector (the finite engine requires a unital algebra, where multipliers
reify to elements), together with counit, antipode and the canonical
idempotent.  Every defining identity is an executable check returning a
structured record; leg-notation expressions are realized as compositions
of slice maps and the antipode, never symbolically.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, CoproductSlices, FiniteAlgebra, TensorSquare
from .linalg import (LinMap, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vdot,
                     vtensor)
from .reporting import SKIP, CheckRecord, Report, failed, passed


class NoSuchIdempotent(AlgebraError):
    pass


class AntipodeNotBijective(AlgebraError):
    pass


class WeakMultiplierHopfAlgebra:
    """Bundle (A, Delta, counit, S, E) with cached derived maps."""

    def __init__(self, algebra: FiniteAlgebra, delta: list[Vec], counit: Vec,
                 antipode: LinMap, canonical_idempotent: Vec):
        self.algebra = algebra
        self.t2 = TensorSquare(algebra)
        self.delta = [dict(v) for v in delta]
        self.counit = dict(counit)
        self.antipode = antipode
        self.E = dict(canonical_idempotent)
        if len(delta) != algebra.dim:
            raise AlgebraError("coproduct needs one element per basis vector")
        if algebra.unit() is None:
            raise AlgebraError("finite engine requires a unital algebra")
        self.slices = CoproductSlices(self.t2, self.delta, self.delta)
        self._antipode_inv: LinMap | None = None
        self._cache: dict = {}

    # -- basic derived data --------------------------------------------

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def antipode_inv(self) -> LinMap:
        if self._antipode_inv is None:
            if not self.antipode.is_bijective():
                raise AntipodeNotBijective("antipode matrix is singular")
            self._antipode_inv = self.antipode.inverse()
        return self._antipode_inv

    def delta_of(self, x: Vec) -> Vec:
        return lincomb(x, self.delta)

    def eps(self, x: Vec) -> Fraction:
        return vdot(x, self.counit)

    # reified source/target values mu(S (x) id)Delta resp. mu(id (x) S)Delta
    def source_value(self, a: int) -> Vec:
        return self.t2.mul_map(self.t2.map_leg1(self.antipode, self.delta[a]))

    def target_value(self, a: int) -> Vec:
        return self.t2.mul_map(self.t2.map_leg2(self.antipode, self.delta[a]))

    # -- canonical maps -------------------------------------------------

    def canonical_map(self, which: int) -> LinMap:
        """T_1..T_4 on the tensor square, assembled from slices."""
        return self.slices.canonical_map(which)

    def generalized_inverse(self, which: int) -> LinMap:
        """R_1..R_4, realized as slice compositions with S."""
        key = ("R", which)
        if key in self._cache:
            return self._cache[key]
        s = self.antipode
        si = self.antipode_inv()
        ident = LinMap.identity(self.dim)
        if which == 1:
            m = self._leg_map(ident, s) @ self.canonical_map(3) @ self._leg_map(ident, si)
        elif which == 2:
            m = self._leg_map(s, ident) @ self.canonical_map(4) @ self._leg_map(si, ident)
        elif which == 3:
            m = self._leg_map(ident, si) @ self.canonical_map(1) @ self._leg_map(ident, s)
        elif which == 4:
            m = self._leg_map(si, ident) @ self.canonical_map(2) @ self._leg_map(s, ident)
        else:
            raise ValueError(which)
        self._cache[key] = m
        return m

    def _leg_map(self, m1: LinMap, m2: LinMap) -> LinMap:
        return m1.tensor(m2)

    def kernel_idempotent(self, which: int) -> Vec:
        """F_1..F_4: the canonical idempotent with S moved through a leg."""
        s = self.antipode
        si = self.antipode_inv()
        if which == 1:
            return self.t2.map_leg2(s, self.E)
        if which == 2:
            return self.t2.map_leg1(s, self.E)
        if which == 3:
            return self.t2.map_leg2(si, self.E)
        if which == 4:
            return self.t2.map_leg1(si, self.E)
        raise ValueError(which)

    def E_left_map(self) -> LinMap:
        if "EL" not in self._cache:
            self._cache["EL"] = self.t2.left_mult_map(self.E)
        return self._cache["EL"]

    def E_right_map(self) -> LinMap:
        if "ER" not in self._cache:
            self._cache["ER"] = self.t2.right_mult_map(self.E)
        return self._cache["ER"]


# -- individual checks --------------------------------------------------

def check_algebra(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    try:
        bundle.algebra.validate()
    except AlgebraError as exc:
        return failed("algebra-structure", {"error": str(exc)})
    return passed("algebra-structure")


def check_homomorphism(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    alg, t2 = bundle.algebra, bundle.t2
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = bundle.delta_of(alg.mul_basis(i, j))
            rhs = t2.mul(bundle.delta[i], bundle.delta[j])
            if lhs != rhs:
                return failed("coproduct-homomorphism",
                              {"pair": [alg.labels[i], alg.labels[j]],
                               "lhs": lhs, "rhs": rhs})
    return passed("coproduct-homomorphism")


def check_coassociativity(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """Covered form: (a(x)1(x)1)(Delta(x)id)(Delta(b)(1(x)c)) equals
    (id(x)Delta)((a(x)1)Delta(b))(1(x)1(x)c) on all basis triples."""
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    sl = bundle.slices
    for b in range(d):
        for c in range(d):
            x = sl.r2(b, c)
            if not x:
                continue
            for a in range(d):
                lhs = t2.expand_leg1(x, lambda u: sl.l1(u, a))
                rhs = t2.expand_leg2(sl.l1(b, a), lambda v: sl.r2(v, c))
                if lhs != rhs:
                    return failed("coproduct-coassociativity",
                                  {"triple": [alg.labels[a], alg.labels[b], alg.labels[c]]})
    return passed("coproduct-coassociativity")


def check_fullness(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    d = bundle.dim
    left = Subspace(d)
    right = Subspace(d)
    for a in range(d):
        for b in range(d):
            x = bundle.slices.r2(a, b)
            for leg2, vec1 in _split_leg2(x, d).items():
                left.insert(vec1)
            y = bundle.slices.l1(b, a)
            for leg1, vec2 in _split_leg1(y, d).items():
                right.insert(vec2)
        if left.dim == d and right.dim == d:
            break
    if left.dim != d:
        return failed("coproduct-fullness", {"leg": "first", "span_dim": left.dim})
    if right.dim != d:
        return failed("coproduct-fullness", {"leg": "second", "span_dim": right.dim})
    return passed("coproduct-fullness")


def _split_leg2(x: Vec, d: int) -> dict[int, Vec]:
    """Group an element of the tensor square by its second-leg index."""
    out: dict[int, Vec] = {}
    for p, c in x.items():
        u, v = divmod(p, d)
        out.setdefault(v, {})[u] = c
    return out


def _split_leg1(x: Vec, d: int) -> dict[int, Vec]:
    out: dict[int, Vec] = {}
    for p, c in x.items():
        u, v = divmod(p, d)
        out.setdefault(u, {})[v] = c
    return out


def check_counit(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    for a in range(d):
        for b in range(d):
            lhs = t2.functional_leg1(bundle.counit, bundle.slices.r2(a, b))
            ab = alg.mul_basis(a, b)
            if lhs != ab:
                return failed("counit-left-law",
                              {"pair": [alg.labels[a], alg.labels[b]],
                               "lhs": lhs, "rhs": ab})
            rhs = t2.functional_leg2(bundle.counit, bundle.slices.l1(b, a))
            if rhs != ab:
                return failed("counit-right-law",
                              {"pair": [alg.labels[a], alg.labels[b]],
                               "lhs": rhs, "rhs": ab})
    return passed("counit-laws")


def check_counit_uniqueness(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """Solve for every functional satisfying both counit laws; fullness
    should force a one-point solution set equal to the stored counit."""
    alg, d = bundle.algebra, bundle.dim
    rows: list[Vec] = []
    rhs: Vec = {}

    def emit(coeffs_by_leg: dict[int, Vec], target: Vec):
        for k in set(coeffs_by_leg) | set(target):
            rows.append(coeffs_by_leg.get(k, {}))
            t = target.get(k)
            if t:
                rhs[len(rows) - 1] = t

    for a in range(d):
        for b in range(d):
            ab = alg.mul_basis(a, b)
            x = bundle.slices.r2(a, b)
            # (f (x) id)(x) = ab: for each output coord k, sum_j x[j,k] f_j
            by_k: dict[int, Vec] = {}
            for p, c in x.items():
                j, k = divmod(p, d)
                by_k.setdefault(k, {})[j] = c
            emit(by_k, ab)
            y = bundle.slices.l1(b, a)
            by_j: dict[int, Vec] = {}
            for p, c in y.items():
                j, k = divmod(p, d)
                by_j.setdefault(j, {})[k] = c
            emit(by_j, ab)
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
    t2, d = bundle.t2, bundle.dim
    e = bundle.E
    if t2.mul(e, e) != e:
        return failed("canonical-idempotent-squared", {"EE": t2.mul(e, e), "E": e})
    for a in range(d):
        da = bundle.delta[a]
        if t2.mul(e, da) != da or t2.mul(da, e) != da:
            return failed("canonical-idempotent-absorbs-coproduct",
                          {"basis": bundle.algebra.labels[a]})
    rec = _check_E_comultiplicative(bundle, e, bundle.delta_of)
    if rec is not None:
        return rec
    return passed("canonical-idempotent-identities")


def _check_E_comultiplicative(bundle, e: Vec, delta_of) -> CheckRecord | None:
    """Covered comparison of (Delta (x) id)E, (id (x) Delta)E and
    (E (x) 1)(1 (x) E) on all basis triples; None when all agree."""
    t2, d = bundle.t2, bundle.dim
    alg = bundle.algebra
    for u in range(d):
        for v in range(d):
            uv = vtensor(unit_vec(u), unit_vec(v), d)
            for w in range(d):
                ew = unit_vec(w)
                lhs: Vec = {}
                for p, c in e.items():
                    j, k = divmod(p, d)
                    prod = alg.mul_basis(k, w)
                    if not prod:
                        continue
                    block = t2.mul(delta_of(unit_vec(j)), uv)
                    if block:
                        vaxpy(lhs, c, vtensor(block, prod, d))
                mid: Vec = {}
                for p, c in e.items():
                    j, k = divmod(p, d)
                    prod = alg.mul_basis(j, u)
                    if not prod:
                        continue
                    block = t2.mul(delta_of(unit_vec(k)), vtensor(unit_vec(v), ew, d))
                    if block:
                        vaxpy(mid, c, vtensor(prod, block, d * d))
                inner = t2.mul(e, vtensor(unit_vec(v), ew, d))
                rhs: Vec = {}
                for p, c in inner.items():
                    j, k = divmod(p, d)
                    block = t2.mul(e, vtensor(unit_vec(u), unit_vec(j), d))
                    if block:
                        vaxpy(rhs, c, vtensor(block, unit_vec(k), d))
                if lhs != rhs:
                    return failed("canonical-idempotent-comultiplicative",
                                  {"triple": [alg.labels[u], alg.labels[v], alg.labels[w]],
                                   "side": "delta-leg1"})
                if mid != rhs:
                    return failed("canonical-idempotent-comultiplicative",
                                  {"triple": [alg.labels[u], alg.labels[v], alg.labels[w]],
                                   "side": "delta-leg2"})
    return None


def check_range_conditions(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    d = bundle.dim
    left_range = bundle.E_left_map().image()
    right_range = bundle.E_right_map().image()
    claims = [
        ("T1", bundle.canonical_map(1).image(), left_range),
        ("T2", bundle.canonical_map(2).image(), right_range),
        ("T3", bundle.canonical_map(3).image(), right_range),
        ("T4", bundle.canonical_map(4).image(), left_range),
    ]
    for name, got, want in claims:
        if got != want:
            return failed("range-conditions",
                          {"map": name, "range_dim": got.dim, "expected_dim": want.dim})
    return passed("range-conditions",
                  detail=f"E(AxA) dim {left_range.dim}, (AxA)E dim {right_range.dim}")


def check_antipode_identities(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    s = bundle.antipode
    si = bundle.antipode_inv()
    target_elt = [bundle.target_value(j) for j in range(d)]
    source_elt = [bundle.source_value(j) for j in range(d)]
    for a in range(d):
        for b in range(d):
            eb = unit_vec(b)
            x = bundle.slices.r2(a, b)
            acc: Vec = {}
            for p, c in x.items():
                j, k = divmod(p, d)
                vaxpy(acc, c, alg.mul(target_elt[j], unit_vec(k)))
            ab = alg.mul_basis(a, b)
            if acc != ab:
                return failed("antipode-triple-product-first",
                              {"pair": [alg.labels[a], alg.labels[b]],
                               "lhs": acc, "rhs": ab})
            y = t2.mul_left_leg2(si.apply(eb), bundle.delta[a])
            acc2: Vec = {}
            for p, c in y.items():
                j, k = divmod(p, d)
                vaxpy(acc2, c, alg.mul(source_elt[j], s.apply(unit_vec(k))))
            sab = alg.mul(s.apply(unit_vec(a)), eb)
            if acc2 != sab:
                return failed("antipode-triple-product-second",
                              {"pair": [alg.labels[a], alg.labels[b]],
                               "lhs": acc2, "rhs": sab})
    return passed("antipode-triple-products")


def check_antipode_antihom(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    alg, d, s = bundle.algebra, bundle.dim, bundle.antipode
    for i in range(d):
        for j in range(d):
            lhs = s.apply(alg.mul_basis(i, j))
            rhs = alg.mul(s.apply(unit_vec(j)), s.apply(unit_vec(i)))
            if lhs != rhs:
                return failed("antipode-antihomomorphism",
                              {"pair": [alg.labels[i], alg.labels[j]]})
    return passed("antipode-antihomomorphism")


def check_antipode_flips_coproduct(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    t2, d, s = bundle.t2, bundle.dim, bundle.antipode
    for a in range(d):
        lhs = bundle.delta_of(s.apply(unit_vec(a)))
        rhs = t2.map_leg1(s, t2.map_leg2(s, t2.flip(bundle.delta[a])))
        if lhs != rhs:
            return failed("antipode-flips-coproduct",
                          {"basis": bundle.algebra.labels[a], "lhs": lhs, "rhs": rhs})
    return passed("antipode-flips-coproduct")


def check_generalized_inverses(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    for i in (1, 2, 3, 4):
        t = bundle.canonical_map(i)
        r = bundle.generalized_inverse(i)
        if t @ r @ t != t:
            return failed("generalized-inverse-TRT", {"map": f"T{i}"})
        if r @ t @ r != r:
            return failed("generalized-inverse-RTR", {"map": f"R{i}"})
    return passed("generalized-inverses")


def check_projection_formulas(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """TR is multiplication by E on the matching side; RT is the
    F-idempotent sandwich."""
    el, er = bundle.E_left_map(), bundle.E_right_map()
    t2, d = bundle.t2, bundle.dim
    for i, want in ((1, el), (2, er), (3, er), (4, el)):
        got = bundle.canonical_map(i) @ bundle.generalized_inverse(i)
        if got != want:
            return failed("projection-formula-TR", {"map": f"T{i}R{i}"})
    for i in (1, 2, 3, 4):
        rt = bundle.generalized_inverse(i) @ bundle.canonical_map(i)
        want = t2.twisted_projector(bundle.kernel_idempotent(i), i)
        if rt != want:
            j = next(j for j in range(t2.size) if rt.cols[j] != want.cols[j])
            a, b = divmod(j, d)
            return failed("projection-formula-RT",
                          {"map": f"R{i}T{i}",
                           "pair": [bundle.algebra.labels[a], bundle.algebra.labels[b]]})
    return passed("projection-formulas")


def check_kernel_subspaces(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    t2 = bundle.t2
    for i in (1, 2, 3, 4):
        projector = t2.twisted_projector(bundle.kernel_idempotent(i), i)
        described = (LinMap.identity(t2.size) - projector).image()
        kernel = bundle.canonical_map(i).kernel()
        if described != kernel:
            return failed("kernel-subspaces",
                          {"map": f"T{i}", "described_dim": described.dim,
                           "kernel_dim": kernel.dim})
    return passed("kernel-subspaces")


def compute_E(algebra: FiniteAlgebra, delta: list[Vec],
              generic_limit: int = 8, force_generic: bool = False) -> Vec:
    """The canonical idempotent for a bundle given without one.

    For a unital algebra this is the coproduct value at the unit.  The
    generic path solves the defining linear constraints (identity on the
    range of the coproduct products, image inside it, same on the right)
    and is kept for small dimensions only.
    """
    t2 = TensorSquare(algebra)
    unit = algebra.unit()
    if unit is not None and not force_generic:
        e = lincomb(unit, delta)
        if t2.mul(e, e) != e:
            raise NoSuchIdempotent("coproduct value at the unit is not idempotent")
        return e
    if algebra.dim > generic_limit:
        raise NoSuchIdempotent(
            "no unit and dimension too large for the generic solver")
    d2 = algebra.dim ** 2
    left_range = Subspace(d2)
    right_range = Subspace(d2)
    for a in range(algebra.dim):
        for w in range(d2):
            left_range.insert(t2.mul(delta[a], unit_vec(w)))
            right_range.insert(t2.mul(unit_vec(w), delta[a]))
    ql = left_range.quotient_map()
    qr = right_range.quotient_map()
    rows: list[Vec] = []
    rhs: Vec = {}

    def add_rows(coeff_rows: list[Vec], targets: Vec | None):
        for r, row in enumerate(coeff_rows):
            rows.append(row)
        if targets:
            base = len(rows) - len(coeff_rows)
            for k, c in targets.items():
                rhs[base + k] = c

    for v in left_range.rows:
        m = t2.right_mult_map(v)  # X -> X*v as linear map in X
        add_rows(m.rows(), v)
    for w in range(d2):
        m = ql @ t2.right_mult_map(unit_vec(w))
        add_rows(m.rows(), None)
    for v in right_range.rows:
        m = t2.left_mult_map(v)   # X -> v*X
        add_rows(m.rows(), v)
    for w in range(d2):
        m = qr @ t2.left_mult_map(unit_vec(w))
        add_rows(m.rows(), None)
    system = LinMap.from_rows(d2, rows)
    sol = solve(system, rhs)
    if sol is None or system.kernel().dim:
        raise NoSuchIdempotent("defining constraints have no unique solution")
    if t2.mul(sol, sol) != sol:
        raise NoSuchIdempotent("solved element is not idempotent")
    return sol


def run_suite(bundle: WeakMultiplierHopfAlgebra, title: str = "wmha-suite") -> Report:
    """All core checks in a fixed order."""
    report = Report(title)
    report.add(check_algebra(bundle))
    report.add(check_homomorphism(bundle))
    report.add(check_coassociativity(bundle))
    report.add(check_fullness(bundle))
    report.add(check_counit(bundle))
    report.add(check_counit_uniqueness(bundle))
    report.add(check_E_identities(bundle))
    report.add(check_range_conditions(bundle))
    try:
        bundle.antipode_inv()
        report.add(passed("antipode-bijective"))
    except AntipodeNotBijective:
        report.add(failed("antipode-bijective", {"rank": bundle.antipode.rank()}))
        return report
    report.add(check_antipode_antihom(bundle))
    report.add(check_antipode_flips_coproduct(bundle))
    report.add(check_antipode_identities(bundle))
    report.add(check_generalized_inverses(bundle))
    report.add(check_projection_formulas(bundle))
    report.add(check_kernel_subspaces(bundle))
    report.add(CheckRecord("axioms-outside-reproduced-list", SKIP,
                           detail="only the identities exercised above are certified"))
    return report


def opposite_bundle(bundle: WeakMultiplierHopfAlgebra) -> WeakMultiplierHopfAlgebra:
    """Same coproduct over the opposite algebra; the antipode inverts."""
    from .algebra import opposite_algebra

    return WeakMultiplierHopfAlgebra(
        algebra=opposite_algebra(bundle.algebra),
        delta=bundle.delta,
        counit=bundle.counit,
        antipode=bundle.antipode_inv(),
        canonical_idempotent=bundle.E,
    )
