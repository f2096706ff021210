"""Source and target maps and the base algebras they generate.

The source value of a is mu(S (x) id)Delta(a), the target value is
mu(id (x) S)Delta(a); both are elements of the unital algebra A (which
is its own multiplier algebra), computed through slice-map
compositions.  Their images span the base algebras B and C, which carry
the restricted antipode and the unique functionals that slice the
canonical idempotent to the unit.  The structural checks on a base pair
(commuting, acting fully, anti-homomorphic antipodal maps) live here
once and serve the base suite and the algebroid's graph-pair axioms.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra, first_failure, multiplicativity
from .linalg import LinMap, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vsub, vtensor
from .reporting import CheckRecord, Report, failed, passed
from .wmha import WeakMultiplierHopfAlgebra


class SubalgebraView:
    """A unital subalgebra of A with a chosen echelon basis.

    Keeps the dictionary between abstract coordinates and elements of
    the parent algebra, plus the induced structure constants.
    """

    def __init__(self, parent: FiniteAlgebra, generators: list[Vec],
                 name: str = "B"):
        self.parent = parent
        self.name = name
        self.subspace = Subspace.from_vectors(parent.dim, generators)
        self.basis = [dict(r) for r in self.subspace.rows]
        # d x dim: coordinates -> elements of the parent, basis as columns
        self.basis_map = LinMap(parent.dim, len(self.basis), self.basis)
        table: list[list[Vec]] = []
        for bi in self.basis:
            table.append([])
            for bj in self.basis:
                coords = self.subspace.coords(parent.mul(bi, bj))
                if coords is None:
                    raise AlgebraError(f"{name} is not closed under the product")
                table[-1].append(coords)
        self.algebra = FiniteAlgebra([f"{name}{k}" for k in range(len(self.basis))], table)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_coords(self, x: Vec) -> Vec | None:
        return self.subspace.coords(x)

    def from_coords(self, v: Vec) -> Vec:
        return self.basis_map.apply(v)

    def restrict(self, m: LinMap, target: "SubalgebraView") -> LinMap | None:
        """m as a map self -> target in coordinates; None if it escapes."""
        cols = []
        for b in self.basis:
            c = target.to_coords(m.apply(b))
            if c is None:
                return None
            cols.append(c)
        return LinMap(target.dim, self.dim, cols)


def first_noncommuting_pair(alg: FiniteAlgebra, b_view: SubalgebraView,
                            c_view: SubalgebraView) -> tuple[Vec, Vec] | None:
    """The first basis pair (b, c) with bc != cb; None when B and C commute."""
    for bi in b_view.basis:
        for cj in c_view.basis:
            if alg.mul(bi, cj) != alg.mul(cj, bi):
                return bi, cj
    return None


def action_span_dim(alg: FiniteAlgebra, view: SubalgebraView) -> int:
    """dim(XA + AX) for the base X; it acts fully when this is dim A."""
    span = Subspace(alg.dim)
    for x in view.basis:
        for j in range(alg.dim):
            span.insert(alg.mul(x, unit_vec(j)))
            span.insert(alg.mul(unit_vec(j), x))
    return span.dim


def is_anti_homomorphism(s: LinMap, source: FiniteAlgebra, target: FiniteAlgebra) -> bool:
    """s(xy) = s(y)s(x) on the basis, for s from source to target coordinates."""
    return first_failure((source.dim, source.dim),
                         [multiplicativity(source, s.cols, target.mul, anti=True)]) is None


class BaseAlgebraData:
    """B, C inside M(A) with restricted antipodes and integrals."""

    def __init__(self, bundle: WeakMultiplierHopfAlgebra,
                 b_view: SubalgebraView, c_view: SubalgebraView,
                 s_b: LinMap, s_c: LinMap, phi_b: Vec, phi_c: Vec):
        self.bundle = bundle
        self.b_view = b_view
        self.c_view = c_view
        self.s_b = s_b        # B-coords -> C-coords
        self.s_c = s_c        # C-coords -> B-coords
        self.phi_b = phi_b    # functional on B-coords
        self.phi_c = phi_c    # functional on C-coords


def compute_base_algebras(bundle: WeakMultiplierHopfAlgebra) -> tuple[BaseAlgebraData | None, Report]:
    """Spans of the source and target maps with every structural check."""
    report = Report("source-target-suite")
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    s = bundle.antipode

    sources = [bundle.source_value(i) for i in range(d)]
    targets = [bundle.target_value(i) for i in range(d)]
    try:
        b_view = SubalgebraView(alg, sources, "B")
        c_view = SubalgebraView(alg, targets, "C")
    except AlgebraError as exc:
        report.add(failed("base-subalgebras", {"error": str(exc)}))
        return None, report
    report.add(passed("base-subalgebras",
                      detail=f"dim B = {b_view.dim}, dim C = {c_view.dim}"))

    for view, label in ((b_view, "B"), (c_view, "C")):
        try:
            view.algebra.validate()
        except AlgebraError as exc:
            report.add(failed("base-algebra-structure",
                              {"algebra": label, "error": str(exc)}))
            return None, report
    report.add(passed("base-algebra-structure"))

    pair = first_noncommuting_pair(alg, b_view, c_view)
    if pair is None:
        report.add(passed("base-algebras-commute"))
    else:
        report.add(failed("base-algebras-commute", {"b": pair[0], "c": pair[1]}))

    for view, label in ((b_view, "B"), (c_view, "C")):
        span = action_span_dim(alg, view)
        if span != d:
            report.add(failed("base-acts-fully", {"algebra": label, "span": span}))
            return None, report
    report.add(passed("base-acts-fully", detail="BA = AB = A and CA = AC = A"))

    s_b = b_view.restrict(s, c_view)
    s_c = c_view.restrict(s, b_view)
    if s_b is None or not s_b.is_bijective() or s_c is None or not s_c.is_bijective():
        report.add(failed("antipode-restricts", {"S(B) in C": s_b is not None,
                                                 "S(C) in B": s_c is not None}))
        return None, report
    anti_ok = (is_anti_homomorphism(s_b, b_view.algebra, c_view.algebra)
               and is_anti_homomorphism(s_c, c_view.algebra, b_view.algebra))
    report.add(passed("antipode-restricts") if anti_ok else
               failed("antipode-restricts", {"anti_homomorphism": False}))

    # E lives in B (x) C; the products of the echelon bases are already
    # reduced, with pivots in (i, j) order, so E's coordinate on
    # b_i (x) c_j sits at i * dim C + j
    bc = Subspace.from_vectors(d * d, [vtensor(bi, cj, d)
                                       for bi in b_view.basis for cj in c_view.basis])
    e_coords = bc.coords(bundle.E)
    if e_coords is None:
        report.add(failed("canonical-idempotent-in-base-tensor", {"E": bundle.E}))
        return None, report
    # no scan of E(B (x) C) and (B (x) C)E: B and C are closed under the
    # product (SubalgebraView), so B (x) C is a subalgebra holding E
    report.add(passed("canonical-idempotent-in-base-tensor"))
    e = bundle.E

    # legs of E span exactly B and C
    leg1 = Subspace.from_vectors(d, t2.leg_vectors(bundle.E, 1).values())
    leg2 = Subspace.from_vectors(d, t2.leg_vectors(bundle.E, 2).values())
    if leg1 == b_view.subspace and leg2 == c_view.subspace:
        report.add(passed("idempotent-legs-span-bases"))
    else:
        report.add(failed("idempotent-legs-span-bases",
                          {"leg1_dim": leg1.dim, "B_dim": b_view.dim,
                           "leg2_dim": leg2.dim, "C_dim": c_view.dim}))

    # antipodal identities through E: E(b (x) 1) = E(1 (x) S(b)),
    # (1 (x) c)E = (S(c) (x) 1)E
    anti = (all(t2.mul_right_leg1(e, bi) == t2.mul_right_leg2(e, s.apply(bi))
                for bi in b_view.basis)
            and all(t2.mul_left_leg2(cj, e) == t2.mul_left_leg1(s.apply(cj), e)
                    for cj in c_view.basis))
    report.add(passed("idempotent-antipodal-maps") if anti else
               failed("idempotent-antipodal-maps", {}))

    # covered integral identities: mu(S (x) id)(E(1 (x) y)) = y on C,
    # mu(id (x) S)((x (x) 1)E) = x on B
    cov = (all(t2.mul_map(t2.map_leg1(s, t2.mul_right_leg2(e, cj))) == cj
               for cj in c_view.basis)
           and all(t2.mul_map(t2.map_leg2(s, t2.mul_left_leg1(bi, e))) == bi
                   for bi in b_view.basis))
    report.add(passed("idempotent-covered-integrals") if cov else
               failed("idempotent-covered-integrals", {}))

    # module relations for the source and target maps
    mod = (all(lincomb(alg.mul(unit_vec(i), bi), sources) == alg.mul(sources[i], bi)
               and lincomb(alg.mul(bi, unit_vec(i)), targets) == alg.mul(targets[i], s.apply(bi))
               for i in range(d) for bi in b_view.basis)
           and all(lincomb(alg.mul(unit_vec(i), cj), sources) == alg.mul(s.apply(cj), sources[i])
                   and lincomb(alg.mul(cj, unit_vec(i)), targets) == alg.mul(cj, targets[i])
                   for i in range(d) for cj in c_view.basis))
    report.add(passed("source-target-module-relations") if mod else
               failed("source-target-module-relations", {}))

    phi_b = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=True)
    phi_c = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=False)
    if phi_b is None or phi_c is None:
        report.add(failed("base-integrals-exist", {"phi_B": phi_b, "phi_C": phi_c}))
        return None, report
    report.add(passed("base-integrals-exist"))

    data = BaseAlgebraData(bundle, b_view, c_view, s_b, s_c, phi_b, phi_c)
    return data, report


def _slice_functional(bundle, b_view, c_view, e_coords: Vec,
                      first_leg: bool) -> Vec | None:
    """Unique functional with (phi (x) id)E = 1 (resp. (id (x) phi)E = 1)."""
    alg = bundle.algebra
    unit = alg.unit()
    if first_leg:
        n_unknown, outer = b_view.dim, c_view
    else:
        n_unknown, outer = c_view.dim, b_view
    cols: list[Vec] = [{} for _ in range(n_unknown)]
    for p, coeff in e_coords.items():
        alpha, beta = divmod(p, c_view.dim)
        if first_leg:
            vaxpy(cols[alpha], coeff, c_view.basis[beta])
        else:
            vaxpy(cols[beta], coeff, b_view.basis[alpha])
    system = LinMap(alg.dim, n_unknown, cols)
    sol = solve(system, unit)
    if sol is None or system.kernel().dim:
        return None
    return sol


def check_characterizations(bundle: WeakMultiplierHopfAlgebra,
                            data: BaseAlgebraData) -> CheckRecord:
    """Solutions of Delta(x) = E(1 (x) x) are exactly B; of
    Delta(y) = (y (x) 1)E exactly C (source and target algebras for a
    unital ambient algebra)."""
    t2, d = bundle.t2, bundle.dim
    cols_s = []
    cols_t = []
    for j in range(d):
        ej = unit_vec(j)
        cols_s.append(vsub(bundle.delta_of(ej), t2.mul_right_leg2(bundle.E, ej)))
        cols_t.append(vsub(bundle.delta_of(ej), t2.mul_left_leg1(ej, bundle.E)))
    a_s = LinMap(d * d, d, cols_s).kernel()
    a_t = LinMap(d * d, d, cols_t).kernel()
    if a_s != data.b_view.subspace:
        return failed("source-target-characterizations",
                      {"algebra": "A_s", "solved_dim": a_s.dim,
                       "B_dim": data.b_view.dim})
    if a_t != data.c_view.subspace:
        return failed("source-target-characterizations",
                      {"algebra": "A_t", "solved_dim": a_t.dim,
                       "C_dim": data.c_view.dim})
    return passed("source-target-characterizations")


def run_base_suite(bundle: WeakMultiplierHopfAlgebra) -> tuple[BaseAlgebraData | None, Report]:
    data, report = compute_base_algebras(bundle)
    if data is not None:
        report.add(check_characterizations(bundle, data))
    return data, report
