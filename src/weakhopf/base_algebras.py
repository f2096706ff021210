"""Source and target maps and the base algebras they generate.

The source value of a is mu(S (x) id)Delta(a), the target value is
mu(id (x) S)Delta(a); both are elements of the unital algebra A (which
is its own multiplier algebra), computed through slice-map
compositions.  Their images span the base algebras B and C, which carry
the restricted antipode and the unique functionals that slice the
canonical idempotent to the unit.  The structural checks on a base pair
(commuting, acting fully, anti-homomorphic antipodal maps) live here
once and serve the base suite and the algebroid's graph-pair axioms.
Each basis-indexed check is one ``algebra.first_failure`` scan; one over
both bases scans a side axis (B, then C) first and names the side.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra, by_side, first_failure, multiplicativity
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
        self.algebra = FiniteAlgebra([f"{name}{k}" for k in range(len(self.basis))], table,
                                     parent.associative)

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
    b, c = b_view.basis, c_view.basis
    bad = first_failure((len(b), len(c)), [(lambda i, j: alg.mul(b[i], c[j]),
                                           lambda i, j: alg.mul(c[j], b[i]))])
    return None if bad is None else (b[bad[0][0]], c[bad[0][1]])


def action_span_dim(alg: FiniteAlgebra, view: SubalgebraView) -> int:
    """dim(XA + AX) for the base X; it acts fully when this is dim A."""
    span = Subspace(alg.dim)
    for x in view.basis:
        for j in range(alg.dim):
            span.insert(alg.mul(x, unit_vec(j)))
            span.insert(alg.mul(unit_vec(j), x))
    return span.dim


def first_anti_homomorphism_failure(s: LinMap, source: FiniteAlgebra,
                                    target: FiniteAlgebra) -> tuple[int, int] | None:
    """The first basis pair (i, j) of source with s(e_i e_j) != s(e_j)s(e_i),
    for s from source to target coordinates; None when s is an
    anti-homomorphism."""
    bad = first_failure((source.dim, source.dim),
                        [multiplicativity(source, s.cols, target.mul, anti=True)])
    return None if bad is None else bad[0]


class BaseAlgebraData:
    """B, C inside M(A) with restricted antipodes and integrals."""

    def __init__(self, b_view: SubalgebraView, c_view: SubalgebraView,
                 s_b: LinMap, s_c: LinMap, phi_b: Vec, phi_c: Vec):
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
    anti_ok = (first_anti_homomorphism_failure(s_b, b_view.algebra, c_view.algebra) is None
               and first_anti_homomorphism_failure(s_c, c_view.algebra, b_view.algebra) is None)
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

    # S_B is bijective, so dim B = dim C = n: the scans run over (side, i[, a])
    # at the i-th basis element xs[i] of B (side 0) or ys[i] of C (side 1)
    xs, ys, n = b_view.basis, c_view.basis, b_view.dim

    def record(name, laws, shape=(2, n)):
        bad = first_failure(shape, laws)
        if bad is None:
            return passed(name)
        (side, i, *a), k, _, _ = bad
        witness = {"side": "BC"[side], "element": (xs, ys)[side][i]}
        if a:
            witness.update(basis=alg.labels[a[0]], map=("source", "target")[k])
        return failed(name, witness)

    # antipodal identities through E: E(x (x) 1) = E(1 (x) S(x)) on B,
    # (1 (x) y)E = (S(y) (x) 1)E on C
    report.add(record("idempotent-antipodal-maps", by_side([
        [(lambda i: t2.mul_right_leg1(e, xs[i]),
          lambda i: t2.mul_right_leg2(e, s.apply(xs[i])))],
        [(lambda i: t2.mul_left_leg2(ys[i], e),
          lambda i: t2.mul_left_leg1(s.apply(ys[i]), e))]])))

    # covered integral identities: mu(id (x) S)((x (x) 1)E) = x on B,
    # mu(S (x) id)(E(1 (x) y)) = y on C
    report.add(record("idempotent-covered-integrals", by_side([
        [(lambda i: t2.mul_map(t2.map_leg2(s, t2.mul_left_leg1(xs[i], e))), xs.__getitem__)],
        [(lambda i: t2.mul_map(t2.map_leg1(s, t2.mul_right_leg2(e, ys[i]))), ys.__getitem__)]])))

    # module relations of the source map (law 0) and the target map
    # (law 1) at (side, i, a)
    report.add(record("source-target-module-relations", by_side([
        [(lambda i, a: lincomb(alg.mul(unit_vec(a), xs[i]), sources),
          lambda i, a: alg.mul(sources[a], xs[i])),
         (lambda i, a: lincomb(alg.mul(xs[i], unit_vec(a)), targets),
          lambda i, a: alg.mul(targets[a], s.apply(xs[i])))],
        [(lambda i, a: lincomb(alg.mul(unit_vec(a), ys[i]), sources),
          lambda i, a: alg.mul(s.apply(ys[i]), sources[a])),
         (lambda i, a: lincomb(alg.mul(ys[i], unit_vec(a)), targets),
          lambda i, a: alg.mul(ys[i], targets[a]))]]), (2, n, d)))

    phi_b = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=True)
    phi_c = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=False)
    if phi_b is None or phi_c is None:
        report.add(failed("base-integrals-exist", {"phi_B": phi_b, "phi_C": phi_c}))
        return None, report
    report.add(passed("base-integrals-exist"))

    data = BaseAlgebraData(b_view, c_view, s_b, s_c, phi_b, phi_c)
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
