"""Source and target maps and the base algebras they generate.

The source value of a is mu(S (x) id)Delta(a), the target value is
mu(id (x) S)Delta(a); both are multipliers computed through slice-map
compositions.  Their images span the base algebras B and C inside M(A),
which carry the restricted antipode and the unique functionals that
slice the canonical idempotent to the unit.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra, Multiplier
from .linalg import LinMap, Span, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vsub, vtensor
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
        self._span = Span(parent.dim)
        for b in self.basis:
            self._span.add(b)
        tables: dict[tuple[int, int], Vec] = {}
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                coords = self._span.express(parent.mul(bi, bj))
                if coords is None:
                    raise AlgebraError(f"{name} is not closed under the product")
                tables[(i, j)] = coords
        self.algebra = FiniteAlgebra(
            [f"{name}{k}" for k in range(len(self.basis))],
            lambda i, j: dict(tables[(i, j)]), validated=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_coords(self, x: Vec) -> Vec | None:
        return self._span.express(x)

    def from_coords(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, c in v.items():
            vaxpy(out, c, self.basis[i])
        return out

    def restrict(self, m: LinMap, target: "SubalgebraView") -> LinMap | None:
        """m as a map self -> target in coordinates; None if it escapes."""
        cols = []
        for b in self.basis:
            c = target.to_coords(m.apply(b))
            if c is None:
                return None
            cols.append(c)
        return LinMap(target.dim, self.dim, cols)


class BaseAlgebraData:
    """B, C inside M(A) with restricted antipodes and integrals."""

    def __init__(self, bundle: WeakMultiplierHopfAlgebra,
                 b_view: SubalgebraView, c_view: SubalgebraView,
                 s_b: LinMap, s_c: LinMap, phi_b: Vec, phi_c: Vec,
                 e_coords: Vec):
        self.bundle = bundle
        self.b_view = b_view
        self.c_view = c_view
        self.s_b = s_b        # B-coords -> C-coords
        self.s_c = s_c        # C-coords -> B-coords
        self.phi_b = phi_b    # functional on B-coords
        self.phi_c = phi_c    # functional on C-coords
        self.e_coords = e_coords  # E in the B (x) C coordinate basis


def source_map(bundle: WeakMultiplierHopfAlgebra, a: Vec) -> Multiplier:
    values = [bundle.source_value(i) for i in range(bundle.dim)]
    return Multiplier.from_element(bundle.algebra, lincomb(a, values))


def target_map(bundle: WeakMultiplierHopfAlgebra, a: Vec) -> Multiplier:
    values = [bundle.target_value(i) for i in range(bundle.dim)]
    return Multiplier.from_element(bundle.algebra, lincomb(a, values))


def extend_antipode(bundle: WeakMultiplierHopfAlgebra, m: Multiplier) -> Multiplier:
    """S pushed to M(A) by conjugating the action maps."""
    s, si = bundle.antipode, bundle.antipode_inv()
    return Multiplier(bundle.algebra, s @ m.right @ si, s @ m.left @ si)


def compute_base_algebras(bundle: WeakMultiplierHopfAlgebra,
                          title: str = "base-algebras") -> tuple[BaseAlgebraData | None, Report]:
    """Spans of the source and target maps with every structural check."""
    report = Report(title)
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    unit = alg.unit()
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

    ok = True
    for bi in b_view.basis:
        for cj in c_view.basis:
            if alg.mul(bi, cj) != alg.mul(cj, bi):
                report.add(failed("base-algebras-commute", {"b": bi, "c": cj}))
                ok = False
                break
        if not ok:
            break
    if ok:
        report.add(passed("base-algebras-commute"))

    for view, label in ((b_view, "B"), (c_view, "C")):
        prod = Subspace(d)
        for x in view.basis:
            for j in range(d):
                prod.insert(alg.mul(x, unit_vec(j)))
                prod.insert(alg.mul(unit_vec(j), x))
        if prod.dim != d:
            report.add(failed("base-acts-fully", {"algebra": label, "span": prod.dim}))
            return None, report
    report.add(passed("base-acts-fully", detail="BA = AB = A and CA = AC = A"))

    s_b = b_view.restrict(s, c_view)
    s_c = c_view.restrict(s, b_view)
    if s_b is None or not s_b.is_bijective() or s_c is None or not s_c.is_bijective():
        report.add(failed("antipode-restricts", {"S(B) in C": s_b is not None,
                                                 "S(C) in B": s_c is not None}))
        return None, report
    anti_ok = True
    for i in range(b_view.dim):
        for j in range(b_view.dim):
            lhs = s_b.apply(b_view.algebra.mul_basis(i, j))
            rhs = c_view.algebra.mul(s_b.apply(unit_vec(j)), s_b.apply(unit_vec(i)))
            if lhs != rhs:
                anti_ok = False
    for i in range(c_view.dim):
        for j in range(c_view.dim):
            lhs = s_c.apply(c_view.algebra.mul_basis(i, j))
            rhs = b_view.algebra.mul(s_c.apply(unit_vec(j)), s_c.apply(unit_vec(i)))
            if lhs != rhs:
                anti_ok = False
    report.add(passed("antipode-restricts") if anti_ok else
               failed("antipode-restricts", {"anti_homomorphism": False}))

    # E lives in B (x) C
    bc = Span(d * d)
    for bi in b_view.basis:
        for cj in c_view.basis:
            bc.add(vtensor(bi, cj, d))
    e_coords = bc.express(bundle.E)
    if e_coords is None:
        report.add(failed("canonical-idempotent-in-base-tensor", {"E": bundle.E}))
        return None, report
    products_ok = True
    bc_sub = Subspace.from_vectors(d * d, [vtensor(bi, cj, d)
                                           for bi in b_view.basis
                                           for cj in c_view.basis])
    for bi in b_view.basis:
        for cj in c_view.basis:
            x = vtensor(bi, cj, d)
            if not bc_sub.contains(t2.mul(bundle.E, x)):
                products_ok = False
            if not bc_sub.contains(t2.mul(x, bundle.E)):
                products_ok = False
    report.add(passed("canonical-idempotent-in-base-tensor") if products_ok else
               failed("canonical-idempotent-in-base-tensor", {"products": False}))

    # legs of E span exactly B and C
    leg1 = Subspace(d)
    leg2 = Subspace(d)
    for v_idx, vec1 in _group_leg(bundle.E, d, leg=1).items():
        leg1.insert(vec1)
    for u_idx, vec2 in _group_leg(bundle.E, d, leg=2).items():
        leg2.insert(vec2)
    if leg1 == b_view.subspace and leg2 == c_view.subspace:
        report.add(passed("idempotent-legs-span-bases"))
    else:
        report.add(failed("idempotent-legs-span-bases",
                          {"leg1_dim": leg1.dim, "B_dim": b_view.dim,
                           "leg2_dim": leg2.dim, "C_dim": c_view.dim}))

    # antipodal identities through E
    anti = True
    for bi in b_view.basis:
        lhs = t2.mul(bundle.E, vtensor(bi, unit, d))
        rhs = t2.mul(bundle.E, vtensor(unit, s.apply(bi), d))
        if lhs != rhs:
            anti = False
    for cj in c_view.basis:
        lhs = t2.mul(vtensor(unit, cj, d), bundle.E)
        rhs = t2.mul(vtensor(s.apply(cj), unit, d), bundle.E)
        if lhs != rhs:
            anti = False
    report.add(passed("idempotent-antipodal-maps") if anti else
               failed("idempotent-antipodal-maps", {}))

    # covered integral identities: mu(S (x) id)(E(1 (x) y)) = y on C,
    # mu(id (x) S)((x (x) 1)E) = x on B
    cov = True
    for cj in c_view.basis:
        z = t2.mul(bundle.E, vtensor(unit, cj, d))
        if t2.mul_map(t2.map_leg1(s, z)) != cj:
            cov = False
    for bi in b_view.basis:
        z = t2.mul(vtensor(bi, unit, d), bundle.E)
        if t2.mul_map(t2.map_leg2(s, z)) != bi:
            cov = False
    report.add(passed("idempotent-covered-integrals") if cov else
               failed("idempotent-covered-integrals", {}))

    # module relations for the source and target maps
    mod = True
    for i in range(d):
        ea = unit_vec(i)
        es_a = sources[i]
        et_a = targets[i]
        for bi in b_view.basis:
            if lincomb(alg.mul(ea, bi), sources) != alg.mul(es_a, bi):
                mod = False
            if lincomb(alg.mul(bi, ea), targets) != alg.mul(et_a, s.apply(bi)):
                mod = False
        for cj in c_view.basis:
            if lincomb(alg.mul(ea, cj), sources) != alg.mul(s.apply(cj), es_a):
                mod = False
            if lincomb(alg.mul(cj, ea), targets) != alg.mul(cj, et_a):
                mod = False
    report.add(passed("source-target-module-relations") if mod else
               failed("source-target-module-relations", {}))

    phi_b = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=True)
    phi_c = _slice_functional(bundle, b_view, c_view, e_coords, first_leg=False)
    if phi_b is None or phi_c is None:
        report.add(failed("base-integrals-exist", {"phi_B": phi_b, "phi_C": phi_c}))
        return None, report
    report.add(passed("base-integrals-exist"))

    data = BaseAlgebraData(bundle, b_view, c_view, s_b, s_c, phi_b, phi_c,
                           e_coords)
    return data, report


def _group_leg(x: Vec, d: int, leg: int) -> dict[int, Vec]:
    out: dict[int, Vec] = {}
    for p, c in x.items():
        u, v = divmod(p, d)
        if leg == 1:
            out.setdefault(v, {})[u] = c
        else:
            out.setdefault(u, {})[v] = c
    return out


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
    alg, t2, d = bundle.algebra, bundle.t2, bundle.dim
    unit = alg.unit()
    cols_s = []
    cols_t = []
    for j in range(d):
        ej = unit_vec(j)
        cols_s.append(vsub(bundle.delta_of(ej),
                            t2.mul(bundle.E, vtensor(unit, ej, d))))
        cols_t.append(vsub(bundle.delta_of(ej),
                            t2.mul(vtensor(ej, unit, d), bundle.E)))
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


def run_base_suite(bundle: WeakMultiplierHopfAlgebra,
                   title: str = "source-target-suite") -> tuple[BaseAlgebraData | None, Report]:
    data, report = compute_base_algebras(bundle, title)
    if data is not None:
        report.add(check_characterizations(bundle, data))
    return data, report
