"""Separating functionals and separability idempotents.

A faithful functional phi on B with modular automorphism sigma
(phi(xy) = phi(y sigma(x))) determines, through phi-dual bases, an
element E of B (x) C realizing (phi(. x) (x) id)E = S_B(x).  When that
E is idempotent, phi is separating and B is separable Frobenius.  Over
the rationals, semisimplicity is decided by the regular trace form, and
the regular trace doubles as the canonical separating candidate.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FiniteAlgebra, TensorSquare, opposite_algebra
from .linalg import LinMap, Subspace, Vec, solve, unit_vec, vaxpy, vdot, vtensor


class SeparabilityError(ValueError):
    pass


class NotFaithful(SeparabilityError):
    pass


class NoModularAutomorphism(SeparabilityError):
    pass


class NotIdempotentE(SeparabilityError):
    def __init__(self, defect: Vec):
        self.defect = defect
        super().__init__("dual-basis element fails idempotency")


class NoSolution(SeparabilityError):
    pass


def pairing_matrix(b: FiniteAlgebra, phi: Vec) -> LinMap:
    """P[j][k] = phi(e_j e_k); nonsingular iff phi is faithful."""
    n = b.dim
    entries = {}
    for j in range(n):
        for k in range(n):
            val = vdot(phi, b.mul_basis(j, k))
            if val:
                entries[(j, k)] = val
    return LinMap.from_entries(n, n, entries)


def modular_automorphism(b: FiniteAlgebra, phi: Vec) -> LinMap:
    """The unique sigma with phi(x1 x2) = phi(x2 sigma(x1)).

    Solved column by column from the pairing matrix; the result is
    verified to be an automorphism leaving phi invariant.
    """
    p = pairing_matrix(b, phi)
    if not p.is_bijective():
        raise NotFaithful("pairing matrix is singular")
    pinv = p.inverse()
    n = b.dim
    cols = []
    for i in range(n):
        target = {j: vdot(phi, b.mul_basis(i, j)) for j in range(n)}
        target = {j: c for j, c in target.items() if c}
        cols.append(pinv.apply(target))
    sigma = LinMap(n, n, cols)
    if not sigma.is_bijective():
        raise NoModularAutomorphism("solved map is singular")
    for i in range(n):
        for j in range(n):
            lhs = sigma.apply(b.mul_basis(i, j))
            rhs = b.mul(sigma.apply(unit_vec(i)), sigma.apply(unit_vec(j)))
            if lhs != rhs:
                raise NoModularAutomorphism("solved map is not multiplicative")
    for i in range(n):
        if vdot(phi, sigma.apply(unit_vec(i))) != phi.get(i, Fraction(0)):
            raise NoModularAutomorphism("phi is not invariant under sigma")
    return sigma


def dual_basis(b: FiniteAlgebra, phi: Vec) -> list[Vec]:
    """Vectors d_i with phi(d_i e_j) = delta_ij."""
    p = pairing_matrix(b, phi)
    if not p.is_bijective():
        raise NotFaithful("pairing matrix is singular")
    pt_inv = p.transpose().inverse()
    return [pt_inv.apply(unit_vec(i)) for i in range(b.dim)]


class SeparabilityIdempotent:
    """E in B (x) C with antipodal maps and integrals.

    The tensor is stored in coordinates over the bases of the abstract
    algebras B and C; index (alpha, beta) sits at alpha * dim C + beta,
    the index of ``bc``, the TensorSquare of B and C.
    """

    def __init__(self, b: FiniteAlgebra, c: FiniteAlgebra, e: Vec,
                 s_b: LinMap, s_c: LinMap, phi_b: Vec, phi_c: Vec,
                 sigma_b: LinMap, sigma_c: LinMap):
        self.b = b
        self.c = c
        self.e = e
        self.s_b = s_b
        self.s_c = s_c
        self.phi_b = phi_b
        self.phi_c = phi_c
        self.sigma_b = sigma_b
        self.sigma_c = sigma_c
        self.bc = TensorSquare(b, c)

    def check_invariants(self) -> list[str]:
        """Names of violated defining identities (empty when sound)."""
        bad = []
        bc = self.bc
        if bc.mul(self.e, self.e) != self.e:
            bad.append("idempotency")
        for x in range(self.b.dim):
            lhs = bc.mul_right_leg1(self.e, unit_vec(x))
            rhs = bc.mul_right_leg2(self.e, self.s_b.apply(unit_vec(x)))
            if lhs != rhs:
                bad.append("antipodal-B")
                break
        for y in range(self.c.dim):
            lhs = bc.mul_left_leg2(unit_vec(y), self.e)
            rhs = bc.mul_left_leg1(self.s_c.apply(unit_vec(y)), self.e)
            if lhs != rhs:
                bad.append("antipodal-C")
                break
        if bc.functional_leg1(self.phi_b, self.e) != self.c.unit():
            bad.append("integral-B")
        if bc.functional_leg2(self.phi_c, self.e) != self.b.unit():
            bad.append("integral-C")
        if self.s_c != self.sigma_b.inverse() @ self.s_b.inverse():
            bad.append("S_C-formula")
        if self.sigma_c != self.s_b @ self.s_c:
            bad.append("sigma_C-formula")
        return bad


def build_E_from_functional(b: FiniteAlgebra, phi: Vec,
                            c: FiniteAlgebra | None = None,
                            s_b: LinMap | None = None) -> SeparabilityIdempotent:
    """Dual-basis construction of E = sum d_i (x) S_B(e_i).

    The slice property (phi(. x) (x) id)E = S_B(x) holds by construction;
    idempotency is checked and NotIdempotentE raised with the defect
    when it fails.  Defaults: C = B^op and S_B the identity map.
    """
    if c is None:
        c = opposite_algebra(b)
    if s_b is None:
        s_b = LinMap.identity(b.dim)
    if b.unit() is None or c.unit() is None:
        raise SeparabilityError("separability engine requires unital B and C")
    sigma_b = modular_automorphism(b, phi)
    duals = dual_basis(b, phi)
    e: Vec = {}
    for i in range(b.dim):
        vaxpy(e, Fraction(1), vtensor(duals[i], s_b.apply(unit_vec(i)), c.dim))
    s_c = sigma_b.inverse() @ s_b.inverse()
    phi_c = _pushforward(phi, s_b)
    sigma_c = s_b @ s_c
    idem = SeparabilityIdempotent(b, c, e, s_b, s_c, phi_b=dict(phi),
                                  phi_c=phi_c, sigma_b=sigma_b, sigma_c=sigma_c)
    ee = idem.bc.mul(e, e)
    if ee != e:
        defect = dict(ee)
        vaxpy(defect, Fraction(-1), e)
        raise NotIdempotentE(defect)
    return idem


def _pushforward(phi: Vec, s_b: LinMap) -> Vec:
    """phi composed with the inverse of s_b, as a functional on C."""
    inv = s_b.inverse()
    out: Vec = {}
    for j in range(inv.ncols):
        val = vdot(phi, inv.apply(unit_vec(j)))
        if val:
            out[j] = val
    return out


def slice_property_holds(idem: SeparabilityIdempotent) -> bool:
    """(phi(. x) (x) id)E = S_B(x) on the basis of B, plus the derived
    right-handed law (id (x) phi_C(y .))E = S_C(y) on the basis of C."""
    bc = idem.bc
    for x in range(idem.b.dim):
        acc = bc.functional_leg1(idem.phi_b, bc.mul_right_leg1(idem.e, unit_vec(x)))
        if acc != idem.s_b.apply(unit_vec(x)):
            return False
    for y in range(idem.c.dim):
        acc2 = bc.functional_leg2(idem.phi_c, bc.mul_left_leg2(unit_vec(y), idem.e))
        if acc2 != idem.s_c.apply(unit_vec(y)):
            return False
    return True


def regular_trace(b: FiniteAlgebra) -> Vec:
    """x -> trace of left multiplication by x."""
    out: Vec = {}
    for i in range(b.dim):
        total = Fraction(0)
        for j in range(b.dim):
            c = b.mul_basis(i, j).get(j)
            if c:
                total += c
        if total:
            out[i] = total
    return out


def trace_form_radical(b: FiniteAlgebra) -> Subspace:
    """Radical of the regular trace form; over Q this is the Jacobson
    radical, so nonzero radical refutes separability."""
    return pairing_matrix(b, regular_trace(b)).kernel()


class SeparabilityCertificate:
    def __init__(self, phi: Vec, idem: SeparabilityIdempotent):
        self.phi = phi
        self.idem = idem


class SeparabilityRefutation:
    def __init__(self, radical_witness: Vec):
        self.radical_witness = radical_witness


class Inconclusive:
    def __init__(self, tried: int):
        self.tried = tried


def certify_separable_frobenius(b: FiniteAlgebra, candidates: list[Vec] = ()):
    """Certificate, refutation, or Inconclusive.

    Order: the radical criterion first (a refutation is a proof), then
    caller candidates, then the regular trace.
    """
    rad = trace_form_radical(b)
    if rad.dim:
        return SeparabilityRefutation(rad.rows[0])
    tried = 0
    for phi in list(candidates) + [regular_trace(b)]:
        tried += 1
        try:
            idem = build_E_from_functional(b, phi)
        except SeparabilityError:
            continue
        return SeparabilityCertificate(phi, idem)
    return Inconclusive(tried)


def derive_right_handed_data(idem: SeparabilityIdempotent) -> SeparabilityIdempotent:
    """Recompute S_C, phi_C, sigma_C from (B, phi_B, S_B, E) and verify
    the right-handed slice law; the completed object is returned."""
    s_c = idem.sigma_b.inverse() @ idem.s_b.inverse()
    phi_c = _pushforward(idem.phi_b, idem.s_b)
    sigma_c = idem.s_b @ s_c
    out = SeparabilityIdempotent(idem.b, idem.c, idem.e, idem.s_b, s_c,
                                 idem.phi_b, phi_c, idem.sigma_b, sigma_c)
    if not slice_property_holds(out):
        raise SeparabilityError("right-handed slice law fails")
    return out


def functional_from_E(b: FiniteAlgebra, c: FiniteAlgebra, e: Vec) -> tuple[Vec, Vec]:
    """The unique functionals with (phi_B (x) id)E = 1 and
    (id (x) phi_C)E = 1; NoSolution when E is not a separability
    idempotent for any pair."""
    nb, nc = b.dim, c.dim
    unit_c = c.unit()
    unit_b = b.unit()
    if unit_b is None or unit_c is None:
        raise SeparabilityError("unital algebras required")
    cols_b: list[Vec] = [{} for _ in range(nb)]
    cols_c: list[Vec] = [{} for _ in range(nc)]
    for p, cf in e.items():
        p1, p2 = divmod(p, nc)
        vaxpy(cols_b[p1], cf, unit_vec(p2))
        vaxpy(cols_c[p2], cf, unit_vec(p1))
    sys_b = LinMap(nc, nb, cols_b)
    sys_c = LinMap(nb, nc, cols_c)
    phi_b = solve(sys_b, unit_c)
    phi_c = solve(sys_c, unit_b)
    if phi_b is None or sys_b.kernel().dim or phi_c is None or sys_c.kernel().dim:
        raise NoSolution("no unique slicing functionals for this element")
    return phi_b, phi_c
