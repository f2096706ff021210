"""Separating functionals and separability idempotents.

A faithful functional phi on B with modular automorphism sigma
(phi(xy) = phi(y sigma(x))) determines, through phi-dual bases, an
element E of B (x) C realizing (phi(. x) (x) id)E = S_B(x).  When that
E is idempotent, phi is separating and B is separable Frobenius.  Over
the rationals, semisimplicity is decided by the regular trace form: a
nonzero radical rules out every separating functional.
"""

from __future__ import annotations


from .algebra import (FiniteAlgebra, TensorSquare, first_failure, multiplicativity,
                      opposite_algebra)
from .linalg import LinMap, Subspace, Vec, unit_vec, vaxpy, vdot, vtensor


class SeparabilityError(ValueError):
    pass


class NotFaithful(SeparabilityError):
    pass


class NoModularAutomorphism(SeparabilityError):
    pass


class NotIdempotentE(SeparabilityError):
    """The dual-basis element was built but is not idempotent; ``idem``
    is the rejected SeparabilityIdempotent, ``defect`` is E^2 - E."""

    def __init__(self, defect: Vec, idem: "SeparabilityIdempotent"):
        self.defect = defect
        self.idem = idem
        super().__init__("dual-basis element fails idempotency")


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
    if first_failure((n, n), [multiplicativity(b, sigma.cols, b.mul)]) is not None:
        raise NoModularAutomorphism("solved map is not multiplicative")
    for i in range(n):
        if vdot(phi, sigma.apply(unit_vec(i))) != phi.get(i, 0):
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
    idempotency is checked and NotIdempotentE raised with the defect and
    the rejected idempotent when it fails.  Defaults: C = B^op and S_B
    the identity map.
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
        vaxpy(e, 1, vtensor(duals[i], s_b.apply(unit_vec(i)), c.dim))
    s_c = sigma_b.inverse() @ s_b.inverse()
    phi_c = _pushforward(phi, s_b)
    sigma_c = s_b @ s_c
    idem = SeparabilityIdempotent(b, c, e, s_b, s_c, phi_b=dict(phi),
                                  phi_c=phi_c, sigma_b=sigma_b, sigma_c=sigma_c)
    ee = idem.bc.mul(e, e)
    if ee != e:
        defect = dict(ee)
        vaxpy(defect, -1, e)
        raise NotIdempotentE(defect, idem)
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
        total = 0
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
