"""Separating functionals and separability idempotents.

A faithful functional phi on B with modular automorphism sigma
(phi(xy) = phi(y sigma(x))) determines, through phi-dual bases, an
element E of B (x) C realizing (phi(. x) (x) id)E = S_B(x).  When that
E is idempotent, phi is separating and B is separable Frobenius.  Over
the rationals, semisimplicity is decided by the regular trace form: a
nonzero radical rules out every separating functional.
"""

from __future__ import annotations


from .algebra import (FiniteAlgebra, TensorSquare, by_side, first_failure, multiplicativity,
                      opposite_algebra)
from .linalg import (LinMap, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vdot, vec_from, vsub,
                     vtensor)


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


def _pairing(b: FiniteAlgebra, phi: Vec) -> tuple[LinMap, LinMap]:
    """The pairing matrix P of phi and its inverse, from one elimination;
    NotFaithful when P is singular."""
    p = pairing_matrix(b, phi)
    try:
        return p, p.inverse()
    except ValueError:
        raise NotFaithful("pairing matrix is singular") from None


def modular_automorphism(b: FiniteAlgebra, phi: Vec) -> LinMap:
    """The unique sigma with phi(x1 x2) = phi(x2 sigma(x1))."""
    return _modular(b, phi, *_pairing(b, phi))


def _modular(b: FiniteAlgebra, phi: Vec, p: LinMap, pinv: LinMap) -> LinMap:
    """sigma = P^-1 P^T, since phi(e_i e_j) = phi(e_j sigma(e_i)) reads
    P^T = P sigma; verified to be an automorphism leaving phi invariant."""
    n = b.dim
    sigma = pinv @ p.transpose()
    if not sigma.is_bijective():
        raise NoModularAutomorphism("solved map is singular")
    if first_failure((n, n), [multiplicativity(b, sigma.cols, b.mul)]) is not None:
        raise NoModularAutomorphism("solved map is not multiplicative")
    invariance = (lambda i: vdot(phi, sigma.cols[i]), lambda i: phi.get(i, 0))
    if first_failure((n,), [invariance]) is not None:
        raise NoModularAutomorphism("phi is not invariant under sigma")
    return sigma


def dual_basis(b: FiniteAlgebra, phi: Vec) -> list[Vec]:
    """Vectors d_i with phi(d_i e_j) = delta_ij: the rows of P^-1."""
    return _pairing(b, phi)[1].rows()


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
        if first_failure((self.b.dim,), [
                (lambda x: bc.mul_right_leg1(self.e, unit_vec(x)),
                 lambda x: bc.mul_right_leg2(self.e, self.s_b.cols[x]))]) is not None:
            bad.append("antipodal-B")
        if first_failure((self.c.dim,), [
                (lambda y: bc.mul_left_leg2(unit_vec(y), self.e),
                 lambda y: bc.mul_left_leg1(self.s_c.cols[y], self.e))]) is not None:
            bad.append("antipodal-C")
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
    the identity map.  Sigma and the dual basis share one pairing matrix
    and its inverse.
    """
    if c is None:
        c = opposite_algebra(b)
    if s_b is None:
        s_b = LinMap.identity(b.dim)
    if b.unit() is None or c.unit() is None:
        raise SeparabilityError("separability engine requires unital B and C")
    pairing = _pairing(b, phi)
    sigma_b = _modular(b, phi, *pairing)
    duals = pairing[1].rows()
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
    return vec_from((j, vdot(phi, col)) for j, col in enumerate(s_b.inverse().cols))


def slice_property_holds(idem: SeparabilityIdempotent) -> bool:
    """(phi(. x) (x) id)E = S_B(x) on the basis of B, plus the derived
    right-handed law (id (x) phi_C(y .))E = S_C(y) on the basis of C."""
    bc, e = idem.bc, idem.e
    return first_failure((2, idem.b.dim), by_side([
        [(lambda x: bc.functional_leg1(idem.phi_b, bc.mul_right_leg1(e, unit_vec(x))),
          lambda x: idem.s_b.apply(unit_vec(x)))],
        [(lambda y: bc.functional_leg2(idem.phi_c, bc.mul_left_leg2(unit_vec(y), e)),
          lambda y: idem.s_c.apply(unit_vec(y)))]])) is None


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


def sigma_constraint_space(b: FiniteAlgebra, sigma: LinMap) -> Subspace:
    """Functionals with phi(x1 x2) = phi(x2 sigma(x1)) for all pairs."""
    n = b.dim
    rows = []
    for i in range(n):
        si = sigma.apply(unit_vec(i))
        for j in range(n):
            row = dict(b.mul_basis(i, j))
            vaxpy(row, -1, b.mul(unit_vec(j), si))
            rows.append(row)
    return LinMap.from_rows(n, rows).kernel()


def sigma_center(b: FiniteAlgebra, sigma: LinMap) -> tuple[Subspace, Vec | None]:
    """The sigma-fixed centre Z^sigma of B, and z - sigma(z) for the
    first basis element z of the centre that sigma moves (None when sigma
    fixes the centre).  The moved direction annihilates the pairing of
    every functional in the constraint space, so none of them is faithful.

    Both come from one commutator system: the centre is the common kernel
    of x -> e_i x - x e_i, and Z^sigma the kernel of sigma - id on it.
    """
    n = b.dim
    rows = []
    for i in range(n):
        rows.extend((b.left_mult(unit_vec(i)) - b.right_mult(unit_vec(i))).rows())
    center = LinMap.from_rows(n, rows).kernel()
    moved = [vsub(z, sigma.apply(z)) for z in center.rows]
    fixed = Subspace.from_vectors(n, (lincomb(combo, center.rows) for combo
                                      in LinMap(n, center.dim, moved).kernel().rows))
    return fixed, next((m for m in moved if m), None)


def find_separating_functional(b: FiniteAlgebra, sigma_target: LinMap,
                               s_b: LinMap | None = None,
                               c: FiniteAlgebra | None = None):
    """The separating functional with the prescribed modular automorphism
    sigma, together with its idempotent; None when there is none.

    With v_1..v_k the basis of the constraint space V, the search walks
    the moment curve phi_t = sum_j t^(j-1) v_j for t = 1..k(k-1)+1, stops
    at the first faithful point and decides there: its idempotent is
    returned, or repaired by a central factor, or there is none.  This is
    exact on a base with zero trace-form radical, which
    ``QuantumGraphPair.separability`` checks first:

    1. Fix a faithful phi0 in V and write phi in V as phi0(w .).  The
       twisted trace law for phi and phi0 and the faithfulness of phi0
       give w y = y sigma(w) for all y; y = 1 gives sigma(w) = w, so w is
       central.  Conversely phi0(w .) lies in V for every w in Z^sigma,
       so V = phi0 Z^sigma.
    2. Z is reduced, so Z^sigma is a product of m <= k fields.
       phi0(w .) is faithful exactly when w is invertible, and the
       non-invertible w are the union of m proper subspaces, one per
       field whose component of w vanishes.
    3. Any k points of the moment curve are linearly independent
       (Vandermonde), so a proper subspace holds at most k - 1 of them:
       if V has a faithful point, one of the k(k-1)+1 points is one.
    4. For phi = phi0(w .) the dual bases give E_phi = (w^-1 (x) 1)E_phi0,
       and E_phi0^2 = (c (x) 1)E_phi0 for one c in Z^sigma, the factor
       ``_central_rescale`` solves for.  So E_phi is idempotent exactly
       when w = c: a separating functional exists iff c is invertible,
       and then it is unique.
    5. Hence the first faithful point decides, and no other point can
       change the outcome.  At t = 1 the curve gives sum_j v_j.
    """
    space = sigma_constraint_space(b, sigma_target)
    k = space.dim
    for t in range(1, k * (k - 1) + 2):
        phi = lincomb({j: t ** j for j in range(k)}, space.rows)
        try:
            idem = build_E_from_functional(b, phi, c, s_b)
        except NotFaithful:
            continue
        except NotIdempotentE as exc:
            if exc.idem.sigma_b != sigma_target:
                return None
            return _central_rescale(exc, sigma_center(b, sigma_target)[0])
        except SeparabilityError:
            return None
        return (phi, idem) if idem.sigma_b == sigma_target else None
    return None


def _central_rescale(exc: NotIdempotentE, center: Subspace):
    """Solve E^2 = (z (x) 1)E over the sigma-fixed center and absorb z
    into the functional.  exc carries the rejected idempotent E and the
    defect E^2 - E."""
    if center.dim == 0:
        return None
    idem = exc.idem
    b, phi, e, bc = idem.b, idem.phi_b, idem.e, idem.bc
    ee = dict(exc.defect)
    vaxpy(ee, 1, e)  # E^2 = defect + E
    cols = [bc.mul_left_leg1(z, e) for z in center.rows]
    system = LinMap(bc.size, center.dim, cols)
    combo = solve(system, ee)
    if combo is None:
        return None
    z: Vec = {}
    for t, coeff in combo.items():
        vaxpy(z, coeff, center.rows[t])
    if not b.left_mult(z).is_bijective():
        return None
    phi_new: Vec = {}
    for i in range(b.dim):
        val = vdot(b.mul(z, unit_vec(i)), phi)
        if val:
            phi_new[i] = val
    try:
        return phi_new, build_E_from_functional(b, phi_new, idem.c, idem.s_b)
    except SeparabilityError:
        return None
