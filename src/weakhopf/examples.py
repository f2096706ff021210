"""Constructors for the example corpus.

Three families feed the tests and the CLI generator:

* bundles with trivial Hopf part: A = C (x) B built from a separability
  idempotent, with coproduct (y (x) 1)E(1 (x) x);
* algebroids over a base pair (B, B^op) with a chosen automorphism
  twisting the second anti-isomorphism; depending on the base and the
  automorphism these admit or obstruct an underlying bundle;
* coproduct twists Delta'(a) = (u (x) 1)Delta(a)(v (x) 1) by invertible
  base multipliers satisfying E(vu (x) 1)E = E, and the mixed algebroid
  pairing the original left structure with the twisted right one.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (AlgebraError, FiniteAlgebra, TensorSquare, first_failure,
                      multiplicativity, tensor_algebra)
from .algebroid import MultiplierHopfAlgebroid, QuantumGraphPair, forward_construct
from .base_algebras import SubalgebraView
from .linalg import LinMap, Vec, apply_legs, solve, unit_vec, vdot, vtensor
from .reconstruction import STAGE_MODULAR_MISMATCH, STAGE_NOT_SEPARABLE
from .separability import SeparabilityIdempotent, build_E_from_functional
from .wmha import WeakMultiplierHopfAlgebra


class TwistConditionFailed(AlgebraError):
    pass


class ScalarExtension:
    """The algebra A = C (x) B with its two base embeddings."""

    def __init__(self, idem: SeparabilityIdempotent):
        self.idem = idem
        self.b = idem.b
        self.c = idem.c
        self.algebra = tensor_algebra(idem.c, idem.b)
        self.t2 = TensorSquare(self.algebra)
        self.nb = idem.b.dim
        self.nc = idem.c.dim

    def embed_b(self, x: Vec) -> Vec:
        unit_c = self.c.unit()
        return vtensor(unit_c, x, self.nb)

    def embed_c(self, y: Vec) -> Vec:
        unit_b = self.b.unit()
        return vtensor(y, unit_b, self.nb)

    def e_in_a(self) -> Vec:
        """E moved from B (x) C coordinates into A (x) A."""
        d = self.algebra.dim
        b_map = LinMap(d, self.nb, [self.embed_b(unit_vec(i)) for i in range(self.nb)])
        c_map = LinMap(d, self.nc, [self.embed_c(unit_vec(j)) for j in range(self.nc)])
        return apply_legs(b_map, c_map, self.idem.e)


def scalar_extension_wmha(idem: SeparabilityIdempotent) -> WeakMultiplierHopfAlgebra:
    """Bundle on A = C (x) B with coproduct (y (x) 1)E(1 (x) x), counit
    phi_C(y S_B(x)), antipode S_B(x) S_C(y) and canonical idempotent E."""
    ext = ScalarExtension(idem)
    a = ext.algebra
    t2 = ext.t2
    nb, nc = ext.nb, ext.nc
    e_a = ext.e_in_a()
    delta = []
    counit: Vec = {}
    s_cols = []
    for beta in range(nc):
        y = unit_vec(beta)
        for alpha in range(nb):
            x = unit_vec(alpha)
            y_a = ext.embed_c(y)
            x_a = ext.embed_b(x)
            delta.append(t2.mul_right_leg2(t2.mul_left_leg1(y_a, e_a), x_a))
            val = vdot(idem.c.mul(y, idem.s_b.apply(x)), idem.phi_c)
            if val:
                counit[beta * nb + alpha] = val
            s_cols.append(vtensor(idem.s_b.apply(x), idem.s_c.apply(y), nb))
    return WeakMultiplierHopfAlgebra(
        algebra=a,
        delta=delta,
        counit=counit,
        antipode=LinMap(a.dim, a.dim, s_cols),
        canonical_idempotent=e_a,
    )


def _translation(view: SubalgebraView, embed) -> LinMap:
    """Original coordinates -> view coordinates for an embedded base."""
    cols = []
    n = view.dim
    for alpha in range(n):
        c = view.to_coords(embed(unit_vec(alpha)))
        if c is None:
            raise AlgebraError("embedding escaped its own span")
        cols.append(c)
    return LinMap(n, n, cols)


def pair_base_algebroid(b: FiniteAlgebra, sigma: LinMap | None = None) -> MultiplierHopfAlgebroid:
    """Algebroid on A = B^op (x) B with both coproducts y x -> y (x) x.

    S_B is the identity onto C = B^op; S_C is sigma^{-1} composed with
    it (sigma defaults to the identity).  The construction is a regular
    multiplier Hopf algebroid for any choice; whether a weak multiplier
    Hopf algebra underlies it depends on B and sigma.
    """
    from .algebra import opposite_algebra

    if b.unit() is None:
        raise AlgebraError("base must be unital")
    c = opposite_algebra(b)
    nb = b.dim
    if sigma is None:
        sigma = LinMap.identity(nb)
    s_b_orig = LinMap.identity(nb)           # B -> C = B^op
    s_c_orig = sigma.inverse()                # C -> B
    a = tensor_algebra(c, b)

    def embed_b(x: Vec) -> Vec:
        return vtensor(c.unit(), x, nb)

    def embed_c(y: Vec) -> Vec:
        return vtensor(y, b.unit(), nb)

    b_view = SubalgebraView(a, [embed_b(unit_vec(i)) for i in range(nb)], "B")
    c_view = SubalgebraView(a, [embed_c(unit_vec(j)) for j in range(nb)], "C")
    t_b = _translation(b_view, embed_b)
    t_c = _translation(c_view, embed_c)
    s_b = t_c @ s_b_orig @ t_b.inverse()
    s_c = t_b @ s_c_orig @ t_c.inverse()

    graph = QuantumGraphPair(a, b_view, c_view, s_b, s_c)
    delta = []
    eps_b_cols = []
    eps_c_cols = []
    s_cols = []
    s_b_inv = s_b_orig.inverse()
    s_c_inv = s_c_orig.inverse()
    for beta in range(nb):
        y = unit_vec(beta)
        for alpha in range(nb):
            x = unit_vec(alpha)
            delta.append(vtensor(embed_c(y), embed_b(x), a.dim))
            eps_b_cols.append(embed_b(b.mul(x, s_b_inv.apply(y))))
            eps_c_cols.append(embed_c(c.mul(s_c_inv.apply(x), y)))
            s_cols.append(vtensor(s_b_orig.apply(x), s_c_orig.apply(y), nb))
    return MultiplierHopfAlgebroid(
        graph,
        delta_b=delta,
        delta_c=[dict(v) for v in delta],
        eps_b=LinMap(a.dim, a.dim, eps_b_cols),
        eps_c=LinMap(a.dim, a.dim, eps_c_cols),
        antipode=LinMap(a.dim, a.dim, s_cols),
    )


def obstruction_scenario(name: str):
    """Named scenarios with their expected pipeline outcome."""
    from .algebra import make_algebra, matrix_algebra

    if name == "radical":
        b = make_algebra(["1", "x"], {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
        return pair_base_algebroid(b), STAGE_NOT_SEPARABLE
    if name == "auto-swap":
        b = make_algebra(["p", "q"], {(0, 0, 0): 1, (1, 1, 1): 1})
        swap = LinMap.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
        return pair_base_algebroid(b, sigma=swap), STAGE_MODULAR_MISMATCH
    if name == "auto-weighted":
        b = matrix_algebra(2)
        d_elt = {0: 1, 3: 2}
        d_inv = {0: 1, 3: Fraction(1, 2)}
        cols = [b.mul(d_elt, b.mul(unit_vec(i), d_inv)) for i in range(4)]
        ad = LinMap(4, 4, cols)
        return pair_base_algebroid(b, sigma=ad), None
    raise ValueError(f"unknown scenario {name}")


class TwistData:
    """Invertible base multipliers (u, v) certified against the twist
    condition E(vu (x) 1)E = E."""

    def __init__(self, bundle: WeakMultiplierHopfAlgebra, u: Vec, v: Vec):
        self.u = u
        self.v = v
        t2 = bundle.t2
        alg = bundle.algebra
        self.u_inv = _inverse_element(alg, u)
        self.v_inv = _inverse_element(alg, v)
        vu = alg.mul(v, u)
        lhs = t2.mul(t2.mul_right_leg1(bundle.E, vu), bundle.E)
        if lhs != bundle.E:
            raise TwistConditionFailed("E(vu (x) 1)E differs from E")
        self.vu = vu


def _inverse_element(alg: FiniteAlgebra, x: Vec) -> Vec:
    unit = alg.unit()
    inv = solve(alg.left_mult(x), unit)
    if inv is None or alg.mul(inv, x) != unit:
        raise TwistConditionFailed("twist element is not invertible")
    return inv


def twist_wmha(bundle: WeakMultiplierHopfAlgebra, twist: TwistData) -> WeakMultiplierHopfAlgebra:
    """The bundle with coproduct (u (x) 1)Delta(.)(v (x) 1), canonical
    idempotent (u (x) 1)E(v (x) 1), counit a -> eps(u^{-1} a v^{-1}) and
    antipode a -> u S(v a v^{-1}) u^{-1}."""
    t2, d = bundle.t2, bundle.dim
    u, v = twist.u, twist.v
    u_inv, v_inv = twist.u_inv, twist.v_inv
    alg = bundle.algebra
    delta = [t2.mul_left_leg1(u, t2.mul_right_leg1(bundle.delta[a], v))
             for a in range(d)]
    e_new = t2.mul_left_leg1(u, t2.mul_right_leg1(bundle.E, v))
    counit: Vec = {}
    for a in range(d):
        val = bundle.eps(alg.mul(u_inv, alg.mul(unit_vec(a), v_inv)))
        if val:
            counit[a] = val
    s = bundle.antipode
    s_cols = []
    for a in range(d):
        inner = alg.mul(v, alg.mul(unit_vec(a), v_inv))
        s_cols.append(alg.mul(u, alg.mul(s.apply(inner), u_inv)))
    return WeakMultiplierHopfAlgebra(
        algebra=alg,
        delta=delta,
        counit=counit,
        antipode=LinMap(d, d, s_cols),
        canonical_idempotent=e_new,
    )


def identity_twist(bundle: WeakMultiplierHopfAlgebra) -> TwistData:
    unit = bundle.algebra.unit()
    return TwistData(bundle, dict(unit), dict(unit))


def crossed_scalar_extension_wmha(idem: SeparabilityIdempotent, group,
                                  action: dict[str, LinMap]) -> WeakMultiplierHopfAlgebra:
    """Crossed product of the trivial-Hopf-part bundle by a finite group
    acting on the base.

    ``action[h]`` is an automorphism of B; it must preserve the
    separating functional and assemble to a group action.  It induces
    S_B action[h] S_B^{-1} on C and the diagonal map on A = C (x) B; the
    coproduct sends a x| g to (Delta(a))(x| g (x) x| g).  The base
    algebras of the result are the original ones sitting at the group
    unit, but the group part now acts on them, which is what makes the
    coproduct twists below genuinely two-sided."""
    ext = ScalarExtension(idem)
    b, c = idem.b, idem.c
    nb, nc = ext.nb, ext.nc
    n0 = ext.algebra.dim
    elems = group.elements
    nh = len(elems)
    h_index = {h: t for t, h in enumerate(elems)}

    for h in elems:
        alpha = action[h]
        if not alpha.is_bijective():
            raise AlgebraError(f"action of {h} is singular")
        if first_failure((nb, nb), [multiplicativity(b, alpha.cols, b.mul)]) is not None:
            raise AlgebraError(f"action of {h} is not multiplicative")
        for i in range(nb):
            if vdot(alpha.apply(unit_vec(i)), idem.phi_b) != idem.phi_b.get(i, 0):
                raise AlgebraError(f"action of {h} does not preserve the functional")
    for g in elems:
        for h in elems:
            if action[g] @ action[h] != action[group.mul[(g, h)]]:
                raise AlgebraError("action is not a group homomorphism")

    s_b_inv = idem.s_b.inverse()
    gamma = {}
    for h in elems:
        alpha = action[h]
        alpha_c = idem.s_b @ alpha @ s_b_inv
        cols = []
        for beta in range(nc):
            img_c = alpha_c.apply(unit_vec(beta))
            for al in range(nb):
                img_b = alpha.apply(unit_vec(al))
                cols.append(vtensor(img_c, img_b, nb))
        gamma[h] = LinMap(n0, n0, cols)

    labels = [f"{ext.algebra.labels[i0]}|{h}" for i0 in range(n0) for h in elems]

    # (e_i0 | g)(e_j0 | h) = e_i0 gamma_g(e_j0) | gh
    algebra = FiniteAlgebra(labels, [
        [{k0 * nh + h_index[group.mul[(g, h)]]: cf for k0, cf in
          ext.algebra.mul(unit_vec(i0), gamma[g].apply(unit_vec(j0))).items()}
         for j0 in range(n0) for h in elems]
        for i0 in range(n0) for g in elems], ext.algebra.associative)
    base = scalar_extension_wmha(idem)

    def lift(x0: Vec, t: int) -> Vec:
        return {k0 * nh + t: cf for k0, cf in x0.items()}

    d = algebra.dim
    delta = []
    counit: Vec = {}
    s_cols = []
    for i0 in range(n0):
        for t, h in enumerate(elems):
            d0 = base.delta[i0]
            out: Vec = {}
            for p, cf in d0.items():
                p1, p2 = divmod(p, n0)
                out[(p1 * nh + t) * d + (p2 * nh + t)] = cf
            delta.append(out)
            val = base.counit.get(i0)
            if val:
                counit[i0 * nh + t] = val
            hinv = group.inv[h]
            s_cols.append(lift(gamma[hinv].apply(base.antipode.apply(unit_vec(i0))),
                               h_index[hinv]))
    unit_t = h_index[group.identity]
    e_new: Vec = {}
    for p, cf in base.E.items():
        p1, p2 = divmod(p, n0)
        e_new[(p1 * nh + unit_t) * d + (p2 * nh + unit_t)] = cf
    return WeakMultiplierHopfAlgebra(
        algebra=algebra,
        delta=delta,
        counit=counit,
        antipode=LinMap(d, d, s_cols),
        canonical_idempotent=e_new,
    )


def swap_crossed_setup() -> tuple[WeakMultiplierHopfAlgebra, TwistData]:
    """The frozen counit-obstruction corpus instance.

    Base Q^2 with the all-ones separating functional, extended by Z/2
    acting through the coordinate swap.  The twist pair v = p1 + 2 p2,
    u = v^{-1} is certified against the twist condition; v is not
    central in the crossed product (the swap moves it), so the twisted
    coproduct differs and the mixed algebroid's counits split."""
    from .algebra import make_algebra
    from .groupoids import cyclic_group

    b = make_algebra(["p1", "p2"], {(0, 0, 0): 1, (1, 1, 1): 1})
    phi = {0: 1, 1: 1}
    idem = build_E_from_functional(b, phi)
    z2 = cyclic_group(2)
    swap = LinMap.from_entries(2, 2, {(0, 1): 1, (1, 0): 1})
    action = {"g0": LinMap.identity(2), "g1": swap}
    bundle = crossed_scalar_extension_wmha(idem, z2, action)
    # embed v = p1 + 2 p2 from B into the crossed product at the unit
    ext = ScalarExtension(idem)
    nh = 2
    v0 = ext.embed_b({0: 1, 1: 2})
    u0 = ext.embed_b({0: 1, 1: Fraction(1, 2)})
    v = {k0 * nh: cf for k0, cf in v0.items()}
    u = {k0 * nh: cf for k0, cf in u0.items()}
    twist = TwistData(bundle, u, v)
    return bundle, twist


def weighted_m2_twist_setup() -> tuple[WeakMultiplierHopfAlgebra, TwistData]:
    """The frozen nontrivial corpus twist.

    Base M_2 with the separating weighted trace tr(diag(3/2, 3) .);
    v = 1 + e12 and u = sigma^{-1}(v^{-1}) = 1 - 2 e12 make S_B(v) and
    S_C^{-1}(u) mutual inverses while vu = 1 - e12 is not central, so
    the twisted coproduct genuinely differs."""
    from .algebra import matrix_algebra

    m2 = matrix_algebra(2)
    phi = {0: Fraction(3, 2), 3: 3}
    idem = build_E_from_functional(m2, phi)
    bundle = scalar_extension_wmha(idem)
    ext = ScalarExtension(idem)
    v_abs = {0: 1, 1: 1, 3: 1}     # 1 + e12
    u_abs = {0: 1, 1: -2, 3: 1}    # 1 - 2 e12
    twist = TwistData(bundle, ext.embed_b(u_abs), ext.embed_b(v_abs))
    return bundle, twist


def mixed_algebroid(bundle: WeakMultiplierHopfAlgebra,
                    twist: TwistData) -> MultiplierHopfAlgebroid:
    """Left structure of the original bundle paired with the right
    structure of its twist; the antipode is u S(.) u^{-1}."""
    twisted = twist_wmha(bundle, twist)
    left, report_l = forward_construct(bundle)
    if left is None:
        raise AlgebraError("original bundle fails its own suite:\n" + report_l.to_text())
    right, report_r = forward_construct(twisted)
    if right is None:
        raise AlgebraError("twisted bundle fails its own suite:\n" + report_r.to_text())
    alg = bundle.algebra
    d = bundle.dim
    graph = QuantumGraphPair(alg, left.graph.b_view, right.graph.c_view,
                             left.graph.s_b, right.graph.s_c)
    s = bundle.antipode
    u, u_inv = twist.u, twist.u_inv
    s_cols = [alg.mul(u, alg.mul(s.apply(unit_vec(a)), u_inv)) for a in range(d)]
    return MultiplierHopfAlgebroid(
        graph,
        delta_b=[dict(x) for x in bundle.delta],
        delta_c=[dict(x) for x in twisted.delta],
        eps_b=left.eps_b,
        eps_c=right.eps_c,
        antipode=LinMap(d, d, s_cols),
    )

