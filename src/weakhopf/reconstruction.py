"""Rebuilding a weak multiplier Hopf algebra from a multiplier Hopf
algebroid with separable Frobenius base.

Stages, in dependency order: find a separating functional on B whose
modular automorphism is the inverse of S_C S_B and build the
separability idempotent, decided exactly at the first faithful point of
a moment curve through the functionals with that automorphism (the
search is complete, at most k(k-1)+1 points for a k-dimensional space
of them, and its result unique); push the two coproducts into the tensor
square through the idempotent sections; derive the two counits; check
ranges, comultiplicativity of the idempotent, kernels and the mixed
coassociativity laws; finally test equality of the counits and merge.
The first failing stage produces an obstruction report whose witness
re-validates independently.

The rebuilt coproducts Delta = E Delta_B and Delta' = Delta_C E are held
by the shared slice object of ``algebra.CoproductSlices``, which caches
every basis slice once; the counit, range and kernel stages read those
cached slices and the canonical maps built from them.  The range and
kernel stages take the maps E and F_i cut out of A (x) A from
``TensorSquare.projection`` on the algebroid's tensor square, which the
rebuilt bundle holds too, so its final suite finds them there whenever
its E and F_i are exactly equal.  A is unital, so
Delta(a), Delta'(a) and E are honest elements: coassociativity, the
comultiplicativity of E and the final merge Delta = Delta' are each
decided by comparing two elements, and a failure is named by the first
basis triple (or pair) at which the covered form of the identity fails.
"""

from __future__ import annotations

from .algebra import CoproductSlices, FiniteAlgebra, first_failure, multiplicativity
from .algebroid import MultiplierHopfAlgebroid, QuantumGraphPair
from .linalg import LinMap, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vdot, vsub
from .reporting import Report, failed, passed
from .separability import (NotIdempotentE, SeparabilityError,
                           SeparabilityIdempotent, build_E_from_functional,
                           modular_automorphism, pairing_matrix, regular_trace,
                           trace_form_radical)
from .wmha import WeakMultiplierHopfAlgebra, run_suite

STAGE_NOT_SEPARABLE = "NotSeparableFrobenius"
STAGE_MODULAR_MISMATCH = "ModularAutomorphismMismatch"
STAGE_COUNITS_DIFFER = "CounitsDiffer"
STAGE_RANGES = "RangeConditionFailed"
STAGE_KERNELS = "KernelConditionFailed"


class ReconstructionError(ValueError):
    """The input violated the pipeline preconditions (it was not an
    accepted regular multiplier Hopf algebroid)."""


class ObstructionReport:
    def __init__(self, stage: str, witness: dict, narrative: str, report: Report,
                 context: dict | None = None):
        self.stage = stage
        self.witness = witness
        self.narrative = narrative
        self.report = report
        self.context = context or {}

    def __repr__(self):
        return f"ObstructionReport({self.stage})"


class PipelineResult:
    def __init__(self, bundle: WeakMultiplierHopfAlgebra, report: Report,
                 idem: SeparabilityIdempotent, eps: Vec, eps_prime: Vec):
        self.bundle = bundle
        self.report = report
        self.idem = idem
        self.eps = eps
        self.eps_prime = eps_prime


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
    exact on a base with zero trace-form radical, which the pipeline
    checks first:

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
        if pairing_matrix(b, phi).is_bijective():
            break
    else:
        return None
    if modular_automorphism(b, phi) != sigma_target:
        return None
    try:
        return phi, build_E_from_functional(b, phi, c, s_b)
    except NotIdempotentE as exc:
        return _central_rescale(exc, sigma_center(b, sigma_target)[0])
    except SeparabilityError:
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


def check_separability_assumption(alg: MultiplierHopfAlgebroid,
                                  report: Report | None = None):
    """Separating functional with sigma = (S_C S_B)^{-1}, its idempotent
    embedded into A (x) A, or the obstruction."""
    report = report if report is not None else Report("reconstruction")
    graph = alg.graph
    b = graph.b_view.algebra
    c = graph.c_view.algebra
    sigma_target = (graph.s_c @ graph.s_b).inverse()
    rad = trace_form_radical(b)
    if rad.dim:
        report.add(failed("assumption-separable-frobenius",
                          {"radical_element": rad.rows[0]}))
        return ObstructionReport(
            STAGE_NOT_SEPARABLE,
            {"radical_element": rad.rows[0]},
            "the base algebra has nonzero radical, so no separating "
            "functional exists", report)
    found = find_separating_functional(b, sigma_target, s_b=graph.s_b, c=c)
    if found is None:
        witness = {"sigma_target": _matrix_dump(sigma_target),
                   "reference_modular_automorphism": _matrix_dump(
                       modular_automorphism(b, regular_trace(b)))}
        moved = sigma_center(b, sigma_target)[1]
        if moved is not None:
            witness["moved_center_element"] = moved
        report.add(failed("assumption-separable-frobenius", witness))
        return ObstructionReport(
            STAGE_MODULAR_MISMATCH, witness,
            "no faithful functional has the prescribed modular "
            "automorphism", report)
    phi, idem = found
    bad = idem.check_invariants()
    if idem.s_c != graph.s_c or bad:
        witness = {"failed": bad or ["S_C-mismatch"],
                   "sigma_target": _matrix_dump(sigma_target)}
        report.add(failed("assumption-separable-frobenius", witness))
        return ObstructionReport(STAGE_MODULAR_MISMATCH, witness,
                                 "the induced antipodal maps do not match "
                                 "the given ones", report)
    report.add(passed("assumption-separable-frobenius"))
    return idem


def embed_idempotent(graph: QuantumGraphPair, idem: SeparabilityIdempotent) -> Vec:
    """E moved from B (x) C coordinates into A (x) A."""
    return graph.embed(idem.e)


# The rebuilt coproducts are sliced by the one shared slice class.  The
# name stays bound here because the benchmark's per-layer tracer
# (perfbench/tracing.py) counts slice calls under
# reconstruction.RebuiltCoproducts.{r1, r2, l1, l2}.
RebuiltCoproducts = CoproductSlices


def rebuilt_coproducts(alg: MultiplierHopfAlgebroid, e_elt: Vec) -> CoproductSlices:
    """Slices of the induced Delta = E Delta_B (left multiplier) and
    Delta-prime = Delta_C E (right multiplier) on the tensor square."""
    t2 = alg.t2
    return CoproductSlices(t2, [t2.mul(e_elt, x) for x in alg.delta_b],
                           [t2.mul(x, e_elt) for x in alg.delta_c])


def build_delta(alg: MultiplierHopfAlgebroid, e_elt: Vec,
                report: Report) -> CoproductSlices | None:
    """Sections of the balanced coproducts, with homomorphism,
    idempotent absorption and coassociativity verified for each."""
    cops = rebuilt_coproducts(alg, e_elt)
    t2, d = alg.t2, alg.dim
    bad = first_failure((d, d), [multiplicativity(alg.algebra, cops.left, t2.mul),
                                 multiplicativity(alg.algebra, cops.right, t2.mul)])
    if bad is not None:
        pair, k, _, _ = bad
        report.add(failed("rebuilt-coproduct-homomorphism",
                          {"side": ("left", "right")[k], "pair": list(pair)}))
        return None
    for a in range(d):
        da = cops.left[a]
        dpa = cops.right[a]
        if t2.mul(e_elt, da) != da or t2.mul(da, e_elt) != da:
            report.add(failed("rebuilt-coproduct-absorption", {"side": "left", "a": a}))
            return None
        if t2.mul(e_elt, dpa) != dpa or t2.mul(dpa, e_elt) != dpa:
            report.add(failed("rebuilt-coproduct-absorption", {"side": "right", "a": a}))
            return None
    bad = cops.first_coassociativity_failure([("r2", "r1"), ("l2", "l1")])
    if bad is not None:
        a, b, c, k = bad
        report.add(failed("rebuilt-coassociativity",
                          {"side": ("left", "right")[k], "triple": [a, b, c]}))
        return None
    report.add(passed("rebuilt-coproducts"))
    return cops


def build_counits(alg: MultiplierHopfAlgebroid, idem: SeparabilityIdempotent,
                  cops: CoproductSlices, report: Report) -> tuple[Vec, Vec] | None:
    """eps = phi_B o eps_B and eps' = phi_C o eps_C, with the one-sided
    counit laws available before the coproducts merge."""
    graph, d = alg.graph, alg.dim
    alg_a = alg.algebra
    eps: Vec = {}
    eps_prime: Vec = {}
    for a in range(d):
        coords = graph.b_view.to_coords(alg.eps_b.apply(unit_vec(a)))
        if coords is None:
            report.add(failed("rebuilt-counits", {"reason": "eps_B outside B"}))
            return None
        val = vdot(idem.phi_b, coords)
        if val:
            eps[a] = val
        coords_c = graph.c_view.to_coords(alg.eps_c.apply(unit_vec(a)))
        if coords_c is None:
            report.add(failed("rebuilt-counits", {"reason": "eps_C outside C"}))
            return None
        val2 = vdot(idem.phi_c, coords_c)
        if val2:
            eps_prime[a] = val2
    t2 = alg.t2

    def flipped(a, b):
        return alg_a.mul_basis(b, a)

    bad = first_failure((d, d), [
        (lambda a, b: t2.functional_leg1(eps, cops.r2(a, b)), alg_a.mul_basis),
        (lambda a, b: t2.functional_leg2(eps, cops.r1(a, b)), alg_a.mul_basis),
        (lambda a, b: t2.functional_leg2(eps_prime, cops.l1(a, b)), flipped),
        (lambda a, b: t2.functional_leg1(eps_prime, cops.l2(a, b)), flipped)])
    if bad is not None:
        pair, k, _, _ = bad
        functional, law = (("eps", "left"), ("eps", "right"),
                           ("eps-prime", "right"), ("eps-prime", "left"))[k]
        report.add(failed("rebuilt-counit-laws",
                          {"functional": functional, "law": law, "pair": list(pair)}))
        return None
    report.add(passed("rebuilt-counits"))
    return eps, eps_prime


def check_ranges_and_fullness(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                              e_elt: Vec, report: Report) -> bool:
    """The slice spans Delta(A)(1 (x) A) = im T_1, Delta(A)(A (x) 1) =
    im T_4, (1 (x) A)Delta'(A) = im T_3 and (A (x) 1)Delta'(A) = im T_2
    against the ranges of E, then fullness of the legs."""
    t2, d = alg.t2, alg.dim
    left_range = t2.projection(e_elt, "EL").image
    right_range = t2.projection(e_elt, "ER").image
    spans = {name: cops.canonical_image(which)
             for name, which in (("Delta(A)(1xA)", 1), ("Delta(A)(Ax1)", 4),
                                 ("(1xA)Delta'(A)", 3), ("(Ax1)Delta'(A)", 2))}
    for name, want in (("Delta(A)(1xA)", left_range), ("Delta(A)(Ax1)", left_range),
                       ("(1xA)Delta'(A)", right_range), ("(Ax1)Delta'(A)", right_range)):
        if spans[name] != want:
            sep = next((r for r in spans[name].rows if not want.contains(r)), None)
            if sep is None:
                sep = next(r for r in want.rows if not spans[name].contains(r))
            witness = {"space": name, "dim": spans[name].dim,
                       "expected_dim": want.dim, "witness_vector": sep}
            report.add(failed("rebuilt-range-conditions", witness))
            return False
    legs1 = Subspace(d)
    legs2 = Subspace(d)
    for a in range(d):
        for b in range(d):
            x = cops.r2(a, b)
            for vec1 in t2.leg_vectors(x, 1).values():
                legs1.insert(vec1)
            for vec2 in t2.leg_vectors(x, 2).values():
                legs2.insert(vec2)
    if legs1.dim != d or legs2.dim != d:
        report.add(failed("rebuilt-range-conditions",
                          {"space": "fullness", "legs": [legs1.dim, legs2.dim]}))
        return False
    report.add(passed("rebuilt-range-conditions",
                      detail=f"ranges dim {left_range.dim}/{right_range.dim}"))
    return True


def check_E_comultiplicativity(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                               e_elt: Vec, report: Report) -> bool:
    """(id (x) Delta)E = (E (x) 1)(1 (x) E) = (1 (x) E)(E (x) 1), named on
    the left-covered side, and (id (x) Delta')E = (E (x) 1)(1 (x) E) with
    the same order identity, named on the right-covered side.  Each side
    is compared once as an element of A (x) A (x) A; a failure is named
    by the first basis triple covering it on the right resp. the left."""
    t2 = alg.t2
    twice = t2.expand_leg2(e_elt, lambda k: t2.mul_left_leg1(unit_vec(k), e_elt))
    order = vsub(twice, t2.expand_leg2(e_elt, lambda k: t2.mul_right_leg1(e_elt, unit_vec(k))))
    right = ((1, False), (2, False), (3, False))
    left = ((1, True), (2, True), (3, True))
    diffs = [(vsub(t2.expand_leg2(e_elt, lambda k: cops.left[k]), twice), right),
             (order, right),
             (vsub(t2.expand_leg2(e_elt, lambda k: cops.right[k]), twice), left),
             (order, left)]
    if any(z for z, _ in diffs):
        triple, k = t2.first_nonzero_cover(diffs)
        report.add(failed("rebuilt-idempotent-comultiplicative",
                          {"triple": list(triple),
                           "side": ("left-covered", "right-covered")[k // 2]}))
        return False
    report.add(passed("rebuilt-idempotent-comultiplicative"))
    return True


def check_kernels(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                  e_coords: Vec, report: Report) -> bool:
    """ker T_i is the image of id - (twisted F_i projector), with F_i
    built from the idempotent E, given in B (x) C coordinates; decided by
    ``CoproductSlices.kernel_is_complement``, whose success the final
    suite finds again for the same projector."""
    for i in (1, 2, 3, 4):
        name = f"T{i}"
        proj = alg.t2.projection(alg.graph.f_element(i, e_coords), i)
        if not cops.kernel_is_complement(i, proj):
            described, kernel = proj.complement, cops.canonical_kernel(i)
            sep = next((r for r in described.rows if not kernel.contains(r)), None)
            membership = True
            if sep is None:
                sep = next(r for r in kernel.rows if not described.contains(r))
                membership = False
            report.add(failed("rebuilt-kernel-conditions",
                              {"map": name, "described_dim": described.dim,
                               "kernel_dim": kernel.dim,
                               "witness_vector": sep,
                               "described_membership": membership}))
            return False
    report.add(passed("rebuilt-kernel-conditions"))
    return True


def check_mixed_coassociativity(alg: MultiplierHopfAlgebroid,
                                cops: CoproductSlices, report: Report) -> bool:
    bad = cops.first_coassociativity_failure([("r2", "l1"), ("l2", "r1")])
    if bad is not None:
        a, b, c, k = bad
        report.add(failed("mixed-coassociativity",
                          {"equation": ("first", "second")[k], "triple": [a, b, c]}))
        return False
    report.add(passed("mixed-coassociativity"))
    return True


def counit_antipode_meta(alg: MultiplierHopfAlgebroid, eps: Vec, eps_prime: Vec,
                         report: Report) -> bool:
    """eps o S = eps' holds unconditionally, hence eps = eps' exactly
    when eps is invariant under the antipode."""
    d = alg.dim
    eps_s: Vec = {}
    for a in range(d):
        val = vdot(eps, alg.antipode.apply(unit_vec(a)))
        if val:
            eps_s[a] = val
    if eps_s != eps_prime:
        report.add(failed("counit-antipode-transport",
                          {"eps_after_S": eps_s, "eps_prime": eps_prime}))
        return False
    equal = eps == eps_prime
    invariant = eps_s == eps
    if equal == invariant:
        report.add(passed("counit-antipode-invariance-meta",
                          detail=f"equal={equal}, invariant={invariant}"))
        return True
    report.add(failed("counit-antipode-invariance-meta",
                      {"counits_equal": equal, "antipode_invariant": invariant}))
    return False


def reconstruction_pipeline(alg: MultiplierHopfAlgebroid):
    """Full reconstruction: a certified bundle or the first obstruction."""
    report = Report("reconstruction")
    got = check_separability_assumption(alg, report)
    if isinstance(got, ObstructionReport):
        return got
    idem = got
    e_elt = embed_idempotent(alg.graph, idem)
    cops = build_delta(alg, e_elt, report)
    if cops is None:
        raise ReconstructionError(report.to_text())
    built = build_counits(alg, idem, cops, report)
    if built is None:
        raise ReconstructionError(report.to_text())
    eps, eps_prime = built
    if not check_ranges_and_fullness(alg, cops, e_elt, report):
        return ObstructionReport(STAGE_RANGES,
                                 report.records[-1].witness or {},
                                 "a range condition failed", report,
                                 context={"e_elt": e_elt})
    if not check_E_comultiplicativity(alg, cops, e_elt, report):
        raise ReconstructionError(report.to_text())
    if not check_kernels(alg, cops, idem.e, report):
        return ObstructionReport(STAGE_KERNELS,
                                 report.records[-1].witness or {},
                                 "a kernel condition failed", report,
                                 context={"e_elt": e_elt, "e_coords": idem.e})
    if not check_mixed_coassociativity(alg, cops, report):
        raise ReconstructionError(report.to_text())
    if not counit_antipode_meta(alg, eps, eps_prime, report):
        raise ReconstructionError(report.to_text())
    if eps != eps_prime:
        diff = [a for a in range(alg.dim)
                if eps.get(a, 0) != eps_prime.get(a, 0)]
        a = diff[0]
        # "eps" and "eps_prime" are coefficients: see reporting.SCALAR_COEFFICIENTS
        witness = {"basis": alg.algebra.labels[a],
                   "eps": eps.get(a, 0),
                   "eps_prime": eps_prime.get(a, 0),
                   "phi_B": idem.phi_b, "phi_C": idem.phi_c}
        report.add(failed("counit-equality", witness))
        return ObstructionReport(STAGE_COUNITS_DIFFER, witness,
                                 "the two counits disagree, so the two "
                                 "coproducts never merge", report)
    report.add(passed("counit-equality"))
    if cops.left != cops.right:
        raise ReconstructionError("counits agree but the coproducts do not merge")
    report.add(passed("coproducts-merge"))
    # Delta = Delta', so the bundle's slices are those already cut, with
    # their canonical maps, images and kernels, and their tensor square
    # holds the maps the range and kernel stages cut out by E and F_i
    bundle = WeakMultiplierHopfAlgebra(
        algebra=alg.algebra,
        delta=cops.left,
        counit=eps,
        antipode=alg.antipode,
        canonical_idempotent=e_elt,
        slices=cops,
    )
    suite = run_suite(bundle)
    report.extend(suite.records)
    if not suite.ok:
        raise ReconstructionError(report.to_text())
    return PipelineResult(bundle, report, idem, eps, eps_prime)


def _matrix_dump(m: LinMap) -> list[list[str]]:
    return [[str(m.entry(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]
