"""Rebuilding a weak multiplier Hopf algebra from a multiplier Hopf
algebroid with separable Frobenius base.

Stages, in dependency order: find a separating functional on B whose
modular automorphism is the inverse of S_C S_B and build the
separability idempotent; push the two coproducts into the tensor
square through the idempotent sections; derive the two counits; check
ranges, comultiplicativity of the idempotent, kernels and the mixed
coassociativity laws; finally test equality of the counits and merge.
The first failing stage produces an obstruction report whose witness
re-validates independently.

The rebuilt coproducts E Delta_B and Delta_C E are held by the shared
slice object of ``algebra.CoproductSlices``, which caches every basis
slice once; the coassociativity, counit, range and kernel stages all
read those cached slices and the canonical maps built from them.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .algebra import CoproductSlices, FiniteAlgebra, TensorSquare, opposite_algebra
from .algebroid import MultiplierHopfAlgebroid, QuantumGraphPair
from .linalg import (LinMap, Subspace, Vec, lincomb, solve, unit_vec, vaxpy, vdot, vsub,
                     vtensor)
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
            vaxpy(row, Fraction(-1), b.mul(unit_vec(j), si))
            rows.append(row)
    return LinMap.from_rows(n, rows).kernel()


def central_sigma_fixed_elements(b: FiniteAlgebra, sigma: LinMap) -> Subspace:
    n = b.dim
    rows = []
    for i in range(n):
        centering = b.left_mult(unit_vec(i)) - b.right_mult(unit_vec(i))
        rows.extend(centering.rows())
    fix = sigma - LinMap.identity(n)
    rows.extend(fix.rows())
    return LinMap.from_rows(n, rows).kernel()


def moved_center_witness(b: FiniteAlgebra, sigma: LinMap) -> Vec | None:
    """A central z with sigma(z) != z; then z - sigma(z) annihilates the
    pairing of every functional in the constraint space."""
    n = b.dim
    rows = []
    for i in range(n):
        centering = b.left_mult(unit_vec(i)) - b.right_mult(unit_vec(i))
        rows.extend(centering.rows())
    center = LinMap.from_rows(n, rows).kernel()
    for z in center.rows:
        moved = vsub(z, sigma.apply(z))
        if moved:
            return moved
    return None


def _functional_combinations(space: Subspace, budget: int = 400):
    """Deterministic small-coefficient sweep over a solution space."""
    k = space.dim
    if k == 0:
        return
    coeff_sets = [(1,), (1, -1), (1, -1, 2), (1, -1, 2, -2, 3)]
    seen = 0
    for coeffs in coeff_sets:
        for combo in itertools.product(coeffs, repeat=k):
            phi: Vec = {}
            for c, row in zip(combo, space.rows):
                vaxpy(phi, Fraction(c), row)
            if phi:
                yield phi
                seen += 1
                if seen >= budget:
                    return


def find_separating_functional(b: FiniteAlgebra, sigma_target: LinMap,
                               candidates: list[Vec] = (),
                               s_b: LinMap | None = None,
                               c: FiniteAlgebra | None = None):
    """A separating functional with the prescribed modular automorphism,
    together with its idempotent; None when the sweep finds nothing.

    Candidates are tried first, in caller order.  A functional whose
    idempotent fails only by a central factor is repaired by absorbing
    that factor into the functional.
    """
    space = sigma_constraint_space(b, sigma_target)
    center = central_sigma_fixed_elements(b, sigma_target)

    def attempt(phi: Vec):
        if not pairing_matrix(b, phi).is_bijective():
            return None
        sigma = modular_automorphism(b, phi)
        if sigma != sigma_target:
            return None
        try:
            return phi, build_E_from_functional(b, phi, c, s_b)
        except NotIdempotentE as exc:
            fixed = _central_rescale(b, phi, exc, center, s_b, c)
            if fixed is not None:
                return fixed
        except SeparabilityError:
            pass
        return None

    for phi in candidates:
        got = attempt(dict(phi))
        if got:
            return got
    for phi in _functional_combinations(space):
        got = attempt(phi)
        if got:
            return got
    return None


def _central_rescale(b, phi, exc: NotIdempotentE, center: Subspace,
                     s_b, c):
    """Solve E^2 = (z (x) 1)E over the sigma-fixed center and absorb z
    into the functional.  exc carries the defect E^2 - E."""
    if center.dim == 0:
        return None
    from .separability import dual_basis
    duals = dual_basis(b, phi)
    bc = TensorSquare(b, c if c is not None else opposite_algebra(b))
    ident = s_b if s_b is not None else LinMap.identity(b.dim)
    e: Vec = {}
    for i in range(b.dim):
        vaxpy(e, Fraction(1), bc.tensor(duals[i], ident.apply(unit_vec(i))))
    ee = dict(exc.defect)
    vaxpy(ee, Fraction(1), e)  # E^2 = defect + E
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
        return phi_new, build_E_from_functional(b, phi_new, c, s_b)
    except SeparabilityError:
        return None


def check_separability_assumption(alg: MultiplierHopfAlgebroid,
                        candidates: list[Vec] = (),
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
    found = find_separating_functional(b, sigma_target, candidates,
                                       s_b=graph.s_b, c=c)
    if found is None:
        witness = {"sigma_target": _matrix_dump(sigma_target),
                   "reference_modular_automorphism": _matrix_dump(
                       modular_automorphism(b, regular_trace(b)))}
        moved = moved_center_witness(b, sigma_target)
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
    d = graph.algebra.dim
    nc = idem.c.dim
    out: Vec = {}
    for p, coeff in idem.e.items():
        alpha, beta = divmod(p, nc)
        vaxpy(out, coeff,
              vtensor(graph.b_view.basis[alpha], graph.c_view.basis[beta], d))
    return out


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
    alg_a = alg.algebra
    for i in range(d):
        for j in range(d):
            prod = alg_a.mul_basis(i, j)
            if lincomb(prod, cops.left) != t2.mul(cops.left[i], cops.left[j]):
                report.add(failed("rebuilt-coproduct-homomorphism",
                                  {"side": "left", "pair": [i, j]}))
                return None
            if lincomb(prod, cops.right) != t2.mul(cops.right[i], cops.right[j]):
                report.add(failed("rebuilt-coproduct-homomorphism",
                                  {"side": "right", "pair": [i, j]}))
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
    bad = cops.first_coassociativity_failure(
        [(cops.r2, cops.r1, operator.eq), (cops.l2, cops.l1, operator.eq)])
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
    for a in range(d):
        for b in range(d):
            if t2.functional_leg1(eps, cops.r2(a, b)) != alg_a.mul_basis(a, b):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps", "law": "left", "pair": [a, b]}))
                return None
            if t2.functional_leg2(eps, cops.r1(a, b)) != alg_a.mul_basis(a, b):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps", "law": "right", "pair": [a, b]}))
                return None
            if t2.functional_leg2(eps_prime, cops.l1(a, b)) != alg_a.mul_basis(b, a):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps-prime", "law": "right",
                                   "pair": [a, b]}))
                return None
            if t2.functional_leg1(eps_prime, cops.l2(a, b)) != alg_a.mul_basis(b, a):
                report.add(failed("rebuilt-counit-laws",
                                  {"functional": "eps-prime", "law": "left",
                                   "pair": [a, b]}))
                return None
    report.add(passed("rebuilt-counits"))
    return eps, eps_prime


def check_ranges_and_fullness(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                              e_elt: Vec, report: Report) -> dict | None:
    t2, d = alg.t2, alg.dim
    left_range = t2.left_mult_map(e_elt).image()
    right_range = t2.right_mult_map(e_elt).image()
    spans = {name: Subspace.from_vectors(d * d, (kind(a, b) for a in range(d)
                                                 for b in range(d)))
             for name, kind in (("Delta(A)(1xA)", cops.r2), ("Delta(A)(Ax1)", cops.r1),
                                ("(1xA)Delta'(A)", cops.l2), ("(Ax1)Delta'(A)", cops.l1))}
    for name, want in (("Delta(A)(1xA)", left_range), ("Delta(A)(Ax1)", left_range),
                       ("(1xA)Delta'(A)", right_range), ("(Ax1)Delta'(A)", right_range)):
        if spans[name] != want:
            sep = next((r for r in spans[name].rows if not want.contains(r)), None)
            if sep is None:
                sep = next(r for r in want.rows if not spans[name].contains(r))
            witness = {"space": name, "dim": spans[name].dim,
                       "expected_dim": want.dim, "witness_vector": sep}
            report.add(failed("rebuilt-range-conditions", witness))
            return None
    legs1 = Subspace(d)
    legs2 = Subspace(d)
    for a in range(d):
        for b in range(d):
            x = cops.r2(a, b)
            for p, c in x.items():
                u, v = divmod(p, d)
                legs1.insert({u: c})
                legs2.insert({v: c})
    if legs1.dim != d or legs2.dim != d:
        report.add(failed("rebuilt-range-conditions",
                          {"space": "fullness", "legs": [legs1.dim, legs2.dim]}))
        return None
    report.add(passed("rebuilt-range-conditions",
                      detail=f"ranges dim {left_range.dim}/{right_range.dim}"))
    return {"left": left_range, "right": right_range}


def check_E_comultiplicativity(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                               e_elt: Vec, report: Report) -> bool:
    t2, d = alg.t2, alg.dim
    alg_a = alg.algebra
    for u in range(d):
        eu = unit_vec(u)
        for v in range(d):
            ev = unit_vec(v)
            uv = vtensor(eu, ev, d)
            euv = t2.mul(e_elt, uv)
            uve = t2.mul(uv, e_elt)
            for w in range(d):
                ew = unit_vec(w)
                # left-covered, against Delta
                lhs: Vec = {}
                for p, c in e_elt.items():
                    j, k = divmod(p, d)
                    tail = t2.mul_right_leg1(cops.r2(k, w), ev)
                    if tail:
                        vaxpy(lhs, c, vtensor(alg_a.mul(unit_vec(j), eu), tail, d * d))
                inner = t2.mul(e_elt, vtensor(ev, ew, d))
                rhs: Vec = {}
                for p, c in inner.items():
                    j, k = divmod(p, d)
                    block = t2.mul(e_elt, vtensor(eu, unit_vec(j), d))
                    if block:
                        vaxpy(rhs, c, vtensor(block, unit_vec(k), d))
                rhs2: Vec = {}
                for p, c in euv.items():
                    j, k = divmod(p, d)
                    block2 = t2.mul(e_elt, vtensor(unit_vec(k), ew, d))
                    if block2:
                        vaxpy(rhs2, c, vtensor(unit_vec(j), block2, d * d))
                if lhs != rhs or rhs != rhs2:
                    report.add(failed("rebuilt-idempotent-comultiplicative",
                                      {"triple": [u, v, w], "side": "left-covered"}))
                    return False
                # right-covered, against Delta-prime
                lhsp: Vec = {}
                for p, c in e_elt.items():
                    j, k = divmod(p, d)
                    tail = t2.mul_left_leg1(ev, cops.l2(k, w))
                    if tail:
                        vaxpy(lhsp, c, vtensor(alg_a.mul(eu, unit_vec(j)), tail, d * d))
                rhsp: Vec = {}
                for p, c in uve.items():
                    j, k = divmod(p, d)
                    block = t2.mul(vtensor(unit_vec(k), ew, d), e_elt)
                    if block:
                        vaxpy(rhsp, c, vtensor(unit_vec(j), block, d * d))
                rhsp2: Vec = {}
                inner2 = t2.mul(vtensor(ev, ew, d), e_elt)
                for p, c in inner2.items():
                    j, k = divmod(p, d)
                    block = t2.mul(vtensor(eu, unit_vec(j), d), e_elt)
                    if block:
                        vaxpy(rhsp2, c, vtensor(block, unit_vec(k), d))
                if lhsp != rhsp or rhsp != rhsp2:
                    report.add(failed("rebuilt-idempotent-comultiplicative",
                                      {"triple": [u, v, w], "side": "right-covered"}))
                    return False
    report.add(passed("rebuilt-idempotent-comultiplicative"))
    return True


def check_kernels(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                  report: Report) -> bool:
    t2 = alg.t2
    for i in (1, 2, 3, 4):
        name = f"T{i}"
        projector = t2.twisted_projector(alg.graph.f_element(i), i)
        described = (LinMap.identity(t2.size) - projector).image()
        kernel = cops.canonical_map(i).kernel()
        if described != kernel:
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
    bad = cops.first_coassociativity_failure(
        [(cops.r2, cops.l1, operator.eq), (cops.l2, cops.r1, operator.eq)])
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


def reconstruction_pipeline(alg: MultiplierHopfAlgebroid, candidates: list[Vec] = (),
                     title: str = "reconstruction"):
    """Full reconstruction: a certified bundle or the first obstruction."""
    report = Report(title)
    got = check_separability_assumption(alg, candidates, report)
    if isinstance(got, ObstructionReport):
        return got
    idem = got
    e_elt = embed_idempotent(alg.graph, idem)
    if alg.graph.e_element is None:
        # make the sections available to the quotient machinery downstream
        alg.graph.e_element = dict(e_elt)
        alg.graph.e_coords = dict(idem.e)
    cops = build_delta(alg, e_elt, report)
    if cops is None:
        raise ReconstructionError(report.to_text())
    built = build_counits(alg, idem, cops, report)
    if built is None:
        raise ReconstructionError(report.to_text())
    eps, eps_prime = built
    if check_ranges_and_fullness(alg, cops, e_elt, report) is None:
        return ObstructionReport(STAGE_RANGES,
                                 report.records[-1].witness or {},
                                 "a range condition failed", report,
                                 context={"e_elt": e_elt})
    if not check_E_comultiplicativity(alg, cops, e_elt, report):
        raise ReconstructionError(report.to_text())
    if not check_kernels(alg, cops, report):
        return ObstructionReport(STAGE_KERNELS,
                                 report.records[-1].witness or {},
                                 "a kernel condition failed", report,
                                 context={"e_elt": e_elt})
    if not check_mixed_coassociativity(alg, cops, report):
        raise ReconstructionError(report.to_text())
    if not counit_antipode_meta(alg, eps, eps_prime, report):
        raise ReconstructionError(report.to_text())
    if eps != eps_prime:
        diff = [a for a in range(alg.dim)
                if eps.get(a, Fraction(0)) != eps_prime.get(a, Fraction(0))]
        a = diff[0]
        witness = {"basis": alg.algebra.labels[a],
                   "eps": eps.get(a, Fraction(0)),
                   "eps_prime": eps_prime.get(a, Fraction(0)),
                   "phi_B": idem.phi_b, "phi_C": idem.phi_c}
        report.add(failed("counit-equality", witness))
        return ObstructionReport(STAGE_COUNITS_DIFFER, witness,
                                 "the two counits disagree, so the two "
                                 "coproducts never merge", report)
    report.add(passed("counit-equality"))
    t2, d = alg.t2, alg.dim
    for a in range(d):
        for b in range(d):
            eb = unit_vec(b)
            x = cops.r2(a, b)
            for c in range(d):
                ec = unit_vec(c)
                if t2.mul_left_leg1(ec, x) != t2.mul_right_leg2(cops.l1(a, c), eb):
                    raise ReconstructionError(
                        "counits agree but the coproducts do not merge")
    report.add(passed("coproducts-merge"))
    bundle = WeakMultiplierHopfAlgebra(
        algebra=alg.algebra,
        delta=cops.left,
        counit=eps,
        antipode=alg.antipode,
        canonical_idempotent=e_elt,
    )
    suite = run_suite(bundle, title=f"{title}/wmha-suite")
    report.extend(suite.records)
    if not suite.ok:
        raise ReconstructionError(report.to_text())
    return PipelineResult(bundle, report, idem, eps, eps_prime)


def _matrix_dump(m: LinMap) -> list[list[str]]:
    return [[str(m.entry(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]
