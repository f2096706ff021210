"""Rebuilding a weak multiplier Hopf algebra from a multiplier Hopf
algebroid with separable Frobenius base.

Stages, in dependency order.  ``check_separability_assumption`` takes
the separating functional on B whose modular automorphism is the
inverse of S_C S_B, with its idempotent E, from the graph pair
(``QuantumGraphPair.separability``), or ends in its obstruction.
``embed_idempotent``, ``build_delta`` and ``build_counits`` only build:
E in A (x) A, the slices of Delta = E Delta_B and Delta' = Delta_C E,
and eps = phi_B o eps_B, eps' = phi_C o eps_C.  The range and kernel
stages end in their own obstructions; ``check_E_comultiplicativity``,
``check_mixed_coassociativity`` and ``counit_antipode_meta`` only
check.  Then ``counit-equality`` ends in ``CounitsDiffer`` or the two
coproducts merge.  Each obstruction's witness re-validates
independently (``witnesses.revalidate``).  The final ``wmha.run_suite``
on the merged bundle decides the rest for Delta = Delta' and eps = eps',
among it ``coproduct-homomorphism``, ``canonical-idempotent-identities``,
``coproduct-coassociativity`` and ``counit-laws``.  After a passing
``check-algebroid``, any other failure is a ``ReconstructionError``.

The slices are held by ``slices.CoproductSlices``, which caches each
once.  ``reconstruction_pipeline`` builds the ``wmha.CanonicalMaps`` of
the rebuilt slices and E ``over`` the algebroid's maps, so S is inverted
and its anti-multiplicativity scanned once, and hands it to the range
stage, the kernel stage and the rebuilt bundle.  The stages take the
range and kernel decisions from it, proved in the ``wmha`` docstring,
and only format their records; the final suite's certificate,
``canonical-idempotent-identities``, ``projection-formulas`` and
``kernel-subspaces`` read what the stages computed.  Only echelon
forms name witnesses, so the reports do not depend on the path.

The kernel stage cuts P_i out by the graph pair's F_i (``f_element``:
S_B, S_C or an inverse moved through E's coordinates in B (x) C), the
maps by S or S^-1 moved through a leg of E.  On an accepted input the
two are equal, so they cut out one memoized map and the decision
certifies it with the maps' comparisons: E = ``graph.embed(idem.e)``
lies in B (x) C, and S restricts to S_B on B and to S_C on C, by
``antipode-restriction`` after ``check-algebroid`` and, on a round trip,
because the base suite takes S_B and S_C as S restricted
(``b_view.restrict(s, c_view)``); S_B and S_C being bijective, S^-1
restricts to S_B^-1 on C and S_C^-1 on B.  Where they differ,
``CoproductSlices.kernel_is_complement`` decides.

A is unital, so Delta(a), Delta'(a) and E are honest elements: the
comultiplicativity of E, mixed coassociativity and the merge are each
decided by comparing two elements, and a failure is named by the first
basis triple (or pair) at which the covered form of the identity fails.
"""

from __future__ import annotations

from .algebra import first_failure
from .algebroid import MultiplierHopfAlgebroid, QuantumGraphPair
from .io import encode_matrix
from .linalg import Vec, unit_vec, vdot, vec_from, vsub
from .reporting import Report, failed, passed
from .slices import CoproductSlices
# find_separating_functional is only bound here: the benchmark's tracer
# (perfbench/tracing.py) times it as reconstruction.find_separating_functional
from .separability import (SeparabilityIdempotent, find_separating_functional,  # noqa: F401
                           modular_automorphism, regular_trace, sigma_center)
from .wmha import CanonicalMaps, WeakMultiplierHopfAlgebra, run_suite

STAGE_NOT_SEPARABLE = "NotSeparableFrobenius"
STAGE_MODULAR_MISMATCH = "ModularAutomorphismMismatch"
STAGE_COUNITS_DIFFER = "CounitsDiffer"
STAGE_RANGES = "RangeConditionFailed"
STAGE_KERNELS = "KernelConditionFailed"

# which -> the slice span im T_which, in the order the range stage asks
RANGE_SPACES = {1: "Delta(A)(1xA)", 4: "Delta(A)(Ax1)", 3: "(1xA)Delta'(A)",
                2: "(Ax1)Delta'(A)"}


class ReconstructionError(ValueError):
    """The input violated the pipeline preconditions (it was not an
    accepted regular multiplier Hopf algebroid)."""


class ObstructionReport:
    def __init__(self, stage: str, witness: dict, narrative: str, report: Report):
        self.stage = stage
        self.witness = witness
        self.narrative = narrative
        self.report = report

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


def check_separability_assumption(alg: MultiplierHopfAlgebroid,
                                  report: Report | None = None):
    """The idempotent of the separating functional with sigma =
    (S_C S_B)^{-1}, as the graph pair found it, or the obstruction."""
    report = report if report is not None else Report("reconstruction")
    graph = alg.graph
    b = graph.b_view.algebra
    sigma_target = (graph.s_c @ graph.s_b).inverse()
    rad, found = graph.separability
    if rad.dim:
        stage, witness = STAGE_NOT_SEPARABLE, {"radical_element": rad.rows[0]}
        narrative = "the base algebra has nonzero radical, so no separating functional exists"
    elif found is None:
        stage = STAGE_MODULAR_MISMATCH
        witness = {"sigma_target": encode_matrix(sigma_target),
                   "reference_modular_automorphism": encode_matrix(
                       modular_automorphism(b, regular_trace(b)))}
        moved = sigma_center(b, sigma_target)[1]
        if moved is not None:
            witness["moved_center_element"] = moved
        narrative = "no faithful functional has the prescribed modular automorphism"
    elif graph.e_coords is None:
        stage = STAGE_MODULAR_MISMATCH
        witness = {"failed": found[1].check_invariants() or ["S_C-mismatch"],
                   "sigma_target": encode_matrix(sigma_target)}
        narrative = "the induced antipodal maps do not match the given ones"
    else:
        report.add(passed("assumption-separable-frobenius"))
        return found[1]
    report.add(failed("assumption-separable-frobenius", witness))
    return ObstructionReport(stage, witness, narrative, report)


def embed_idempotent(graph: QuantumGraphPair, idem: SeparabilityIdempotent) -> Vec:
    """E moved from B (x) C coordinates into A (x) A."""
    return graph.embed(idem.e)


# The rebuilt coproducts are sliced by the one shared slice class.  The
# name stays bound here because the benchmark's per-layer tracer
# (perfbench/tracing.py) counts slice calls under
# reconstruction.RebuiltCoproducts.{r1, r2, l1, l2}.
RebuiltCoproducts = CoproductSlices


def build_delta(alg: MultiplierHopfAlgebroid, e_elt: Vec) -> CoproductSlices:
    """Slices of the induced Delta = E Delta_B (left multiplier) and
    Delta' = Delta_C E (right multiplier) on the tensor square.

    Their homomorphism, absorption and coassociativity laws are the
    final suite's ``coproduct-homomorphism``,
    ``canonical-idempotent-identities`` and
    ``coproduct-coassociativity``, decided on Delta = Delta'."""
    t2 = alg.t2
    return CoproductSlices(t2, [t2.mul(e_elt, x) for x in alg.delta_b],
                           [t2.mul(x, e_elt) for x in alg.delta_c])


def build_counits(alg: MultiplierHopfAlgebroid, idem: SeparabilityIdempotent) -> tuple[Vec, Vec]:
    """eps = phi_B o eps_B and eps' = phi_C o eps_C.

    Their counit laws are the final suite's ``counit-laws``, decided on
    eps = eps' and Delta = Delta'.  The ``ReconstructionError`` for
    eps_B(A) outside B is unreachable after a passing
    ``check-algebroid``: its ``left-counital-image`` record holds only
    when the columns eps_B(e_a) span B, so each lies in B and has
    coordinates there; ``right-counital-image`` does the same for eps_C
    and C."""
    graph, counits = alg.graph, []
    for side, view, m, phi in (("B", graph.b_view, alg.eps_b, idem.phi_b),
                               ("C", graph.c_view, alg.eps_c, idem.phi_c)):
        coords = [view.to_coords(col) for col in m.cols]
        if None in coords:
            raise ReconstructionError(f"eps_{side} outside {side}")
        counits.append(vec_from((a, vdot(phi, x)) for a, x in enumerate(coords)))
    return tuple(counits)


def check_ranges_and_fullness(maps: CanonicalMaps, report: Report) -> bool:
    """The slice spans Delta(A)(1 (x) A) = im T_1, Delta(A)(A (x) 1) =
    im T_4, (1 (x) A)Delta'(A) = im T_3 and (A (x) 1)Delta'(A) = im T_2
    against the ranges of E.

    Once they hold, the legs are full: both leg spans of the slices
    r2(a, b), which span im T_1, are A, so fullness is not checked
    again.  Write E = sum x_i (x) y_i with x_i in B and y_i in C; the
    graph pair holds E only when the invariants in the ``balanced``
    docstring hold, and there 1_B = 1_C = 1_A.  im T_1 = E(A (x) A)
    contains E(a (x) 1) and E(1 (x) b).  For any functional f on A
    extending phi_C, integral-C gives (id (x) f)(E(a (x) 1)) =
    sum x_i a phi_C(y_i) = a, so every a lies in the first leg span; for
    any f extending phi_B, integral-B gives (f (x) id)(E(1 (x) b)) = b,
    so every b lies in the second.

    Decided by ``CanonicalMaps.range_failure``; a failure is named by a
    vector of one subspace outside the other."""
    bad = maps.range_failure(RANGE_SPACES)
    if bad is not None:
        which, got, want = bad
        report.add(failed("rebuilt-range-conditions",
                          {"space": RANGE_SPACES[which], "dim": got.dim,
                           "expected_dim": want.dim, "witness_vector": _separating(got, want)[0]}))
        return False
    report.add(passed("rebuilt-range-conditions",
                      detail="ranges dim {}/{}".format(*maps.range_dims)))
    return True


def _separating(first, second) -> tuple[Vec, bool]:
    """A row of first's echelon basis outside second, with True, else
    one of second's outside first, with False."""
    sep = next((r for r in first.rows if not second.contains(r)), None)
    if sep is not None:
        return sep, True
    return next(r for r in second.rows if not first.contains(r)), False


def check_E_comultiplicativity(alg: MultiplierHopfAlgebroid, cops: CoproductSlices,
                               e_elt: Vec, report: Report) -> bool:
    """(id (x) Delta)E = (E (x) 1)(1 (x) E), named on the left-covered
    side, and (id (x) Delta')E = (E (x) 1)(1 (x) E), named on the
    right-covered side.  Each side is compared once as an element of
    A (x) A (x) A; a failure is named by the first basis triple covering
    it on the right resp. the left.

    The order identity (E (x) 1)(1 (x) E) = (1 (x) E)(E (x) 1) is not
    compared, because it holds after a passing ``check-algebroid``, by
    the argument of ``TripleQuotient.contains``: E = ``graph.embed(idem.e)``
    lies in B (x) C, say E = sum b_i (x) c_i, so the two sides are
    sum b_i (x) c_i b_j (x) c_j and sum b_i (x) b_j c_i (x) c_j, and
    ``bases-commute`` gives c_i b_j = b_j c_i."""
    t2 = alg.t2
    twice = t2.expand_leg2(e_elt, lambda k: t2.mul_left_leg1(unit_vec(k), e_elt))
    diffs = [(vsub(t2.expand_leg2(e_elt, lambda k: cops.left[k]), twice),
              ((1, False), (2, False), (3, False))),
             (vsub(t2.expand_leg2(e_elt, lambda k: cops.right[k]), twice),
              ((1, True), (2, True), (3, True)))]
    if any(z for z, _ in diffs):
        triple, k = t2.first_nonzero_cover(diffs)
        report.add(failed("rebuilt-idempotent-comultiplicative",
                          {"triple": list(triple),
                           "side": ("left-covered", "right-covered")[k]}))
        return False
    report.add(passed("rebuilt-idempotent-comultiplicative"))
    return True


def check_kernels(alg: MultiplierHopfAlgebroid, maps: CanonicalMaps, report: Report) -> bool:
    """ker T_i is the image of id - P_i, P_i cut out by the graph pair's
    F_i, by ``CanonicalMaps.kernel_is_complement``."""
    for i in (1, 2, 3, 4):
        proj = maps.t2.projection(alg.graph.f_element(i), i)
        if not maps.kernel_is_complement(i, proj):
            described, kernel = proj.complement, maps.slices.canonical_kernel(i)
            sep, membership = _separating(described, kernel)
            report.add(failed("rebuilt-kernel-conditions",
                              {"map": f"T{i}", "described_dim": described.dim,
                               "kernel_dim": kernel.dim, "witness_vector": sep,
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
    # eps o S = eps' now, so eps = eps' and eps o S = eps are one comparison
    equal = eps == eps_prime
    report.add(passed("counit-antipode-invariance-meta",
                      detail=f"equal={equal}, invariant={equal}"))
    return True


def reconstruction_pipeline(alg: MultiplierHopfAlgebroid):
    """Full reconstruction: a certified bundle or the first obstruction."""
    report = Report("reconstruction")
    got = check_separability_assumption(alg, report)
    if isinstance(got, ObstructionReport):
        return got
    idem = got
    e_elt = embed_idempotent(alg.graph, idem)
    cops = build_delta(alg, e_elt)
    eps, eps_prime = build_counits(alg, idem)
    maps = alg.maps.over(cops, e_elt)
    if not check_ranges_and_fullness(maps, report):
        return ObstructionReport(STAGE_RANGES, report.records[-1].witness,
                                 "a range condition failed", report)
    if not check_E_comultiplicativity(alg, cops, e_elt, report):
        raise ReconstructionError(report.to_text())
    if not check_kernels(alg, maps, report):
        return ObstructionReport(STAGE_KERNELS, report.records[-1].witness,
                                 "a kernel condition failed", report)
    if not check_mixed_coassociativity(alg, cops, report):
        raise ReconstructionError(report.to_text())
    if not counit_antipode_meta(alg, eps, eps_prime, report):
        raise ReconstructionError(report.to_text())
    bad = first_failure((alg.dim,), [(lambda a: eps.get(a, 0), lambda a: eps_prime.get(a, 0))])
    if bad is not None:
        (a,), _, value, value_prime = bad
        # "eps" and "eps_prime" are coefficients: see reporting.SCALAR_COEFFICIENTS
        witness = {"basis": alg.algebra.labels[a], "eps": value, "eps_prime": value_prime,
                   "phi_B": idem.phi_b, "phi_C": idem.phi_c}
        report.add(failed("counit-equality", witness))
        return ObstructionReport(STAGE_COUNITS_DIFFER, witness,
                                 "the two counits disagree, so the two "
                                 "coproducts never merge", report)
    report.add(passed("counit-equality"))
    if cops.left != cops.right:
        raise ReconstructionError("counits agree but the coproducts do not merge")
    report.add(passed("coproducts-merge"))
    # Delta = Delta', so the bundle's maps are the stages': its final
    # suite reads their comparisons, slices, images and cut maps
    bundle = WeakMultiplierHopfAlgebra(algebra=alg.algebra, delta=cops.left, counit=eps,
                                       antipode=alg.antipode, canonical_idempotent=e_elt,
                                       maps=maps)
    suite = run_suite(bundle)
    report.extend(suite.records)
    if not suite.ok:
        raise ReconstructionError(report.to_text())
    return PipelineResult(bundle, report, idem, eps, eps_prime)

