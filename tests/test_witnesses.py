from fractions import Fraction

import pytest

from weakhopf import io
from weakhopf.algebra import TensorSquare, matrix_algebra
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.examples import (mixed_algebroid, obstruction_scenario,
                               pair_base_algebroid, swap_crossed_setup)
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.linalg import LinMap, unit_vec
from weakhopf.reconstruction import (ObstructionReport, RebuiltCoproducts,
                                     STAGE_KERNELS, STAGE_MODULAR_MISMATCH,
                                     STAGE_RANGES,
                                     check_kernels,
                                     build_delta, check_ranges_and_fullness,
                                     reconstruction_pipeline)
from weakhopf.reporting import Report
from weakhopf.witnesses import revalidate
from weakhopf.wmha import CanonicalMaps


def test_radical_witness_revalidates():
    alg, _ = obstruction_scenario("radical")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport)
    assert revalidate(got, alg)


def test_radical_witness_rejects_tampering():
    alg, _ = obstruction_scenario("radical")
    got = reconstruction_pipeline(alg)
    got.witness["radical_element"] = {0: Fraction(1)}  # the unit: not radical
    assert not revalidate(got, alg)


def test_mismatch_witness_revalidates():
    alg, _ = obstruction_scenario("auto-swap")
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport)
    assert revalidate(got, alg)


@pytest.mark.xfail(strict=True, reason="the normaliser obstruction is reported as a "
                   "modular mismatch, whose witness cannot re-validate")
def test_zero_normaliser_witness_revalidates(tmp_path):
    """sigma = Ad(w), w = diag(1, -1), on the pair-base algebroid of M_2.
    tr(w .) is faithful with modular automorphism sigma, so the constraint
    space has a faithful point; what fails is separability, since the
    normaliser E^2 = (c (x) 1)E is c = tr(w^-1) 1 = 0.  The pipeline still
    names a modular mismatch, whose witness does not re-validate."""
    b = matrix_algebra(2)
    w = {0: 1, 3: -1}
    ad = LinMap(4, 4, [b.mul(w, b.mul(unit_vec(i), w)) for i in range(4)])
    path = tmp_path / "ad-sign.json"
    io.dump(io.algebroid_to_dict(pair_base_algebroid(b, sigma=ad)), str(path))
    alg = io.parse_document(io.load(str(path)))
    assert check_algebroid_axioms(alg).ok
    got = reconstruction_pipeline(alg)
    assert isinstance(got, ObstructionReport)
    assert got.stage == STAGE_MODULAR_MISMATCH
    assert revalidate(got, alg)


def test_counits_witness_revalidates():
    w, twist = swap_crossed_setup()
    mixed = mixed_algebroid(w, twist)
    got = reconstruction_pipeline(mixed)
    assert isinstance(got, ObstructionReport)
    assert revalidate(got, mixed)


def test_counits_witness_rejects_tampering():
    w, twist = swap_crossed_setup()
    mixed = mixed_algebroid(w, twist)
    got = reconstruction_pipeline(mixed)
    got.witness["eps"] = got.witness["eps_prime"]
    assert not revalidate(got, mixed)


@pytest.fixture()
def p2_setup():
    bundle = as_wmha(pair_groupoid(2))
    alg, report = forward_construct(bundle)
    assert report.ok
    return bundle, alg


def test_synthetic_range_failure_revalidates(p2_setup):
    bundle, alg = p2_setup
    report = Report("synthetic")
    honest = build_delta(alg, bundle.E)
    # corrupt one rebuilt coproduct value so the range shrinks
    left = list(honest.left)
    left[0] = {}
    cops = RebuiltCoproducts(alg.t2, left, honest.right)
    assert check_ranges_and_fullness(CanonicalMaps(cops, alg.antipode, bundle.E), report) is False
    witness = report.records[-1].witness
    assert "witness_vector" in witness
    obstruction = ObstructionReport(STAGE_RANGES, witness, "synthetic", report)
    # the original algebroid spans the full range, so the separating
    # vector lies in exactly one side
    assert revalidate(obstruction, _corrupted(alg, 0)) or revalidate(obstruction, alg)


def _corrupted(alg, idx):
    from weakhopf.algebroid import MultiplierHopfAlgebroid
    delta_b = [dict(v) for v in alg.delta_b]
    delta_b[idx] = {}
    return MultiplierHopfAlgebroid(alg.graph, delta_b, alg.delta_c,
                                   alg.eps_b, alg.eps_c, alg.antipode)


def test_synthetic_kernel_failure_revalidates(p2_setup):
    bundle, alg = p2_setup
    bad = _corrupted(alg, 0)
    report = Report("synthetic")
    cops = build_delta(bad, bundle.E)
    assert check_kernels(bad, CanonicalMaps(cops, bad.antipode, bundle.E), report) is False
    witness = report.records[-1].witness
    assert "witness_vector" in witness
    obstruction = ObstructionReport(STAGE_KERNELS, witness, "synthetic", report)
    assert revalidate(obstruction, bad)


def test_kernel_revalidation_is_independent_of_the_projector_kernel(p2_setup, monkeypatch):
    """The kernel-stage witness re-checks through t2.sandwich and the leg
    products, never through the structure-constant kernel that built the
    verdict."""
    bundle, alg = p2_setup
    bad = _corrupted(alg, 0)
    report = Report("synthetic")
    cops = build_delta(bad, bundle.E)
    assert check_kernels(bad, CanonicalMaps(cops, bad.antipode, bundle.E), report) is False
    witness = report.records[-1].witness
    obstruction = ObstructionReport(STAGE_KERNELS, witness, "synthetic", report)

    def refuse(*args, **kwargs):
        raise AssertionError("re-validation used the verdict's projector kernel")

    monkeypatch.setattr(TensorSquare, "projection", refuse)
    monkeypatch.setattr(TensorSquare, "_covered_map", refuse)
    assert revalidate(obstruction, bad)
