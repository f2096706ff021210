from fractions import Fraction

import pytest

from weakhopf.algebroid import forward_construct
from weakhopf.examples import (mixed_algebroid, obstruction_scenario,
                               swap_crossed_setup)
from weakhopf.groupoids import as_wmha, pair_groupoid
from weakhopf.reconstruction import (ObstructionReport, RebuiltCoproducts,
                                     STAGE_KERNELS, STAGE_RANGES,
                                     check_kernels,
                                     check_ranges_and_fullness,
                                     rebuilt_coproducts, reconstruction_pipeline)
from weakhopf.reporting import Report
from weakhopf.witnesses import revalidate


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
    honest = rebuilt_coproducts(alg, bundle.E)
    # corrupt one rebuilt coproduct value so the range shrinks
    left = list(honest.left)
    left[0] = {}
    cops = RebuiltCoproducts(alg.t2, left, honest.right)
    got = check_ranges_and_fullness(alg, cops, bundle.E, report)
    assert got is None
    witness = report.records[-1].witness
    assert "witness_vector" in witness
    obstruction = ObstructionReport(STAGE_RANGES, witness, "synthetic",
                                    report, context={"e_elt": bundle.E})
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
    cops = rebuilt_coproducts(bad, bundle.E)
    ok = check_kernels(bad, cops, report)
    assert not ok
    witness = report.records[-1].witness
    assert "witness_vector" in witness
    obstruction = ObstructionReport(STAGE_KERNELS, witness, "synthetic",
                                    report, context={"e_elt": bundle.E})
    assert revalidate(obstruction, bad)
