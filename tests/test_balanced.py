import pytest

from weakhopf.algebroid import forward_construct
from weakhopf.balanced import KINDS, TripleQuotient, build_balanced
from weakhopf.groupoids import (as_wmha, cyclic_group, group_groupoid,
                                pair_groupoid)
from weakhopf.linalg import LinMap, unit_vec, vtensor


@pytest.fixture(scope="module")
def p2_graph():
    alg, report = forward_construct(as_wmha(pair_groupoid(2)))
    assert report.ok
    return alg.graph


@pytest.fixture(scope="module")
def hopf_graph():
    alg, report = forward_construct(as_wmha(group_groupoid(cyclic_group(2))))
    assert report.ok
    return alg.graph


def test_all_kinds_split_p2(p2_graph):
    for kind in KINDS:
        space = build_balanced(kind, p2_graph)
        assert space.pi @ space.theta == LinMap.identity(space.q_dim), kind
        assert space.q_dim + space.relations.dim == 16


def test_left_quotient_dimension_is_composable_count(p2_graph):
    # dim E(AxA) = number of composable pairs = 8 for the 2-point case
    space = build_balanced("l", p2_graph)
    assert space.q_dim == 8
    assert space.image.dim == 8


def test_s_quotient_dimension(p2_graph):
    assert build_balanced("s", p2_graph).q_dim == 8


def test_right_quotient_image(p2_graph):
    space = build_balanced("r", p2_graph)
    assert space.image.dim == 8


def test_hopf_case_quotients_are_everything(hopf_graph):
    for kind in KINDS:
        space = build_balanced(kind, hopf_graph)
        assert space.relations.dim == 0
        assert space.q_dim == 4


def test_projector_kills_relations_and_fixes_image(p2_graph):
    space = build_balanced("l", p2_graph)
    for rel in space.relations.rows:
        assert space.projector.apply(rel) == {}
    for img in space.image.rows:
        assert space.projector.apply(img) == img


def test_quotient_classes(p2_graph):
    # x a (x) b and a (x) S_B(x) b have the same class in the l-quotient
    t2 = p2_graph.t2
    x = p2_graph.b_elements()[0]
    sx = p2_graph.s_b_element(0)
    a, b = unit_vec(0), unit_vec(2)
    plain = vtensor(a, b, 4)
    lhs = t2.mul_left_leg1(x, plain)
    rhs = t2.mul_left_leg2(sx, plain)
    space = build_balanced("l", p2_graph)
    assert space.equivalent(lhs, rhs)


def test_triple_quotient_soundness(p2_graph):
    tq = TripleQuotient(p2_graph, "l", "l")
    d = 4
    # genuine relators are recognized
    for rel in tq.space12.relations.rows:
        assert tq.contains(vtensor(rel, unit_vec(1), d))
    for rel in tq.space23.relations.rows:
        lifted = {1 * d * d + p: c for p, c in rel.items()}
        assert tq.contains(lifted)
    # a random basis vector is not a relator
    probe = vtensor(vtensor(unit_vec(0), unit_vec(0), d), unit_vec(0), d)
    assert not tq.contains(probe)


def test_ranges_of_sections_match_idempotent_images(p2_graph):
    t2 = p2_graph.t2
    left = t2.left_mult_map(p2_graph.e_element).image()
    right = t2.right_mult_map(p2_graph.e_element).image()
    assert build_balanced("l", p2_graph).image == left
    assert build_balanced("r", p2_graph).image == right
    assert left.dim == 8 and right.dim == 8
