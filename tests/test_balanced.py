import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from test_functional_search import semisimple_bases

from weakhopf import algebroid, balanced, io
from weakhopf.algebroid import check_algebroid_axioms, forward_construct
from weakhopf.algebra import TensorSquare, direct_sum, field_algebra, matrix_algebra
from weakhopf.balanced import (KINDS, TripleQuotient, build_balanced, relation_generators,
                               relation_space)
from weakhopf.cli import main
from weakhopf.examples import (mixed_algebroid, obstruction_scenario, pair_base_algebroid,
                               scalar_extension_wmha, swap_crossed_setup)
from weakhopf.groupoids import (as_wmha, cyclic_group, group_groupoid,
                                pair_groupoid)
from weakhopf.linalg import LinMap, Subspace, unit_vec, vsub, vtensor
from weakhopf.separability import build_E_from_functional


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


def test_all_kinds_split_p2(p2_graph, loaded_algebroids):
    # with sections, and from the file-loaded pair-2 through its relations:
    # P is idempotent, and rank P = dim im P = 16 - dim R
    for graph in (p2_graph, loaded_algebroids["pair-2"].graph):
        for kind in KINDS:
            space = build_balanced(kind, graph)
            assert all(space.project(space.column(j)) == space.column(j)
                       for j in range(16)), kind
            assert space.q_dim == space.image.dim, kind
            assert space.q_dim + relation_space(kind, graph).dim == 16


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
        assert relation_space(kind, hopf_graph).dim == 0
        assert space.q_dim == 4


def test_projector_kills_relations_and_fixes_image(p2_graph):
    space = build_balanced("l", p2_graph)
    for rel in relation_space("l", p2_graph).rows:
        assert space.projector.apply(rel) == {}
    for img in space.image.rows:
        assert space.projector.apply(img) == img


def _tensor_square_of_dim(n):
    """The tensor square of the n-dimensional algebra Q^n."""
    alg = field_algebra()
    for _ in range(n - 1):
        alg = direct_sum(alg, field_algebra())
    return TensorSquare(alg)


def test_quotient_dimension_rank_nullity(loaded_algebroids):
    """On the relation path the quotient coordinates, those of P(x) over
    the echelon basis of im P, are a map onto Q^q_dim whose kernel is
    exactly R: for a relation space given directly, and for every kind
    of the file-loaded algebroids."""
    sub = Subspace.from_vectors(4, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}])
    spaces = [balanced.BalancedTensorSpace("l", _tensor_square_of_dim(2), sub, None)]
    spaces += [alg.graph.balanced(kind) for alg in loaded_algebroids.values() for kind in KINDS]
    for space in spaces:
        size = space.t2.size
        assert space.image.rows == [unit_vec(f) for f in range(size)
                                    if f not in space.relations.pivots]
        coords = LinMap(space.image.dim, size, [space.image.coords(space.project(unit_vec(j)))
                                                for j in range(size)])
        assert coords.nrows == space.q_dim == size - space.relations.dim
        assert coords.kernel() == space.relations
    assert spaces[0].q_dim == 2


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
    relations = relation_space("l", p2_graph).rows
    for rel in relations:
        assert tq.contains(vtensor(rel, unit_vec(1), d))
    for rel in relations:
        lifted = {1 * d * d + p: c for p, c in rel.items()}
        assert tq.contains(lifted)
    # a random basis vector is not a relator
    probe = vtensor(vtensor(unit_vec(0), unit_vec(0), d), unit_vec(0), d)
    assert not tq.contains(probe)


def test_ranges_of_sections_match_idempotent_images(p2_graph):
    """The section images equal E(A (x) A) and (A (x) A)E, spanned here
    by leg products rather than by the maps the sections are read from."""
    t2, e = p2_graph.t2, p2_graph.e_element
    left = Subspace.from_vectors(t2.size, (t2.mul(e, unit_vec(j)) for j in range(t2.size)))
    right = Subspace.from_vectors(t2.size, (t2.mul(unit_vec(j), e) for j in range(t2.size)))
    assert build_balanced("l", p2_graph).image == left
    assert build_balanced("r", p2_graph).image == right
    assert left.dim == 8 and right.dim == 8


def _file_loaded(alg):
    """The algebroid as read back from its definition file, held on the
    relation path: its graph pair's search for a separating functional is
    replaced by one that finds nothing, so the pair has no idempotent and
    its balanced products no sections."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebroid, "find_separating_functional", lambda *args: None)
        loaded = io.parse_document(io.algebroid_to_dict(alg))
        assert loaded.graph.e_element is None
    return loaded


@pytest.fixture(scope="module")
def loaded_algebroids():
    p2 = _file_loaded(forward_construct(as_wmha(pair_groupoid(2)))[0])
    twist = _file_loaded(mixed_algebroid(*swap_crossed_setup()))
    return {"pair-2": p2, "counit-twist": twist}


def _reference_relations(graph, kind12, kind23) -> Subspace:
    """R12 (x) A + A (x) R23 by direct insertion in A (x) A (x) A."""
    d = graph.algebra.dim
    ref = Subspace(d ** 3)
    for rel in graph.balanced(kind12).relations.rows:
        for k in range(d):
            ref.insert(vtensor(rel, unit_vec(k), d))
    for rel in graph.balanced(kind23).relations.rows:
        for i in range(d):
            ref.insert({i * d * d + p: c for p, c in rel.items()})
    return ref


@pytest.mark.parametrize("name", ["pair-2", "counit-twist"])
@pytest.mark.parametrize("kinds", [("l", "l"), ("r", "r"), ("r", "l"), ("l", "r")])
def test_triple_membership_matches_reference_without_sections(loaded_algebroids, name, kinds):
    graph = loaded_algebroids[name].graph
    d = graph.algebra.dim
    tq = TripleQuotient(graph, *kinds)
    assert tq._small
    ref = _reference_relations(graph, *kinds)
    generators = [vtensor(rel, unit_vec(k), d)
                  for rel in tq.space12.relations.rows for k in range(d)]
    generators += [{i * d * d + p: c for p, c in rel.items()}
                   for rel in tq.space23.relations.rows for i in range(d)]
    basis = [unit_vec(j) for j in range(d ** 3)]
    rng = random.Random(5)
    combos = []
    for _ in range(40):
        v = {rng.randrange(d ** 3): Fraction(rng.randint(-3, 3)) for _ in range(5)}
        combos.append({p: c for p, c in v.items() if c})
    # integer sums of generators lie in the space
    for _ in range(10):
        v = {}
        for g in rng.sample(generators, 3):
            for p, c in g.items():
                v[p] = v.get(p, 0) + rng.randint(1, 3) * c
        combos.append({p: c for p, c in v.items() if c})
    members = 0
    for x in generators + basis + combos:
        want = ref.contains(x)
        assert tq.contains(x) == want, (name, kinds, x)
        members += want
    assert 0 < members < len(generators) + len(basis) + len(combos)


def test_triple_quotient_reuses_graph_spaces(monkeypatch):
    alg = _file_loaded(forward_construct(as_wmha(pair_groupoid(2)))[0])
    graph = alg.graph
    for k12, k23 in (("l", "l"), ("r", "l")):
        tq = graph.triple(k12, k23)
        assert tq.space12 is graph.balanced(k12)
        assert tq.space23 is graph.balanced(k23)
    fresh = _file_loaded(alg)
    calls = []
    original = balanced.build_balanced

    def counting(kind, graph):
        calls.append(kind)
        return original(kind, graph)

    monkeypatch.setattr(balanced, "build_balanced", counting)
    monkeypatch.setattr(algebroid, "build_balanced", counting)
    assert check_algebroid_axioms(fresh).ok
    assert len(calls) <= 6, calls


def _leg_product_relators(kind, graph):
    """The relators as the two sides of the defining relation, each a
    leg product with a basis tensor e_a (x) e_b."""
    t2, d = graph.t2, graph.algebra.dim
    if kind in ("l", "s", "s-up"):
        outer = [(x, graph.s_b_element(i)) for i, x in enumerate(graph.b_elements())]
    else:
        outer = [(y, graph.s_c_element(j)) for j, y in enumerate(graph.c_elements())]
    sides = {
        "l": lambda w, sw, p: (t2.mul_left_leg1(w, p), t2.mul_left_leg2(sw, p)),
        "r": lambda w, sw, p: (t2.mul_right_leg2(p, w), t2.mul_right_leg1(p, sw)),
        "s": lambda w, sw, p: (t2.mul_right_leg1(p, w), t2.mul_left_leg2(w, p)),
        "t": lambda w, sw, p: (t2.mul_left_leg2(w, p), t2.mul_right_leg1(p, w)),
        "s-up": lambda w, sw, p: (t2.mul_left_leg1(w, p), t2.mul_right_leg2(p, w)),
        "t-up": lambda w, sw, p: (t2.mul_right_leg2(p, w), t2.mul_left_leg1(w, p)),
    }[kind]
    gens = []
    for a in range(d):
        for b in range(d):
            plain = vtensor(unit_vec(a), unit_vec(b), d)
            for w, sw in outer:
                gens.append(vsub(*sides(w, sw, plain)))
    return gens


@pytest.fixture(scope="module")
def base_m2_graph():
    idem = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
    alg, report = forward_construct(scalar_extension_wmha(idem))
    assert report.ok
    return alg.graph


@pytest.mark.parametrize("kind", KINDS)
def test_relators_from_structure_constants_match_leg_products(
        kind, loaded_algebroids, base_m2_graph):
    for graph in (loaded_algebroids["counit-twist"].graph, base_m2_graph):
        size = graph.t2.size
        assert (Subspace.from_vectors(size, relation_generators(kind, graph))
                == Subspace.from_vectors(size, _leg_product_relators(kind, graph))), kind


# covers each triple space must be closed under, as (left on leg 1, left on
# leg 3): the sides the coassociativity and compatibility equations cover
EQUATION_SIDES = {("l", "l"): (False, False), ("r", "r"): (True, True),
                  ("r", "l"): (True, False), ("l", "r"): (False, True)}


@pytest.fixture(scope="module", params=["pair-2", "base-m2-weighted", "crossed-swap"])
def both_paths(request):
    """A forward-built algebroid (section path) and the same algebroid
    read back from its file (relation path)."""
    if request.param == "pair-2":
        bundle = as_wmha(pair_groupoid(2))
    elif request.param == "crossed-swap":
        bundle = swap_crossed_setup()[0]
    else:
        idem = build_E_from_functional(matrix_algebra(2), {0: Fraction(3, 2), 3: Fraction(3)})
        bundle = scalar_extension_wmha(idem)
    alg, report = forward_construct(bundle)
    assert report.ok
    return request.param, alg, _file_loaded(alg)


def test_triple_spaces_are_closed_under_equation_covers(both_paths):
    """Seeded combinations of generators of R12 (x) A and A (x) R23 stay in
    the triple space under every basis cover on the equation's sides.
    Covers on the other sides leave it, except over the commutative
    pair-2, where left and right covers agree."""
    name, *algs = both_paths
    escapes = []
    for alg in algs:
        graph, t2, d = alg.graph, alg.t2, alg.dim
        escaped = set()
        for kinds, (left1, left3) in EQUATION_SIDES.items():
            tq = graph.triple(*kinds)
            gens12 = [vtensor(rel, unit_vec(k), d)
                      for rel in relation_space(kinds[0], graph).rows for k in range(d)]
            gens23 = [{i * d * d + p: c for p, c in rel.items()}
                      for rel in relation_space(kinds[1], graph).rows for i in range(d)]
            rng = random.Random(7)
            for _ in range(8):
                x = {}
                for g in rng.sample(gens12, 2) + rng.sample(gens23, 2):
                    w = rng.choice((-2, -1, 1, 3))
                    for p, c in g.items():
                        x[p] = x.get(p, 0) + w * c
                x = {p: c for p, c in x.items() if c}
                assert tq.contains(x)
                for leg, left in ((1, left1), (3, left3)):
                    for i in range(d):
                        assert tq.contains(t2.cover(x, leg, left, i)), (name, kinds, leg, i)
                        if not tq.contains(t2.cover(x, leg, not left, i)):
                            escaped.add((kinds, leg))
        escapes.append(escaped)
    assert escapes[0] == escapes[1]
    expected = set() if name == "pair-2" else {(k, leg) for k in EQUATION_SIDES for leg in (1, 3)}
    assert escapes[0] == expected


def _path_rule_algebroids():
    """Name -> (algebroid, whether its base has a separating functional)."""
    b = matrix_algebra(2)
    w = {0: 1, 3: -1}
    ad_sign = LinMap(4, 4, [b.mul(w, b.mul(unit_vec(i), w)) for i in range(4)])
    idem = build_E_from_functional(b, {0: Fraction(3, 2), 3: Fraction(3)})
    built = {"pair-2": as_wmha(pair_groupoid(2)),
             "base-m2-weighted": scalar_extension_wmha(idem),
             "crossed-swap": swap_crossed_setup()[0]}
    out = {name: (forward_construct(bundle)[0], True) for name, bundle in built.items()}
    out["counit-twist"] = mixed_algebroid(*swap_crossed_setup()), True
    for name in ("radical", "auto-swap"):
        out[name] = obstruction_scenario(name)[0], False
    out["zero-normaliser"] = pair_base_algebroid(b, sigma=ad_sign), False
    return out


@pytest.mark.parametrize("name", ["pair-2", "base-m2-weighted", "crossed-swap", "counit-twist",
                                  "radical", "auto-swap", "zero-normaliser"])
def test_file_loaded_algebroids_split_exactly_when_the_base_is_separating(
        name, tmp_path, capsys, monkeypatch):
    """An algebroid read from its file takes sections for all six kinds
    whenever its base has a separating functional, and relations
    otherwise; its check-algebroid report is the same byte for byte as
    with the relation path forced."""
    alg, separating = _path_rule_algebroids()[name]
    path = str(tmp_path / f"{name}.json")
    io.dump(io.algebroid_to_dict(alg), path)
    loaded = io.parse_document(io.load(path))
    assert all((loaded.graph.balanced(kind).projector is not None) == separating
               for kind in KINDS)
    code = main(["--format", "json", "check-algebroid", path])
    sections = capsys.readouterr().out
    monkeypatch.setattr(algebroid, "find_separating_functional", lambda *args: None)
    assert io.parse_document(io.load(path)).graph.balanced("l").projector is None
    assert main(["--format", "json", "check-algebroid", path]) == code == 0
    assert capsys.readouterr().out == sections


def _section_path_algebroids():
    """Name -> an in-memory algebroid whose base has a separating functional."""
    b = matrix_algebra(2)
    u, u_inv = {0: 1, 3: 3}, {0: 1, 3: Fraction(1, 3)}
    ad_u = LinMap(4, 4, [b.mul(u, b.mul(unit_vec(i), u_inv)) for i in range(4)])
    idem = build_E_from_functional(b, {0: Fraction(3, 2), 3: Fraction(3)})
    built = {"pair-2": as_wmha(pair_groupoid(2)), "pair-3": as_wmha(pair_groupoid(3)),
             "base-m2-weighted": scalar_extension_wmha(idem),
             "crossed-swap": swap_crossed_setup()[0]}
    out = {name: forward_construct(bundle)[0] for name, bundle in built.items()}
    out["counit-twist"] = mixed_algebroid(*swap_crossed_setup())
    out["auto-weighted"] = obstruction_scenario("auto-weighted")[0]
    out["m2-ad-diag-1-3"] = pair_base_algebroid(b, sigma=ad_u)
    return out


@pytest.fixture(scope="module")
def section_path_algebroids(tmp_path_factory):
    """(name, source) -> algebroid, in memory and read back from its file."""
    out = {}
    for name, alg in _section_path_algebroids().items():
        path = str(tmp_path_factory.mktemp("section") / f"{name}.json")
        io.dump(io.algebroid_to_dict(alg), path)
        out[name, "memory"] = alg
        out[name, "file"] = io.parse_document(io.load(path))
    return out


def _assert_section_is_the_relation_quotient(graph):
    """The checks the section path no longer runs, as a reference: the
    columns the space applies are those of the cut map P, R is
    im(1 - P), the quotient has dimension d^2 - dim R, P is idempotent
    and kills R, and ``equivalent`` decides membership in R."""
    size = graph.t2.size
    for kind in KINDS:
        space, section = graph.balanced(kind), balanced.section_projector(kind, graph)
        relations, p = relation_space(kind, graph), section.map
        assert space.relations is None and space.projector is section, kind
        assert [space.column(j) for j in range(size)] == p.cols, kind
        assert space.image == section.image, kind
        assert relations == section.complement, kind
        assert space.q_dim == size - relations.dim, kind
        assert p @ p == p, kind
        assert not any(p.apply(rel) for rel in relations.rows), kind
        assert all(space.equivalent(rel, {}) for rel in relations.rows), kind
        assert all(space.equivalent(unit_vec(j), {}) == relations.contains(unit_vec(j))
                   for j in range(size)), kind


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("name", ["pair-2", "pair-3", "base-m2-weighted", "crossed-swap",
                                  "counit-twist", "auto-weighted", "m2-ad-diag-1-3"])
def test_section_is_the_relation_quotient(section_path_algebroids, name, source):
    _assert_section_is_the_relation_quotient(section_path_algebroids[name, source].graph)


@settings(max_examples=25, deadline=None)
@given(semisimple_bases(max_dim=4))
def test_section_is_the_relation_quotient_over_random_bases(case):
    """pair_base_algebroid over a random semisimple B with sigma = Ad(u),
    possibly after a swap of summands, whenever its pair finds an
    idempotent."""
    b, sigma, _ = case
    graph = pair_base_algebroid(b, sigma=sigma).graph
    assume(graph.e_coords is not None)
    _assert_section_is_the_relation_quotient(graph)


def test_section_path_builds_no_relators(monkeypatch):
    alg, report = forward_construct(as_wmha(pair_groupoid(3)))
    assert report.ok
    calls = []
    original = balanced.relation_generators

    def counting(kind, graph):
        calls.append(kind)
        return original(kind, graph)

    monkeypatch.setattr(balanced, "relation_generators", counting)
    assert check_algebroid_axioms(alg).ok
    assert calls == []
