"""The value types of the exact core.

An integral coefficient is an ``int`` and any other a ``Fraction``; no
bool, float or zero is ever stored.  Reports print every coefficient as a
string, whatever its type, and keep counts as JSON numbers.  No division
in the source can yield a float.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from weakhopf import io
from weakhopf.algebra import matrix_algebra
from weakhopf.algebroid import forward_construct
from weakhopf.examples import (mixed_algebroid, obstruction_scenario,
                               scalar_extension_wmha, swap_crossed_setup,
                               twist_wmha, weighted_m2_twist_setup)
from weakhopf.groupoids import (action_groupoid, as_wmha, cyclic_group,
                                group_groupoid, pair_groupoid)
from weakhopf.linalg import rat
from weakhopf.reporting import CheckRecord, Report, failed
from weakhopf.separability import build_E_from_functional

SRC = Path(__file__).resolve().parent.parent / "src" / "weakhopf"


def _fields(obj):
    yield from getattr(obj, "__dict__", {}).values()
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield getattr(obj, name)


def _coefficients(obj, seen):
    """Every stored scalar reachable from obj under an int key: the
    entries of its vectors, including the columns of its maps."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        vector = bool(obj) and all(type(k) is int for k in obj)
        for v in obj.values():
            if vector and isinstance(v, (int, float, Fraction)):
                yield v
            else:
                yield from _coefficients(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _coefficients(v, seen)
    elif type(obj).__module__.startswith("weakhopf."):
        for v in _fields(obj):
            yield from _coefficients(v, seen)


def _corpus():
    z2 = cyclic_group(2)
    swap_action = {("g0", "1"): "1", ("g0", "2"): "2",
                   ("g1", "1"): "2", ("g1", "2"): "1"}
    bundles = {f"pair-{n}": as_wmha(pair_groupoid(n)) for n in (2, 3, 4)}
    bundles["cyclic-3"] = as_wmha(group_groupoid(cyclic_group(3)))
    bundles["action-swap"] = as_wmha(action_groupoid(z2, ["1", "2"], swap_action))
    for name, phi in (("base-m2", {0: 2, 3: 2}),
                      ("base-m2-weighted", {0: Fraction(3, 2), 3: 3})):
        bundles[name] = scalar_extension_wmha(build_E_from_functional(matrix_algebra(2), phi))
    algebroids = {}
    for name, setup in (("crossed-swap", swap_crossed_setup),
                        ("m2-twist", weighted_m2_twist_setup)):
        bundle, twist = setup()
        bundles[name] = bundle
        bundles[f"{name}-twisted"] = twist_wmha(bundle, twist)
        algebroids[f"{name}-mixed"] = mixed_algebroid(bundle, twist)
    for name in ("radical", "auto-swap", "auto-weighted"):
        algebroids[f"obstruction-{name}"] = obstruction_scenario(name)[0]
    algebroids["pair-2-forward"] = forward_construct(bundles["pair-2"])[0]
    corpus = {**bundles, **algebroids}
    for name, bundle in bundles.items():
        corpus[f"{name}-read-back"] = io.parse_document(io.wmha_to_dict(bundle))
    for name, alg in algebroids.items():
        corpus[f"{name}-read-back"] = io.parse_document(io.algebroid_to_dict(alg))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_every_stored_coefficient_is_a_nonzero_int_or_fraction(corpus):
    for name, obj in corpus.items():
        found = list(_coefficients(obj, set()))
        assert found, name
        bad = [c for c in found if type(c) not in (int, Fraction) or not c]
        assert not bad, (name, bad[:5])


def test_integral_values_enter_as_ints(corpus):
    assert type(rat("4/2")) is int
    assert type(rat(Fraction(3))) is int
    assert type(rat(-5)) is int
    assert type(rat("3/2")) is Fraction
    assert type(io._dec("2")) is int
    assert type(io._dec(-7)) is int
    assert type(io._dec("-6/4")) is Fraction
    # a 0/1 bundle stays integral, built or read back
    for name in ("pair-3", "pair-3-read-back", "action-swap-read-back"):
        assert all(type(c) is int for c in _coefficients(corpus[name], set())), name


def test_every_true_division_has_a_fraction_numerator():
    """int / int is a float: only Fraction(...) / x keeps the core exact."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
                if not (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                        and left.func.id == "Fraction"):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_reports_print_int_coefficients_as_strings():
    witness = {"basis": "e0", "eps": 1, "eps_prime": 0,
               "phi_B": {0: 1, 2: -3, 3: Fraction(3, 2)},
               "rank": 3, "dim": 2, "span_dim": 4, "pair": [0, 1]}
    report = Report("value-types", [failed("counit-equality", witness),
                                    CheckRecord("kernel-subspaces", "fail",
                                                {"map": "T1", "described_dim": 5})])
    text_witnesses = [json.loads(line.split("witness: ", 1)[1])
                      for line in report.to_text().splitlines() if "witness: " in line]
    assert text_witnesses[1] == {"map": "T1", "described_dim": 5}
    for encoded in (report.to_dict()["checks"][0]["witness"], text_witnesses[0]):
        assert encoded == {"basis": "e0", "eps": "1", "eps_prime": "0",
                           "phi_B": {"0": "1", "2": "-3", "3": "3/2"},
                           "rank": 3, "dim": 2, "span_dim": 4, "pair": [0, 1]}
    assert report.to_dict()["checks"][1]["witness"] == {"map": "T1", "described_dim": 5}
    # the same coefficients as Fractions print the same bytes
    as_fractions = {**witness, "eps": Fraction(1), "eps_prime": Fraction(0),
                    "phi_B": {k: Fraction(v) for k, v in witness["phi_B"].items()}}
    assert (Report("value-types", [failed("counit-equality", as_fractions)]).to_json()
            == Report("value-types", [failed("counit-equality", witness)]).to_json())


# Each reader of rational entries: (entry count, nest a flat entry list
# into the reader's input, read it, the stored coefficients).  The honest
# flat list has "1" at the first and last entry and zero elsewhere, which
# for the algebra reader is the table of Q + Q.
READERS = {
    "vector": (4, lambda xs: xs, lambda doc: io._vec_from_list(doc, 4), lambda v: v),
    "square": (4, lambda xs: [xs[:2], xs[2:]], lambda doc: io._square_from(doc, 2),
               lambda v: v),
    "matrix": (4, lambda xs: [xs[:2], xs[2:]], lambda doc: io._matrix_from(doc, 2, 2),
               lambda m: m.cols),
    "algebra": (8, lambda xs: {"labels": ["a", "b"],
                               "structure": [[xs[0:2], xs[2:4]], [xs[4:6], xs[6:8]]]},
                io.algebra_from_dict, lambda alg: alg.table),
}


def _flat(n, zero):
    return ["1"] + [zero] * (n - 2) + ["1"]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_skip_literal_zeros_before_decoding(reader, monkeypatch):
    """The literal "0" never reaches ``_dec``; any other spelling of zero
    is decoded and stored as nothing, like "0"."""
    n, nest, read, stored = READERS[reader]
    want = stored(read(nest(_flat(n, "0"))))
    decoded = []
    dec = io._dec
    monkeypatch.setattr(io, "_dec", lambda x: decoded.append(x) or dec(x))
    assert stored(read(nest(_flat(n, "0")))) == want
    assert decoded == ["1", "1"]
    for zero in ("0/5", "-0", "00", 0):
        assert stored(read(nest(_flat(n, zero)))) == want, zero
    assert all(type(c) is int and c for c in _coefficients(want, set()))


@pytest.mark.parametrize("bad", [1.5, 0.0, True, False, "x", "1/0", "0/0"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_refuse_bad_entries_at_any_position(reader, bad):
    """A bad entry raises what ``_dec`` raises for it (a SchemaError, or
    a ValueError that ``parse_document`` reports as one) wherever it
    stands, among zeros or not."""
    n, nest, read, _ = READERS[reader]
    with pytest.raises(ValueError) as refused:
        io._dec(bad)
    for position in range(n):
        xs = _flat(n, "0")
        xs[position] = bad
        with pytest.raises(ValueError) as got:
            read(nest(xs))
        assert got.type is refused.type, position
