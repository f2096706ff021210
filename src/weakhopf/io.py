"""Definition files: lossless JSON interchange for every structure.

Rationals are encoded as strings "p/q" so no float ever enters a file,
and every entry read back goes through ``_dec``, which also takes JSON
integers and refuses floats, booleans and zero denominators; the
readers skip the literal string "0", most entries of a file, before
decoding (any other spelling of zero is decoded, and dropped);
matrices are dense nested arrays (rows), tensor-square elements are
dim x dim arrays with the first leg indexing rows.  Every document
carries schema 1 and a "kind".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import FiniteAlgebra, make_algebra
from .algebroid import MultiplierHopfAlgebroid, QuantumGraphPair
from .base_algebras import SubalgebraView
from .groupoids import Groupoid
from .linalg import LinMap, Vec, rat, vec_from
from .wmha import WeakMultiplierHopfAlgebra

SCHEMA = 1
PROBE_UNITS = 6  # probe units of a lazy pair groupoid file that names none


class ParseError(ValueError):
    pass


class SchemaError(ValueError):
    pass


def _dec(x) -> int | Fraction:
    """The rational an entry encodes, the inverse of ``str``: an int when
    it is integral, else a Fraction."""
    if type(x) not in (str, int):
        raise SchemaError(f"rational entries are strings like \"3/2\", got {x!r}")
    try:
        return rat(x)
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {x!r}") from None


def _vec_list(v: Vec, n: int) -> list[str]:
    return [str(v.get(i, 0)) for i in range(n)]


def _require_shape(xs, *shape: int) -> None:
    """Nested lists xs, not strings or objects, of these lengths, outermost first."""
    level = [xs]
    for n in shape:
        if any(type(x) is not list or len(x) != n for x in level):
            raise SchemaError(f"expected a {' x '.join(map(str, shape))} array")
        level = [y for x in level for y in x]


def _vec_from_list(xs, n: int) -> Vec:
    _require_shape(xs, n)
    return vec_from((i, _dec(x)) for i, x in enumerate(xs) if x != "0")


def encode_matrix(m: LinMap) -> list[list[str]]:
    return [[str(m.entry(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]


def _matrix_from(rows, nrows: int, ncols: int) -> LinMap:
    _require_shape(rows, nrows, ncols)
    return LinMap.from_dense([[0 if x == "0" else _dec(x) for x in row] for row in rows])


def _square(v: Vec, d: int) -> list[list[str]]:
    out = [["0"] * d for _ in range(d)]
    for p, c in v.items():
        i, j = divmod(p, d)
        out[i][j] = str(c)
    return out


def _square_from(rows, d: int) -> Vec:
    _require_shape(rows, d, d)
    out: Vec = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != "0" and (c := _dec(x)):
                out[i * d + j] = c
    return out


def _squares_from(elements, d: int) -> list[Vec]:
    _require_shape(elements, d)
    return [_square_from(rows, d) for rows in elements]


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    n = alg.dim
    structure = [[[str(alg.mul_basis(i, j).get(k, 0))
                   for k in range(n)] for j in range(n)] for i in range(n)]
    return {"labels": list(alg.labels), "structure": structure}


def algebra_from_dict(doc: dict) -> FiniteAlgebra:
    labels, structure = list(doc["labels"]), doc["structure"]
    _require_shape(structure, len(labels), len(labels), len(labels))
    return make_algebra(labels, {(i, j, k): _dec(x) for i, plane in enumerate(structure)
                                 for j, row in enumerate(plane) for k, x in enumerate(row)
                                 if x != "0"})


def wmha_to_dict(bundle: WeakMultiplierHopfAlgebra) -> dict:
    d = bundle.dim
    return {
        "schema": SCHEMA,
        "kind": "wmha",
        "algebra": algebra_to_dict(bundle.algebra),
        "delta": [_square(v, d) for v in bundle.delta],
        "counit": _vec_list(bundle.counit, d),
        "antipode": encode_matrix(bundle.antipode),
        "idempotent": _square(bundle.E, d),
    }


def wmha_from_dict(doc: dict) -> WeakMultiplierHopfAlgebra:
    algebra = algebra_from_dict(doc["algebra"])
    d = algebra.dim
    return WeakMultiplierHopfAlgebra(
        algebra=algebra,
        delta=_squares_from(doc["delta"], d),
        counit=_vec_from_list(doc["counit"], d),
        antipode=_matrix_from(doc["antipode"], d, d),
        canonical_idempotent=_square_from(doc["idempotent"], d),
    )


def groupoid_from_dict(doc: dict) -> Groupoid:
    arrows = list(doc["arrows"])
    index = {a: i for i, a in enumerate(arrows)}
    try:
        source = [index[a] for a in doc["source"]]
        target = [index[a] for a in doc["target"]]
        inverse = [index[a] for a in doc["inverse"]]
        compose = {(index[p], index[q]): index[r] for p, q, r in doc["compose"]}
    except KeyError as exc:
        raise SchemaError(f"unknown arrow label {exc}") from exc
    return Groupoid(arrows, source, target, inverse, compose)


def algebroid_to_dict(alg: MultiplierHopfAlgebroid,
                      expected_verdict: str | None = None) -> dict:
    d = alg.algebra.dim
    graph = alg.graph
    doc = {
        "schema": SCHEMA,
        "kind": "algebroid",
        "algebra": algebra_to_dict(alg.algebra),
        "b_basis": [_vec_list(x, d) for x in graph.b_view.basis],
        "c_basis": [_vec_list(y, d) for y in graph.c_view.basis],
        "s_b": encode_matrix(graph.s_b),
        "s_c": encode_matrix(graph.s_c),
        "delta_b": [_square(v, d) for v in alg.delta_b],
        "delta_c": [_square(v, d) for v in alg.delta_c],
        "eps_b": encode_matrix(alg.eps_b),
        "eps_c": encode_matrix(alg.eps_c),
        "antipode": encode_matrix(alg.antipode),
    }
    if expected_verdict is not None:
        doc["expected_verdict"] = expected_verdict
    return doc


def algebroid_from_dict(doc: dict) -> MultiplierHopfAlgebroid:
    algebra = algebra_from_dict(doc["algebra"])
    d = algebra.dim
    b_view = SubalgebraView(algebra, [_vec_from_list(x, d) for x in doc["b_basis"]], "B")
    c_view = SubalgebraView(algebra, [_vec_from_list(y, d) for y in doc["c_basis"]], "C")
    nb, nc = len(b_view.basis), len(c_view.basis)
    graph = QuantumGraphPair(algebra, b_view, c_view,
                             _matrix_from(doc["s_b"], nc, nb), _matrix_from(doc["s_c"], nb, nc))
    return MultiplierHopfAlgebroid(
        graph,
        delta_b=_squares_from(doc["delta_b"], d),
        delta_c=_squares_from(doc["delta_c"], d),
        eps_b=_matrix_from(doc["eps_b"], d, d),
        eps_c=_matrix_from(doc["eps_c"], d, d),
        antipode=_matrix_from(doc["antipode"], d, d),
    )


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    if "kind" not in doc:
        raise SchemaError("missing kind")
    return doc


def dump(doc: dict, path: str) -> None:
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    with fh:
        json.dump(doc, fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")


def parse_document(doc: dict):
    """Typed object for a loaded document."""
    kind = doc.get("kind")
    try:
        if kind == "wmha":
            return wmha_from_dict(doc)
        if kind == "groupoid":
            if doc.get("lazy"):
                units = doc.get("probe_units", PROBE_UNITS)
                if type(units) is not int or units < 1:
                    raise SchemaError(f"probe_units must be a positive integer, got {units!r}")
                return doc
            return groupoid_from_dict(doc)
        if kind == "algebroid":
            return algebroid_from_dict(doc)
        if kind == "algebra":
            return algebra_from_dict(doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, (ParseError, SchemaError)):
            raise
        raise SchemaError(f"malformed {kind} document: {exc}") from exc
    raise SchemaError(f"unknown kind {kind!r}")
