"""Seeded inputs, operations and verdict checks for each workload.

Set-up writes definition files with the engine's own generators and
`io.dump`, exactly as `weakhopf gen-example` would; the timed pass only
hands file paths to `weakhopf.cli.main`.  Every operation carries the
answer its input is known to have, and `Op.check` turns a wrong exit
code, report or output file into a failure reason.

What the seed changes:

* certify workloads (`ladder-roundtrip`, `matrix-base-files`): the basis
  labels of every input and the order of independent operations.  Basis
  order stays fixed, because permuting it moves the cost of a d=16 check
  by up to 20 % and would hide a change's effect behind the choice of
  seed; labels only reach reports, so the work is the same on every seed.
* `refute-mutants`: which entry of Delta, S, epsilon or E each mutant
  changes and by how much.  Mutants are drawn one per (file, tensor)
  cell, so every seed exercises the same checks.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    """One CLI invocation and the verdict its input is known to have."""

    name: str
    argv: list[str]
    check: Check
    outputs: list[str] = field(default_factory=list)


def _report(out: str) -> dict:
    return json.loads(out)


def _records(out: str) -> dict[str, dict]:
    return {r["check"]: r for r in _report(out)["checks"]}


def expect_pass(required: str | None = None) -> Check:
    """Exit 0, a passing summary and, if named, that record passed."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        doc = _report(out)
        if doc["summary"] != "pass":
            return "summary is not pass"
        if required is not None:
            rec = _records(out).get(required)
            if rec is None or rec["status"] != "pass":
                return f"record {required} missing or not passed"
        return None

    return check


def expect_probes() -> Check:
    """Exit 0, and multiplier-level identities reported on probes."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        statuses = {r["status"] for r in _report(out)["checks"]}
        if "verified-on-probes" not in statuses:
            return "no verified-on-probes record"
        return None

    return check


def expect_written(path: str, inner: Check) -> Check:
    def check(rc: int, out: str) -> str | None:
        return inner(rc, out) or (None if os.path.exists(path)
                                  else f"{os.path.basename(path)} was not written")

    return check


def expect_same_file(path: str, reference: str, inner: Check) -> Check:
    """`inner` holds and the written file equals `reference` byte for byte."""
    written = expect_written(path, inner)

    def check(rc: int, out: str) -> str | None:
        reason = written(rc, out)
        if reason:
            return reason
        with open(path, "rb") as fh, open(reference, "rb") as ref:
            if fh.read() != ref.read():
                return f"{os.path.basename(path)} differs from its input"
        return None

    return check


def expect_obstruction(stage: str) -> Check:
    """Exit 1 at the file's expected stage with a re-validated witness."""

    def check(rc: int, out: str) -> str | None:
        if rc != 1:
            return f"exit {rc}, expected 1"
        records = _records(out)
        got = [n for n in records if n.startswith("obstruction-")]
        if got != [f"obstruction-{stage}"]:
            return f"obstruction {got}, expected {stage}"
        if records[got[0]].get("witness") is None:
            return "obstruction carries no witness"
        rev = records.get("witness-revalidation")
        if rev is None or rev["status"] != "pass":
            return "witness-revalidation missing or failed"
        return None

    return check


def expect_refuted() -> Check:
    """Exit 1 with at least one failed record that carries a witness."""

    def check(rc: int, out: str) -> str | None:
        if rc != 1:
            return f"exit {rc}, expected 1" + (" (mutant escaped)" if rc == 0 else "")
        if not any(r["status"] == "fail" and "witness" in r for r in _report(out)["checks"]):
            return "no failed record with a witness"
        return None

    return check


# -- inputs ---------------------------------------------------------------

def _relabel(doc: dict, rng: random.Random) -> dict:
    """Rename the basis; labels only reach reports, never arithmetic."""
    alg = doc["algebra"]
    alg["labels"] = [f"{label}.{rng.randrange(16 ** 4):04x}" for label in alg["labels"]]
    return doc


def wmha_docs(engine) -> dict[str, Callable[[], dict]]:
    """Generators of the wmha inputs, by the name the workloads use."""
    g, io, ex = engine.groupoids, engine.io, engine.examples

    def pair(n):
        return lambda: io.wmha_to_dict(g.as_wmha(g.pair_groupoid(n)))

    def action_swap():
        act = {("g0", "1"): "1", ("g0", "2"): "2", ("g1", "1"): "2", ("g1", "2"): "1"}
        return io.wmha_to_dict(g.as_wmha(g.action_groupoid(g.cyclic_group(2), ["1", "2"], act)))

    def base_m2_weighted():
        phi = {0: Fraction(3, 2), 3: Fraction(3)}
        idem = engine.separability.build_E_from_functional(engine.algebra.matrix_algebra(2), phi)
        return io.wmha_to_dict(ex.scalar_extension_wmha(idem))

    return {
        "pair-2": pair(2),
        "pair-3": pair(3),
        "pair-4": pair(4),
        "cyclic-6": lambda: io.wmha_to_dict(g.as_wmha(g.group_groupoid(g.cyclic_group(6)))),
        "action-swap": action_swap,
        "crossed-swap": lambda: io.wmha_to_dict(ex.swap_crossed_setup()[0]),
        "base-m2-weighted": base_m2_weighted,
    }


def algebroid_docs(engine) -> dict[str, Callable[[], dict]]:
    """Generators of the algebroid inputs; each embeds `expected_verdict`."""
    io, ex = engine.io, engine.examples

    def scenario(name):
        def gen():
            alg, expected = ex.obstruction_scenario(name)
            return io.algebroid_to_dict(alg, expected_verdict=expected)
        return gen

    def counit_twist():
        alg = ex.mixed_algebroid(*ex.swap_crossed_setup())
        return io.algebroid_to_dict(alg, expected_verdict="CounitsDiffer")

    return {"radical": scenario("radical"), "auto-swap": scenario("auto-swap"),
            "counit-twist": counit_twist}


class Inputs:
    """Writes the generated documents into one directory."""

    def __init__(self, engine, directory: str, rng: random.Random):
        self.engine = engine
        self.dir = directory
        self.rng = rng
        self.wmha = wmha_docs(engine)
        self.algebroid = algebroid_docs(engine)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")

    def write(self, name: str, doc: dict) -> str:
        path = self.path(name)
        self.engine.io.dump(doc, path)
        return path

    def doc(self, name: str) -> dict:
        gen = self.wmha.get(name) or self.algebroid[name]
        return _relabel(gen(), self.rng)


# -- workloads -------------------------------------------------------------

LADDER = ("pair-2", "pair-3", "pair-4", "cyclic-6", "action-swap", "crossed-swap")


def certify_ops(inputs: Inputs, names) -> list[Op]:
    """`check-wmha` then `roundtrip` on each named wmha input."""
    ops = []
    for name in names:
        path = inputs.write(name, inputs.doc(name))
        ops.append(Op(f"check-wmha {name}", ["--format", "json", "check-wmha", path],
                      expect_pass()))
        ops.append(Op(f"roundtrip {name}", ["--format", "json", "roundtrip", path],
                      expect_pass("roundtrip-tensors-identical")))
    return ops


def ladder_roundtrip(inputs: Inputs) -> list[Op]:
    ops = certify_ops(inputs, LADDER)
    inputs.rng.shuffle(ops)
    return ops


def obstruction_op(inputs: Inputs, name: str) -> Op:
    doc = inputs.doc(name)
    path = inputs.write(name, doc)
    return Op(f"algebroid-to-wmha {name}", ["--format", "json", "algebroid-to-wmha", path],
              expect_obstruction(doc["expected_verdict"]))


def matrix_base_files(inputs: Inputs) -> list[Op]:
    src = inputs.write("base-m2-weighted", inputs.doc("base-m2-weighted"))
    alg = inputs.path("base-m2-weighted.algebroid")
    back = inputs.path("base-m2-weighted.back")
    convert = [
        Op("wmha-to-algebroid base-m2-weighted",
           ["--format", "json", "wmha-to-algebroid", src, "--out", alg],
           expect_written(alg, expect_pass()), outputs=[alg]),
        Op("algebroid-to-wmha base-m2-weighted",
           ["--format", "json", "algebroid-to-wmha", alg, "--out", back],
           expect_same_file(back, src, expect_pass()), outputs=[back]),
    ]
    lazy = inputs.write("lazy-pair", {"schema": inputs.engine.io.SCHEMA, "kind": "groupoid",
                                      "lazy": "pair", "probe_units": 6})
    others = [Op("check-wmha lazy-pair", ["--format", "json", "check-wmha", lazy,
                                          "--probes", "6"], expect_probes()),
              obstruction_op(inputs, "counit-twist")]
    inputs.rng.shuffle(others)
    return convert + others


MUTANT_SOURCES = ("pair-3", "pair-4", "base-m2-weighted", "crossed-swap")
MUTANT_TENSORS = ("delta", "antipode", "counit", "idempotent")
MUTANT_SHIFTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def mutate(doc: dict, tensor: str, rng: random.Random) -> tuple[dict, str]:
    """Copy of a wmha document with one entry of one tensor shifted."""
    doc = json.loads(json.dumps(doc))
    d = len(doc["counit"])
    if tensor == "delta":
        a, i = rng.randrange(d), rng.randrange(d)
        row, where = doc["delta"][a][i], f"delta[{a}][{i}]"
    elif tensor == "counit":
        row, where = doc["counit"], "counit"
    else:
        i = rng.randrange(d)
        row, where = doc[tensor][i], f"{tensor}[{i}]"
    j = rng.randrange(d)
    shift = rng.choice(MUTANT_SHIFTS)
    row[j] = str(Fraction(row[j]) + shift)
    return doc, f"{where}[{j}]{'+' if shift > 0 else ''}{shift}"


def refute_mutants(inputs: Inputs) -> list[Op]:
    ops = []
    for name in MUTANT_SOURCES:
        doc = inputs.doc(name)
        for tensor in MUTANT_TENSORS:
            mutant, where = mutate(doc, tensor, inputs.rng)
            path = inputs.write(f"{name}.mutant-{tensor}", mutant)
            ops.append(Op(f"check-wmha {name} {where}",
                          ["--format", "json", "check-wmha", path], expect_refuted()))
    ops += [obstruction_op(inputs, name) for name in ("radical", "auto-swap", "counit-twist")]
    inputs.rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[Inputs], list[Op]]] = {
    "ladder-roundtrip": ladder_roundtrip,
    "matrix-base-files": matrix_base_files,
    "refute-mutants": refute_mutants,
}
