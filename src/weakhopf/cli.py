"""Command-line surface.

Commands load definition files, run the relevant suites and emit
deterministic reports (text or JSON).  Exit codes: 0 when every check
passes, 1 when a check fails or an obstruction is found, 2 when the
input cannot be parsed or violates the schema, or ``--out`` cannot be
opened for writing; the conversions refuse such an ``--out`` before any
suite runs.  A reconstruction that breaks down after its
preconditions held is reported as a failed ``internal-inconsistency``
record (exit 1), never as a traceback; a round trip keeps its forward
records before that one.  A round trip whose rebuilt tensors differ from
its input, or whose reconstruction breaks down, runs the axiom suite on
that input and names its first failed record in ``input-wmha-suite``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import io
from .algebroid import MultiplierHopfAlgebroid, check_algebroid_axioms, forward_construct
from .base_algebras import run_base_suite
from .groupoids import Groupoid, as_wmha
from .lazy import check_lazy_groupoid, lazy_pair_groupoid
from .reconstruction import (ObstructionReport, PipelineResult, ReconstructionError,
                             reconstruction_pipeline)
from .reporting import CheckRecord, Report, failed, jsonable, passed
from .wmha import WeakMultiplierHopfAlgebra, run_suite
from .witnesses import revalidate


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())


def _positive(flag: str, value: int | None) -> int | None:
    """A count flag's value, None when it was not given; a value below 1
    is an input error."""
    if value is not None and value < 1:
        raise io.SchemaError(f"{flag} must be a positive integer, got {value}")
    return value


def _check_out(path: str | None) -> None:
    """Refuse an --out path that cannot be written, without creating it:
    a directory, or a file whose directory is missing or not writable."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK):
        raise io.ParseError(f"cannot write --out {path}")


def _bundle_from_doc(doc, probes: int | None):
    obj = io.parse_document(doc)
    if isinstance(obj, WeakMultiplierHopfAlgebra):
        return obj, None
    if isinstance(obj, Groupoid):
        return as_wmha(obj), None
    if isinstance(obj, dict) and obj.get("lazy") == "pair":
        units = probes if probes is not None else obj.get("probe_units", io.PROBE_UNITS)
        return None, lazy_pair_groupoid(units)
    raise io.SchemaError("file does not describe a weak multiplier Hopf algebra")


def cmd_check_wmha(args) -> int:
    doc = io.load(args.file)
    bundle, lazy_g = _bundle_from_doc(doc, _positive("--probes", args.probes))
    if lazy_g is not None:
        report = check_lazy_groupoid(lazy_g)
        _emit(report, args.format)
        return 0 if report.ok else 1
    report = run_suite(bundle)
    _, base_report = run_base_suite(bundle)
    report.extend(base_report.records)
    _emit(report, args.format)
    return 0 if report.ok else 1


def cmd_check_algebroid(args) -> int:
    doc = io.load(args.file)
    alg = io.parse_document(doc)
    if not isinstance(alg, MultiplierHopfAlgebroid):
        raise io.SchemaError("file does not describe an algebroid")
    report = check_algebroid_axioms(alg)
    _emit(report, args.format)
    return 0 if report.ok else 1


def cmd_wmha_to_algebroid(args) -> int:
    _check_out(args.out)
    doc = io.load(args.file)
    bundle, lazy_g = _bundle_from_doc(doc, None)
    if lazy_g is not None:
        raise io.SchemaError("the balanced quotients need a finite groupoid")
    suite = run_suite(bundle)
    if not suite.ok:
        _emit(suite, args.format)
        return 1
    alg, report = forward_construct(bundle)
    if alg is None:
        _emit(report, args.format)
        return 1
    algebroid_report = check_algebroid_axioms(alg)
    report.extend(algebroid_report.records)
    _emit(report, args.format)
    if not report.ok:
        return 1
    if args.out:
        io.dump(io.algebroid_to_dict(alg, expected_verdict="success"), args.out)
    return 0


def cmd_algebroid_to_wmha(args) -> int:
    _check_out(args.out)
    doc = io.load(args.file)
    alg = io.parse_document(doc)
    if not isinstance(alg, MultiplierHopfAlgebroid):
        raise io.SchemaError("file does not describe an algebroid")
    precheck = check_algebroid_axioms(alg)
    if not precheck.ok:
        _emit(precheck, args.format)
        return 1
    got = reconstruction_pipeline(alg)
    if isinstance(got, PipelineResult):
        _emit(got.report, args.format)
        expected = doc.get("expected_verdict")
        if expected not in (None, "success"):
            sys.stderr.write(f"expected verdict {expected!r} but pipeline succeeded\n")
            return 1
        if args.out:
            io.dump(io.wmha_to_dict(got.bundle), args.out)
        return 0
    report = got.report
    report.add(failed(f"obstruction-{got.stage}", got.witness, detail=got.narrative))
    ok_witness = revalidate(got, alg)
    report.add(passed("witness-revalidation") if ok_witness else
               failed("witness-revalidation", {"stage": got.stage}))
    _emit(report, args.format)
    expected = doc.get("expected_verdict")
    if expected is not None and expected != got.stage:
        sys.stderr.write(f"expected verdict {expected!r} but found {got.stage!r}\n")
    if args.out:
        io.dump({"schema": io.SCHEMA, "kind": "obstruction", "stage": got.stage,
                 "narrative": got.narrative, "witness": jsonable(got.witness)},
                args.out)
    return 1


def _input_suite(bundle: WeakMultiplierHopfAlgebra) -> CheckRecord:
    """The record ``input-wmha-suite``: the first failed record of the
    axiom suite on a round trip's input, with its witness."""
    bad = run_suite(bundle).failures()
    return (failed("input-wmha-suite", {"check": bad[0].name, "witness": bad[0].witness})
            if bad else passed("input-wmha-suite"))


def cmd_roundtrip(args) -> int:
    doc = io.load(args.file)
    bundle, lazy_g = _bundle_from_doc(doc, None)
    if lazy_g is not None:
        raise io.SchemaError("round trips need a finite structure")
    report = Report("roundtrip")
    alg, forward_report = forward_construct(bundle)
    report.extend(forward_report.records)
    if alg is None:
        _emit(report, args.format)
        return 1
    try:
        got = reconstruction_pipeline(alg)
    except ReconstructionError as exc:
        # the forward construction does not check the algebroid it builds
        # from an input that fails the suite, and the pipeline can break
        # down on it: keep the forward records and name the input's law
        report.add(failed("internal-inconsistency", {"error": str(exc)}))
        report.add(_input_suite(bundle))
        _emit(report, args.format)
        return 1
    if isinstance(got, ObstructionReport):
        report.extend(got.report.records)
        report.add(failed("roundtrip-obstructed", got.witness, detail=got.stage))
        _emit(report, args.format)
        return 1
    report.extend(got.report.records)
    differ = [name for name, attr in (("delta", "delta"), ("counit", "counit"),
                                      ("antipode", "antipode"), ("idempotent", "E"))
              if getattr(got.bundle, attr) != getattr(bundle, attr)]
    if differ:
        report.add(failed("roundtrip-tensors-identical", {"tensors": differ}))
        # the forward construction does not read every law of the input
        # (the counit laws, say), so name the input's first failing law
        report.add(_input_suite(bundle))
    else:
        report.add(passed("roundtrip-tensors-identical"))
    _emit(report, args.format)
    return 0 if report.ok else 1


def _generate(args):
    from .algebra import matrix_algebra
    from .examples import (mixed_algebroid, obstruction_scenario,
                           scalar_extension_wmha, swap_crossed_setup)
    from .groupoids import action_groupoid, cyclic_group, group_groupoid, pair_groupoid
    from .separability import build_E_from_functional

    name = args.name
    _positive("--n", args.n)
    _positive("--probes", args.probes)
    if name == "pair-groupoid":
        bundle = as_wmha(pair_groupoid(args.n))
        return io.wmha_to_dict(bundle)
    if name == "cyclic-group":
        bundle = as_wmha(group_groupoid(cyclic_group(args.n)))
        return io.wmha_to_dict(bundle)
    if name == "action-swap":
        z2 = cyclic_group(2)
        act = {("g0", "1"): "1", ("g0", "2"): "2",
               ("g1", "1"): "2", ("g1", "2"): "1"}
        return io.wmha_to_dict(as_wmha(action_groupoid(z2, ["1", "2"], act)))
    if name == "base-m2":
        if args.variant == "weighted":
            phi = {0: Fraction(3, 2), 3: 3}
        else:
            phi = {0: 2, 3: 2}
        idem = build_E_from_functional(matrix_algebra(2), phi)
        return io.wmha_to_dict(scalar_extension_wmha(idem))
    if name == "obstructed":
        alg, expected = obstruction_scenario(args.scenario)
        return io.algebroid_to_dict(alg, expected_verdict=expected or "success")
    if name == "counit-twist":
        bundle, twist = swap_crossed_setup()
        alg = mixed_algebroid(bundle, twist)
        return io.algebroid_to_dict(alg, expected_verdict="CounitsDiffer")
    if name == "lazy-pair":
        return {"schema": io.SCHEMA, "kind": "groupoid", "lazy": "pair",
                "probe_units": io.PROBE_UNITS if args.probes is None else args.probes}
    raise io.SchemaError(f"unknown example {name!r}")


def cmd_gen_example(args) -> int:
    doc = _generate(args)
    if args.out:
        io.dump(doc, args.out)
    else:
        import json
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="exact verification of weak multiplier Hopf algebras "
                    "and multiplier Hopf algebroids")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-wmha", help="run the full axiom suite on a bundle")
    p.add_argument("file")
    p.add_argument("--probes", type=int, default=None,
                   help="probe-unit count for lazy groupoid files")
    p.set_defaults(func=cmd_check_wmha)

    p = sub.add_parser("check-algebroid", help="run the algebroid axiom suite")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_algebroid)

    p = sub.add_parser("wmha-to-algebroid", help="forward construction")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wmha_to_algebroid)

    p = sub.add_parser("algebroid-to-wmha", help="reconstruction pipeline")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_algebroid_to_wmha)

    p = sub.add_parser("roundtrip", help="forward then back, tensors must agree")
    p.add_argument("file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("gen-example", help="write a corpus definition file")
    p.add_argument("name", help="pair-groupoid | cyclic-group | action-swap | "
                                "base-m2 | obstructed | counit-twist | lazy-pair")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--variant", choices=("trace", "weighted"), default="trace")
    p.add_argument("--scenario",
                   choices=("radical", "auto-swap", "auto-weighted"),
                   default="radical")
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (io.ParseError, io.SchemaError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ReconstructionError as exc:
        report = Report(args.command)
        report.add(failed("internal-inconsistency", {"error": str(exc)}))
        _emit(report, args.format)
        return 1


if __name__ == "__main__":
    sys.exit(main())
