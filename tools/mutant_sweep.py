"""Run every single-entry mutant of two algebroid files and two wmha
files through the CLI, and compare two recordings.

    python3 tools/mutant_sweep.py record <checkout> <out.json>
    python3 tools/mutant_sweep.py diff <a.json> <b.json>

`record` imports `weakhopf` from `<checkout>/src` (as
`tools/byte_sweep.py` does, without writing into the checkout) and
writes, in a fresh directory, the pair-2 algebroid (`wmha-to-algebroid`
of `gen-example pair-groupoid --n 2`) and the counit-twist algebroid
(`gen-example counit-twist`), and then two wmha files: pair-2 itself
and crossed-swap (`io.wmha_to_dict(examples.swap_crossed_setup()[0])`).
For every entry of delta_b, delta_c, eps_b, eps_c, antipode, s_b, s_c,
b_basis and c_basis of an algebroid file, or of delta, counit, antipode
and idempotent of a wmha file, zero or not, and each shift +1 and -1, it
writes the mutant file and runs `check-algebroid` and then
`algebroid-to-wmha` (algebroid files) or `check-wmha` and then
`roundtrip` (wmha files) on it through `weakhopf.cli.main` in process,
under `--format json`.  Each run keeps its exit code (or the exception
it raised), stdout and stderr: 5,824 algebroid runs and 2,992 wmha
runs, 8,816 in all.  The wmha runs are the byte oracle for the paths of
the wmha suite that its projector certificate does not take.

After the exit counts, `record` prints for each command how many runs
end in each report and summary (or exit code), and then how many runs
fail each record, named `<report>/<check>`; a run that fails several
records counts once for each.  Last, for each wmha source, it prints
how many mutants the wmha suite decides the projector records of
(generalized inverses, projection formulas, kernel subspaces) for
under the certificate H, on the module generators, or on the basis
vectors, and how many it stops before them (S singular) or rejects on
input (`decided`).  It reads this in process off the mutant's bundle,
loaded and run through `wmha.run_suite` once more, from the premises
the `wmha` docstring names.  For each algebroid source it prints, per
command, how the record `algebroid-canonical-maps-bijective` ends:
pass, not well-defined or rank, with the path its balanced spaces take
(section when the mutant's graph pair finds an idempotent, else
relation) and where the maps are decided (on the module generators, by
the rank after them, or on the basis columns), both read in process off
the loaded file, or not reached (`canonical`).  A reconstruction report counts as pass, since
`algebroid-to-wmha` reconstructs only after the algebroid suite passes.
Finally, for each algebroid source, it prints how the
`algebroid-to-wmha` runs that reach `rebuilt-range-conditions` and
`rebuilt-kernel-conditions` decide each: under the certificate H of the
rebuilt maps, or without it, the range stage by echelon forms.  It
reads this off the mutant's reconstruction, run once more in process.
These tallies are printed only, so the recording keeps its bytes.

`diff` is `tools/byte_sweep.py diff`: it lists the runs that differ and
exits 1 if any do, else 0.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import byte_sweep  # noqa: E402

ALGEBROID = (("delta_b", "delta_c", "eps_b", "eps_c", "antipode", "s_b", "s_c",
              "b_basis", "c_basis"), ("check-algebroid", "algebroid-to-wmha"))
WMHA = (("delta", "counit", "antipode", "idempotent"), ("check-wmha", "roundtrip"))
COMMANDS = ALGEBROID[1] + WMHA[1]
MUTANT = "mutant.json"


def _sources(engine) -> list[tuple[str, str, tuple]]:
    """(source name, file written in the current directory, (tensors,
    commands)) of each source, in sweep order."""
    for argv in (["gen-example", "pair-groupoid", "--n", "2", "--out", "pair-2.json"],
                 ["wmha-to-algebroid", "pair-2.json", "--out", "pair-2.algebroid"],
                 ["gen-example", "counit-twist", "--out", "counit-twist.algebroid"]):
        run = byte_sweep._run(engine, argv, [])
        if run["exit"] != 0:
            sys.exit(f"{' '.join(argv)}: {run}")
    engine.io.dump(engine.io.wmha_to_dict(engine.examples.swap_crossed_setup()[0]),
                   "crossed-swap.json")
    return [("pair-2", "pair-2.algebroid", ALGEBROID),
            ("counit-twist", "counit-twist.algebroid", ALGEBROID),
            ("pair-2-wmha", "pair-2.json", WMHA),
            ("crossed-swap-wmha", "crossed-swap.json", WMHA)]


def _entries(node, where: str):
    """(path, container, key) of every leaf entry of a nested list."""
    for i, item in enumerate(node):
        if isinstance(item, list):
            yield from _entries(item, f"{where}[{i}]")
        else:
            yield f"{where}[{i}]", node, i


def decided_by(engine, doc: dict) -> str:
    """Where the wmha suite decides the projector records of the bundle
    doc describes: "certificate" (H holds), "generators" (S bijective
    and anti-multiplicative, the square generated), "basis", "not
    reached" (S singular ends the suite first) or "rejected"."""
    wmha = importlib.import_module("weakhopf.wmha")
    try:
        bundle = engine.io.wmha_from_dict(doc)
    except ValueError:
        return "rejected"
    wmha.run_suite(bundle)
    if bundle.maps.antipode_inv is None:
        return "not reached"
    if bundle.maps.certificate is not None:
        return "certificate"
    return "generators" if bundle.maps.module_premise else "basis"


def canonical_ending(run: dict) -> str:
    """How `algebroid-canonical-maps-bijective` ends in an algebroid run:
    "pass", "not well-defined", "rank" or "not reached"."""
    if run["exit"] not in (0, 1):
        return "not reached"
    report = json.loads(run["stdout"])
    if report["report"] == "reconstruction":
        return "pass"
    rec = next((r for r in report["checks"]
                if r["check"] == "algebroid-canonical-maps-bijective"), None)
    if rec is None:
        return "not reached"
    if rec["status"] == "pass":
        return "pass"
    return "not well-defined" if "not well-defined" in rec["witness"]["error"] else "rank"


def canonical_path(engine, path: str) -> str:
    """"<balanced>, <decided>" for the algebroid file at path: balanced
    is "section" when its graph pair finds its idempotent, else
    "relation"; decided is where ``check_canonical_maps``, run on it
    once more, decides the failing map, or every map of a pass
    (``canonical_paths``): "generators" when on the module generators
    alone, "rank fallback" when one needs the rank after them, else
    "columns" (on the d^2 basis columns, the only path of an engine
    without the record)."""
    alg = engine.io.parse_document(engine.io.load(path))
    balanced = "relation" if alg.graph.e_element is None else "section"
    record = importlib.import_module("weakhopf.algebroid").check_canonical_maps(alg)
    paths = list(getattr(alg, "canonical_paths", {None: "columns"}).values())
    if record.status != "pass":
        paths = paths[-1:]
    decided = ("columns" if "columns" in paths else "rank fallback" if "rank" in paths
               else "generators")
    return f"{balanced}, {decided}"


def stage_decisions(engine, path: str) -> list[str]:
    """"<record> <how>" for each of reconstruction's range and kernel
    stages that the pipeline, run in process on the algebroid file at
    path, reaches: how is "under H" when the rebuilt maps hold the
    certificate, else "by echelon forms" for the range stage and
    "without H" for the kernel stage."""
    recon = importlib.import_module("weakhopf.reconstruction")
    out: list[str] = []

    def watched(stage, without):
        def run(*args):
            ok = stage(*args)
            maps, report = args[-2:]
            out.append(f"{report.records[-1].name} "
                       + ("under H" if maps.certificate is not None else without))
            return ok
        return run

    saved = recon.check_ranges_and_fullness, recon.check_kernels
    recon.check_ranges_and_fullness = watched(saved[0], "by echelon forms")
    recon.check_kernels = watched(saved[1], "without H")
    try:
        recon.reconstruction_pipeline(engine.io.parse_document(engine.io.load(path)))
    except recon.ReconstructionError:
        pass
    finally:
        recon.check_ranges_and_fullness, recon.check_kernels = saved
    return out


def reaches_stages(run: dict) -> bool:
    """Whether an algebroid-to-wmha run reports the range stage."""
    return run["exit"] in (0, 1) and any(
        rec["check"] == "rebuilt-range-conditions"
        for rec in json.loads(run["stdout"])["checks"])


def record(checkout: Path) -> tuple[dict, dict[str, collections.Counter]]:
    """The recording, and the stage tallies, which are printed only."""
    engine, _ = byte_sweep._load(checkout.resolve())
    inputs: dict[str, dict[str, str]] = {}
    runs: list[dict] = []
    decided: dict[str, collections.Counter] = {}
    canonical: dict[str, collections.Counter] = {}
    stages: dict[str, collections.Counter] = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, path, (tensors, commands) in _sources(engine):
                inputs[name] = {path: byte_sweep._sha256(path)}
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                index = 0
                for tensor in tensors:
                    for where, container, key in _entries(doc[tensor], tensor):
                        original = container[key]
                        for shift in (1, -1):
                            container[key] = str(Fraction(original) + shift)
                            engine.io.dump(doc, MUTANT)
                            if tensors == WMHA[0]:
                                decided.setdefault(name, collections.Counter())[
                                    decided_by(engine, doc)] += 1
                            path_taken = None
                            for command in commands:
                                argv = ["--format", "json", command, MUTANT]
                                # one exhaustive sweep: no seed, one format
                                runs.append({"workload": name, "seed": 0, "format": "json",
                                             "index": index,
                                             "op": f"{command} {where}{shift:+d}",
                                             "argv": argv,
                                             **byte_sweep._run(engine, argv, [])})
                                index += 1
                                if tensors == ALGEBROID[0]:
                                    ending = canonical_ending(runs[-1])
                                    if ending != "not reached":
                                        path_taken = path_taken or canonical_path(engine, MUTANT)
                                        ending = f"{ending} ({path_taken})"
                                    canonical.setdefault(name, collections.Counter())[
                                        f"{command} {ending}"] += 1
                                    if command == "algebroid-to-wmha" and reaches_stages(runs[-1]):
                                        stages.setdefault(name, collections.Counter()).update(
                                            stage_decisions(engine, MUTANT))
                        container[key] = original
        finally:
            os.chdir(home)
    return {"inputs": inputs, "runs": runs,
            "decided": {name: dict(counts) for name, counts in decided.items()},
            "canonical": {name: dict(counts) for name, counts in canonical.items()}}, stages


def tallies(runs: list[dict]) -> dict[str, tuple[collections.Counter, collections.Counter]]:
    """command -> (runs per outcome, runs failing each record).  The
    outcome is "<report> <summary>" for a run that exits 0 or 1, else
    its exit; a record is named "<report>/<check>"."""
    out = {command: (collections.Counter(), collections.Counter()) for command in COMMANDS}
    for run in runs:
        outcomes, failures = out[run["argv"][2]]
        if run["exit"] not in (0, 1):
            outcomes[f"exit {run['exit']}"] += 1
            continue
        report = json.loads(run["stdout"])
        outcomes[f"{report['report']} {report['summary']}"] += 1
        failures.update(f"{report['report']}/{rec['check']}"
                        for rec in report["checks"] if rec["status"] == "fail")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("checkout", type=Path)
    rec.add_argument("out", type=Path)
    cmp_ = sub.add_parser("diff")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return byte_sweep.main(["diff", str(args.a), str(args.b)])
    doc, stages = record(args.checkout)
    args.out.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    exits = collections.Counter(str(r["exit"]) for r in doc["runs"])
    print(f"{len(doc['runs'])} runs -> {args.out}; exits: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items())))
    for command, (outcomes, failures) in tallies(doc["runs"]).items():
        print(f"{command}: " + ", ".join(f"{name}: {n}" for name, n in sorted(outcomes.items())))
        for name, n in sorted(failures.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {n:6d}  {name}")
    for name, counts in doc["decided"].items():
        print(f"{name} projector records: "
              + ", ".join(f"{where}: {n}" for where, n in sorted(counts.items())))
    for name, counts in doc["canonical"].items():
        print(f"{name} canonical maps:")
        for ending, n in sorted(counts.items()):
            print(f"  {n:6d}  {ending}")
    for name, counts in stages.items():
        print(f"{name} algebroid-to-wmha range and kernel stages:")
        for how, n in sorted(counts.items()):
            print(f"  {n:6d}  {how}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
