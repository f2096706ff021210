"""Run every single-entry mutant of two algebroid files through the CLI,
and compare two recordings.

    python3 tools/mutant_sweep.py record <checkout> <out.json>
    python3 tools/mutant_sweep.py diff <a.json> <b.json>

`record` imports `weakhopf` from `<checkout>/src` (as
`tools/byte_sweep.py` does, without writing into the checkout) and
writes, in a fresh directory, the pair-2 algebroid (`wmha-to-algebroid`
of `gen-example pair-groupoid --n 2`) and the counit-twist algebroid
(`gen-example counit-twist`).  For every entry of delta_b, delta_c,
eps_b, eps_c, antipode, s_b, s_c, b_basis and c_basis, zero or not, and
each shift +1 and -1, it writes the mutant file and runs `check-algebroid`
and then `algebroid-to-wmha` on it through `weakhopf.cli.main` in
process, under `--format json`.  Each run keeps its exit code (or the
exception it raised), stdout and stderr: 5,824 runs in all.

`diff` is `tools/byte_sweep.py diff`: it lists the runs that differ and
exits 1 if any do, else 0.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import byte_sweep  # noqa: E402

TENSORS = ("delta_b", "delta_c", "eps_b", "eps_c", "antipode", "s_b", "s_c",
           "b_basis", "c_basis")
COMMANDS = ("check-algebroid", "algebroid-to-wmha")
MUTANT = "mutant.json"


def _sources(engine) -> dict[str, str]:
    """Source name -> algebroid file written in the current directory."""
    for argv in (["gen-example", "pair-groupoid", "--n", "2", "--out", "pair-2.json"],
                 ["wmha-to-algebroid", "pair-2.json", "--out", "pair-2.algebroid"],
                 ["gen-example", "counit-twist", "--out", "counit-twist.algebroid"]):
        run = byte_sweep._run(engine, argv, [])
        if run["exit"] != 0:
            sys.exit(f"{' '.join(argv)}: {run}")
    return {"pair-2": "pair-2.algebroid", "counit-twist": "counit-twist.algebroid"}


def _entries(node, where: str):
    """(path, container, key) of every leaf entry of a nested list."""
    for i, item in enumerate(node):
        if isinstance(item, list):
            yield from _entries(item, f"{where}[{i}]")
        else:
            yield f"{where}[{i}]", node, i


def record(checkout: Path) -> dict:
    engine, _ = byte_sweep._load(checkout.resolve())
    inputs: dict[str, dict[str, str]] = {}
    runs: list[dict] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, path in _sources(engine).items():
                inputs[name] = {path: byte_sweep._sha256(path)}
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                index = 0
                for tensor in TENSORS:
                    for where, container, key in _entries(doc[tensor], tensor):
                        original = container[key]
                        for shift in (1, -1):
                            container[key] = str(Fraction(original) + shift)
                            engine.io.dump(doc, MUTANT)
                            for command in COMMANDS:
                                argv = ["--format", "json", command, MUTANT]
                                # one exhaustive sweep: no seed, one format
                                runs.append({"workload": name, "seed": 0, "format": "json",
                                             "index": index,
                                             "op": f"{command} {where}{shift:+d}",
                                             "argv": argv,
                                             **byte_sweep._run(engine, argv, [])})
                                index += 1
                        container[key] = original
        finally:
            os.chdir(home)
    return {"inputs": inputs, "runs": runs}


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
    doc = record(args.checkout)
    args.out.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    exits = collections.Counter(str(r["exit"]) for r in doc["runs"])
    print(f"{len(doc['runs'])} runs -> {args.out}; exits: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
