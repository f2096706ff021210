"""Record every benchmark operation's bytes, and compare two recordings.

    python3 tools/byte_sweep.py record <checkout> <out.json> --seeds 1 2
    python3 tools/byte_sweep.py diff <a.json> <b.json>

`record` imports `weakhopf` from `<checkout>/src` and the workloads from
`<checkout>/perfbench/workloads.py`, without writing into the checkout.
For each seed and each workload, in list order, it generates the
workload's inputs in a fresh directory and runs every operation through
`weakhopf.cli.main` in process, in list order, once under `--format json`
and then once more under `--format text`.  It stores the sha256 of every
generated input, and for each run the exit code, stdout, stderr and
every `--out` file.  Inputs are written under a relative directory name,
so reports that name a path read the same in any checkout.

`diff` lists the runs (and input sets) that differ between two
recordings and exits 1 if any do, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ENGINE_MODULES = ("cli", "io", "algebra", "examples", "groupoids", "separability")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(checkout: Path):
    """The engine modules (by short name) and the workloads module."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    engine = argparse.Namespace(**{name: importlib.import_module(f"weakhopf.{name}")
                                   for name in ENGINE_MODULES})
    spec = importlib.util.spec_from_file_location("byte_sweep_workloads",
                                                  checkout / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return engine, workloads


def _run(engine, argv: list[str], outputs: list[str]) -> dict:
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = engine.cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # recorded, so a traceback is a difference too
            code = f"raised {type(exc).__name__}: {exc}"
    files = {}
    for path in outputs:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
        else:
            files[path] = None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def record(checkout: Path, seeds: list[int]) -> dict:
    engine, workloads = _load(checkout.resolve())
    inputs: dict[str, dict[str, str]] = {}
    runs: list[dict] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for seed in seeds:
                for workload, build in workloads.WORKLOADS.items():
                    where = f"{workload}-seed{seed}"
                    os.mkdir(where)
                    ops = build(workloads.Inputs(engine, where, random.Random(seed)))
                    inputs[where] = {name: _sha256(os.path.join(where, name))
                                     for name in sorted(os.listdir(where))}
                    for fmt in ("json", "text"):
                        for index, op in enumerate(ops):
                            argv = list(op.argv)
                            argv[argv.index("--format") + 1] = fmt
                            runs.append({"workload": workload, "seed": seed, "format": fmt,
                                         "index": index, "op": op.name, "argv": argv,
                                         **_run(engine, argv, op.outputs)})
        finally:
            os.chdir(home)
    return {"seeds": seeds, "inputs": inputs, "runs": runs}


def diff(a: dict, b: dict) -> list[str]:
    """One line per input set or run that differs between a and b."""
    lines = []
    for where in sorted(set(a["inputs"]) | set(b["inputs"])):
        if a["inputs"].get(where) != b["inputs"].get(where):
            lines.append(f"inputs {where}")

    def keyed(doc):
        return {(r["workload"], r["seed"], r["format"], r["index"]): r for r in doc["runs"]}

    ra, rb = keyed(a), keyed(b)
    for key in sorted(set(ra) | set(rb), key=str):
        x, y = ra.get(key), rb.get(key)
        if x is None or y is None:
            lines.append(f"{key}: only in {'b' if x is None else 'a'}")
            continue
        fields = [f for f in ("op", "argv", "exit", "stdout", "stderr", "files") if x[f] != y[f]]
        if fields:
            lines.append(f"{key} {x['op']}: {', '.join(fields)} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("checkout", type=Path)
    rec.add_argument("out", type=Path)
    rec.add_argument("--seeds", type=int, nargs="+", required=True)
    cmp_ = sub.add_parser("diff")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        doc = record(args.checkout, args.seeds)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(doc['runs'])} runs over {len(doc['inputs'])} input sets -> {args.out}")
        return 0
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b))
    lines = diff(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences over {len(a['runs'])} and {len(b['runs'])} runs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
