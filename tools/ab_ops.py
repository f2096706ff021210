"""Per-operation A/B timing of two checkouts within one process.

    python3 tools/ab_ops.py <old> <new> <workload> --reps N [--only SUBSTR] [--seed S]

Loads `<old>/src/weakhopf` and `<new>/src/weakhopf` side by side, under
the package names `weakhopf_old` and `weakhopf_new`, with bytecode
writing off, so nothing is written into either checkout.  The
workload's inputs are generated once, in a fresh temporary directory,
by `<old>/perfbench/workloads.py` (only read) with the old engine and
the seed (default 1).  Each repetition runs every operation whose name
contains SUBSTR (every one by default) once on each engine, back to
back through its `cli.main`, after a `gc.collect()`; the engine that
goes first flips on every repetition.  Both runs must print the same
stdout and pass the operation's `Op.check`, else the tool stops with
exit 1.

It prints, per operation, the median old and new milliseconds and the
minimum and median of the per-repetition ratio new/old, and the same
for the total over the operations.

Why one process: the host's speed drifts, so separate processes timing
the same operation back to back can differ by almost a factor of two
(11.6 against 21.2 ms seen on a 2-core VM).  Interleaved runs see the
same drift on both sides, and the ratio of each pair cancels it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ENGINE_MODULES = ("cli", "io", "algebra", "examples", "groupoids", "separability")


def load_engine(checkout: Path, alias: str) -> argparse.Namespace:
    """The engine modules of `checkout`, imported as package `alias`."""
    package = checkout / "src" / "weakhopf"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = sys.modules[alias] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return argparse.Namespace(**{name: importlib.import_module(f"{alias}.{name}")
                                 for name in ENGINE_MODULES})


def load_workloads(checkout: Path):
    spec = importlib.util.spec_from_file_location("ab_ops_workloads",
                                                  checkout / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed(engine, op) -> tuple[float, str]:
    """Seconds of one CLI call and its stdout; stops on a failed check."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = engine.cli.main(op.argv)
        seconds = perf_counter() - start
    reason = op.check(code, out.getvalue()) or (err.getvalue() and "wrote to stderr")
    if reason:
        sys.exit(f"{op.name}: {reason}")
    return seconds, out.getvalue()


def line(name: str, old: list[float], new: list[float]) -> str:
    ratios = [b / a for a, b in zip(old, new)]
    return (f"{name:<48} {statistics.median(old) * 1e3:9.2f} {statistics.median(new) * 1e3:9.2f}"
            f" {min(ratios):7.3f} {statistics.median(ratios):7.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--only", default="")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sys.dont_write_bytecode = True
    engines = (load_engine(args.old.resolve(), "weakhopf_old"),
               load_engine(args.new.resolve(), "weakhopf_new"))
    workloads = load_workloads(args.old.resolve())
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir("inputs")
            ops = workloads.WORKLOADS[args.workload](
                workloads.Inputs(engines[0], "inputs", random.Random(args.seed)))
            ops = [op for op in ops if args.only in op.name]
            times = [([], []) for _ in ops]
            for rep in range(args.reps):
                order = (0, 1) if rep % 2 == 0 else (1, 0)
                for op, samples in zip(ops, times):
                    stdout = [None, None]
                    for side in order:
                        seconds, stdout[side] = timed(engines[side], op)
                        samples[side].append(seconds)
                    if stdout[0] != stdout[1]:
                        sys.exit(f"{op.name}: stdout differs between old and new")
        finally:
            os.chdir(home)
    print(f"{args.workload} seed {args.seed}, {args.reps} reps; "
          f"median ms old / new, ratio new/old min / median")
    for op, (old, new) in zip(ops, times):
        print(line(op.name, old, new))
    totals = [[sum(samples[side][rep] for samples in times) for rep in range(args.reps)]
              for side in (0, 1)]
    print(line("total", *totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
