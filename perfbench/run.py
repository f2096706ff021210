"""Time-to-verdict benchmark for the weakhopf command line.

    python3 perfbench/run.py --workload ladder-roundtrip --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the engine is imported from the
checkout's `src/`.  One client drives `weakhopf.cli.main` in process, in
a closed loop: each operation starts only after the previous verdict has
returned.  Set-up (imports, input generation and writing) is repeated
and its median reported as `setup_s`.  The timed part runs whole passes
over the workload's operations for `--seconds` (at least one pass); see
`measure`.  Every timing is put on a fixed reference speed by the probe
in `speed.py`, because the host's own speed drifts.

With `--trace 1` the untraced timed part is followed by one traced
pass; the run prints the per-layer metrics and writes the spans to
`.perfbench/trace-<workload>-seed<seed>.json`.

Every verdict is checked against the input's known answer; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`, whose names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io as _io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 11
ENGINE_MODULES = ("cli", "io", "reporting", "wmha", "base_algebras", "algebroid", "balanced",
                  "separability", "reconstruction", "witnesses", "linalg", "algebra", "lazy",
                  "groupoids", "examples")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import Interval, SpeedProbe  # noqa: E402
from tracing import Tracer, text_bits  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402


class Engine:
    """A fresh import of every weakhopf module, by short name."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "weakhopf" or n.startswith("weakhopf.")]:
            del sys.modules[name]
        for name in ENGINE_MODULES:
            setattr(self, name, importlib.import_module(f"weakhopf.{name}"))

    @staticmethod
    def modules():
        return [m for n, m in list(sys.modules.items()) if n.startswith("weakhopf.")]


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end-to-end and per-layer lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def set_up(build, seed: int, work: Path, probe: SpeedProbe | None = None):
    """Import the engine and write the workload's inputs; returns the
    engine, the operations and the set-up's `Interval`."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    interval = Interval(probe)
    engine = Engine()
    ops = build(Inputs(engine, str(work), random.Random(seed)))
    return engine, ops, interval.stop()


def run_op(engine, op, probe=None, tracer=None) -> tuple[Interval, str | None]:
    """Time one CLI call; the reason it failed its check, or None."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = _io.StringIO(), _io.StringIO()
    interval = Interval(probe)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = engine.cli.main(op.argv)
    except SystemExit as exc:
        return interval.stop(), f"exited through SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return interval.stop(), f"raised {type(exc).__name__}: {exc}"
    interval.stop()
    text = out.getvalue()
    if tracer is not None:
        tracer.note_bits(text_bits(text))
    try:
        reason = op.check(rc, text)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable report ({type(exc).__name__}: {exc})"
    if reason is None and err.getvalue():
        reason = f"wrote to stderr: {err.getvalue().strip()[:200]}"
    return interval, reason


def run_pass(engine, ops, samples, failures, probe=None, tracer=None) -> None:
    """Run every operation once, in order, appending each one's
    `Interval` to its list in `samples` and each failed check to
    `failures`."""
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        interval, reason = run_op(engine, op, probe, tracer)
        samples[i].append(interval)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")


def measure(build, seed: int, seconds: float, trace: bool, work: Path,
            trace_path: Path | None = None) -> dict:
    """Run one benchmark measurement; returns the result object with
    every metric this code produces (a superset of the declared ones).

    Whole passes, each running every operation once in the workload's
    order, go on while the next pass is expected to end within
    `seconds`; there is at least one.  So every operation gets the same
    number of samples, spread over the whole run (on `matrix-base-files`
    one pass takes about 23 s, so each operation runs once).  A sample's
    time is its busy time scaled to the reference speed (`speed.py`);
    an operation's time-to-verdict is the mean over its samples.
    `wall_s` is their sum (the time of one pass), `verdict_p50_s` their
    median and `verdict_max_s` their maximum.  With `trace`, one traced
    pass follows with the probe off, and `trace.overhead_s` is its wall
    time minus the mean unscaled busy time of the untraced passes.
    """
    failures: list[str] = []
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            engine, ops, interval = set_up(build, seed, work, probe)
            setups.append(interval.busy * probe.scale(interval.start, interval.end))
        samples: list[list[Interval]] = [[] for _ in ops]
        start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() + (perf_counter() - start) / passes <= start + seconds:
            run_pass(engine, ops, samples, failures, probe)
            passes += 1
        verdicts = [statistics.fmean(s.busy * probe.scale(s.start, s.end) for s in op_samples)
                    for op_samples in samples]
        raw_pass = sum(s.busy for op_samples in samples for s in op_samples) / passes
        host_scale = probe.mean_scale()
    attempted = passes * len(ops)
    if trace:
        tracer = Tracer()
        traced: list[list[Interval]] = [[] for _ in ops]
        tracer.install(engine)
        try:
            origin = perf_counter()
            run_pass(engine, ops, traced, failures, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        metrics = tracer.metrics(sum(s.busy for s, in traced) - raw_pass)
        if trace_path is not None:
            tracer.write(str(trace_path), {"seed": seed,
                                           "ops": [op.name for op in ops]}, metrics, origin)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(verdicts),
            "verdict_p50_s": statistics.median(verdicts),
            "verdict_max_s": max(verdicts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "failures": failures, "metrics": metrics, "passes": passes,
            "raw_wall_s": raw_pass, "host_scale": host_scale}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weakhopf" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no engine sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in result["failures"]:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations "
          f"in {result['passes']} passes, {result['failed']} failed; one pass took "
          f"{result['raw_wall_s']:.3f} s of busy wall time, at {result['host_scale']:.3f} "
          f"reference seconds per second")
    print(json.dumps(result_line(result, units)))
    return 0


def result_line(result: dict, units: dict[str, str]) -> dict:
    """The object the last output line carries: exactly the declared
    metrics, each with its unit."""
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise KeyError(f"declared metrics not produced: {missing}")
    return {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
