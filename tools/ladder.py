"""Time the engine's layers on pair groupoids above the benchmark's ladder.

    python3 tools/ladder.py 5 6

For each n it builds K(pair groupoid on n units), a weak multiplier Hopf
algebra of dimension n^2, and times in process, in seconds at the
reference speed of ``perfbench/speed.py``: while a ``SpeedProbe`` runs,
each step's ``Interval`` busy time is scaled by the probes around it, so
a change in the host's speed cancels out:

* wmha: ``wmha.run_suite`` on the bundle;
* forward: ``algebroid.forward_construct``;
* algebroid: ``algebroid.check_algebroid_axioms`` on its algebroid;
* algebroid-file: the same suite on the algebroid read back from its
  definition file, ``io.parse_document(io.algebroid_to_dict(alg))``.
  Its graph pair finds its own separability idempotent, as every graph
  pair whose base has a separating functional does, so it takes the
  sections too; it also pays for that search;
* reconstruction: ``reconstruction.reconstruction_pipeline`` on it.

Every step must pass and the rebuilt bundle must equal the input, else
the script stops with exit 1.  Each step is timed on REPEAT fresh bundles
and the median is printed.  The engine is
imported from the ``src/`` next to this script, and the probe from the
``perfbench/`` next to it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from speed import Interval, SpeedProbe  # noqa: E402
from weakhopf import io  # noqa: E402
from weakhopf.algebroid import check_algebroid_axioms, forward_construct  # noqa: E402
from weakhopf.groupoids import as_wmha, pair_groupoid  # noqa: E402
from weakhopf.reconstruction import PipelineResult, reconstruction_pipeline  # noqa: E402
from weakhopf.wmha import run_suite  # noqa: E402

STEPS = ("wmha", "forward", "algebroid", "algebroid-file", "reconstruction")
REPEAT = 3


def _timed(probe: SpeedProbe, fn, *args):
    """fn(*args) and its busy time in seconds at the reference speed."""
    interval = Interval(probe)
    got = fn(*args)
    interval.stop()
    return got, interval.busy * probe.scale(interval.start, interval.end)


def one_pass(probe: SpeedProbe, n: int) -> dict[str, float]:
    """Reference seconds per step on a fresh pair-n bundle; exits 1 on a
    failure."""
    bundle = as_wmha(pair_groupoid(n))
    suite, t_wmha = _timed(probe, run_suite, bundle)
    (alg, forward), t_forward = _timed(probe, forward_construct, bundle)
    if not suite.ok or alg is None:
        sys.exit(f"pair-{n}: the wmha suite or the forward construction failed")
    report, t_algebroid = _timed(probe, check_algebroid_axioms, alg)
    loaded = io.parse_document(io.algebroid_to_dict(alg))
    file_report, t_file = _timed(probe, check_algebroid_axioms, loaded)
    got, t_rec = _timed(probe, reconstruction_pipeline, alg)
    if not (report.ok and file_report.ok and isinstance(got, PipelineResult)
            and got.bundle.delta == bundle.delta and got.bundle.counit == bundle.counit
            and got.bundle.E == bundle.E and got.bundle.antipode == bundle.antipode):
        sys.exit(f"pair-{n}: the algebroid suite or the round trip failed")
    return dict(zip(STEPS, (t_wmha, t_forward, t_algebroid, t_file, t_rec)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="+", type=int, help="numbers of units n >= 1")
    args = parser.parse_args(argv)
    if min(args.sizes) < 1:
        parser.error("sizes must be positive")
    print(f"{'input':<10}{'d':>5}" + "".join(f"{s:>16}" for s in STEPS))
    with SpeedProbe() as probe:
        for n in args.sizes:
            runs = [one_pass(probe, n) for _ in range(REPEAT)]
            row = [statistics.median(r[s] for r in runs) for s in STEPS]
            print(f"{f'pair-{n}':<10}{n * n:>5}" + "".join(f"{t:>16.2f}" for t in row),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
