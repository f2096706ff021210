"""Peak memory of compiling each engine module from source.

    python3 tools/compile_peak.py <checkout> [<checkout> ...]

For each checkout, compiles every `src/weakhopf/*.py` with `compile()`
under `tracemalloc` and prints the peak allocation in KB, the module's
line count and its name, largest peak first.  Nothing is imported or
written.

Why: `perfbench/run.py` imports the engine afresh for each of its
set-ups with bytecode writing off, so every module is compiled from
source, and compiling the largest module sets the run's `peak_rss_mb`.
A change that grows that module reads as a memory rise even when the
engine's working set is unchanged.  Compare the largest peak of two
checkouts before and after such a change.
"""

from __future__ import annotations

import argparse
import tracemalloc
from pathlib import Path


def compile_peak(path: Path) -> int:
    """The tracemalloc peak, in bytes, of compiling the file at path:
    the least of three compiles, so that a one-time allocation of the
    interpreter (a table that grows, say) does not land on one file."""
    source = path.read_text(encoding="utf-8")
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    packages = [checkout / "src" / "weakhopf" for checkout in args.checkouts]
    for package in packages:
        if not package.is_dir():
            parser.error(f"no engine package at {package}")
    for checkout, package in zip(args.checkouts, packages):
        rows = sorted(((compile_peak(path), path) for path in package.glob("*.py")),
                      key=lambda row: (-row[0], row[1].name))
        print(f"{checkout}:")
        for peak, path in rows:
            lines = len(path.read_text(encoding="utf-8").splitlines())
            print(f"  {peak / 1024:8.0f} KB  {lines:5d} lines  {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
