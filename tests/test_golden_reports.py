"""Byte-identity gate: corpus files and CLI reports against committed bytes.

Each case runs ``weakhopf.cli.main`` in process and compares the exit
code, stdout, stderr and the bytes written to ``--out`` with the record
stored in ``tests/golden/<case>.json``.  Inputs are produced by
``gen-example`` in a temporary directory; their bytes are themselves
golden cases.  To rewrite the golden files after a deliberate output
change, run ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from weakhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> gen-example arguments
CORPUS = {
    "pair-2": ["pair-groupoid", "--n", "2"],
    "cyclic-6": ["cyclic-group", "--n", "6"],
    "action-swap": ["action-swap"],
    "base-m2-trace": ["base-m2", "--variant", "trace"],
    "base-m2-weighted": ["base-m2", "--variant", "weighted"],
    "radical": ["obstructed", "--scenario", "radical"],
    "auto-swap": ["obstructed", "--scenario", "auto-swap"],
    "counit-twist": ["counit-twist"],
    "lazy-pair": ["lazy-pair"],
    "lazy-pair-1": ["lazy-pair", "--probes", "1"],
    "lazy-pair-8": ["lazy-pair", "--probes", "8"],
}

# case name -> (command, input file, writes --out); run in both formats,
# in this order, because later inputs are earlier --out files
COMMANDS = [
    ("check-wmha", "pair-2", False),
    ("check-wmha", "cyclic-6", False),
    ("check-wmha", "lazy-pair", False),
    ("check-wmha", "lazy-pair-1", False),
    ("check-wmha", "lazy-pair-8", False),
    ("roundtrip", "pair-2", False),
    ("roundtrip", "action-swap", False),
    ("roundtrip", "base-m2-weighted", False),
    ("wmha-to-algebroid", "pair-2", True),
    ("check-algebroid", "pair-2-algebroid", False),
    ("algebroid-to-wmha", "pair-2-algebroid", True),
    ("algebroid-to-wmha", "radical", True),
    ("algebroid-to-wmha", "auto-swap", True),
    ("algebroid-to-wmha", "counit-twist", True),
    ("check-wmha", "pair-2-mutant", False),
]


def _run(argv: list[str], out: Path | None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + (["--out", str(out)] if out is not None else []))
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "out": out.read_text() if out is not None and out.exists() else None}


def _mutate_pair2(src: Path, dst: Path) -> None:
    doc = json.loads(src.read_text())
    doc["delta"][1][1][2] = "1"  # one Delta(e_(1,2)) entry off its arrow pair
    dst.write_text(json.dumps(doc))


def run_all(workdir: Path) -> dict[str, dict]:
    results: dict[str, dict] = {}
    files: dict[str, Path] = {}
    for name, args in CORPUS.items():
        files[name] = workdir / f"{name}.json"
        results[f"gen-{name}"] = _run(["gen-example", *args], files[name])
    files["pair-2-mutant"] = workdir / "pair-2-mutant.json"
    _mutate_pair2(files["pair-2"], files["pair-2-mutant"])
    for command, source, writes in COMMANDS:
        for fmt in ("text", "json"):
            out = workdir / f"{command}-{source}.{fmt}.out.json" if writes else None
            results[f"{command}-{source}.{fmt}"] = _run(
                ["--format", fmt, command, str(files[source])], out)
            if command == "wmha-to-algebroid" and fmt == "json":
                files[f"{source}-algebroid"] = out
    return results


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


CASES = [f"gen-{name}" for name in CORPUS] + [
    f"{command}-{source}.{fmt}" for command, source, _ in COMMANDS
    for fmt in ("text", "json")]


@pytest.mark.parametrize("case", CASES)
def test_golden_report(actual, case):
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    assert actual[case] == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_all(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.json").write_text(
            json.dumps(got[case], indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(CASES)} golden files to {GOLDEN}\n")
