"""Smoke test of the benchmark itself (not collected by the repo's suite).

    python -m pytest -q perfbench/test_smoke.py

Runs a reduced pair-2-only pass untraced and traced, checks the result
object against BENCHMARK.json, and checks that the correctness gate
reports a wrong expected verdict and an escaped mutant as failures.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speed import Interval, SpeedProbe  # noqa: E402
from workloads import (WORKLOADS, Op, certify_ops, expect_obstruction,  # noqa: E402
                       expect_refuted)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pair2(inputs):
    return certify_ops(inputs, ["pair-2"])


@pytest.mark.parametrize("trace", [False, True])
def test_pair2_pass_matches_declared_schema(tmp_path, trace):
    result = run.measure(pair2, seed=3, seconds=0, trace=trace, work=tmp_path / "work",
                         trace_path=tmp_path / "spans.json")
    assert result["failures"] == []
    assert result["attempted"] == (4 if trace else 2)
    units = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    line = json.loads(json.dumps(run.result_line(result, units)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert line["metrics"]["wmha.run_suite_s"]["value"] > 0
        assert line["metrics"]["reconstruction.reconstruction_pipeline_s"]["value"] > 0
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        roots = [s for s in spans if s[0] == "cli.main"]
        assert len(roots) == 2 and all(s[3] is None for s in roots)
    else:
        assert line["metrics"]["setup_s"]["value"] > 0


def test_probe_time_is_left_out_of_busy_time():
    with SpeedProbe() as probe:
        interval = Interval(probe)
        deadline = perf_counter() + 0.35
        while perf_counter() < deadline:
            pass
        interval.stop()
    assert len(probe.times) >= 4  # at entry, at exit and from the timer in between
    assert 0 < interval.busy < interval.end - interval.start
    assert probe.scale(interval.start, interval.end) > 0


def test_every_declared_metric_is_produced_by_the_tracer():
    from tracing import Tracer
    produced = set(Tracer().metrics(0.0))
    assert {m["name"] for m in SPEC["per_layer"]} == produced


def _gate_failures(tmp_path, build):
    result = run.measure(build, seed=1, seconds=0, trace=False, work=tmp_path / "work")
    return result["failures"]


def test_gate_catches_a_wrong_expected_verdict(tmp_path):
    def build(inputs):
        engine = inputs.engine
        bundle = engine.io.parse_document(inputs.doc("pair-2"))
        alg, _ = engine.algebroid.forward_construct(bundle)
        doc = engine.io.algebroid_to_dict(alg, expected_verdict="CounitsDiffer")
        alg = inputs.write("pair-2.algebroid", doc)
        return [Op("algebroid-to-wmha pair-2", ["--format", "json", "algebroid-to-wmha", alg],
                   expect_obstruction(doc["expected_verdict"]))]

    failures = _gate_failures(tmp_path, build)
    assert len(failures) == 1 and "algebroid-to-wmha pair-2" in failures[0]


def test_gate_catches_an_escaped_mutant(tmp_path):
    def build(inputs):
        path = inputs.write("pair-2", inputs.doc("pair-2"))
        return [Op("unmutated pair-2", ["--format", "json", "check-wmha", path],
                   expect_refuted())]

    failures = _gate_failures(tmp_path, build)
    assert len(failures) == 1 and "mutant escaped" in failures[0]


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert len(SPEC["per_layer"]) <= 128


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
