import json

import pytest

from weakhopf import cli
from weakhopf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_check_pair_groupoid(tmp_path, capsys):
    path = tmp_path / "p2.json"
    code, _ = run(capsys, "gen-example", "pair-groupoid", "--n", "2",
                  "--out", str(path))
    assert code == 0
    code, out = run(capsys, "--format", "json", "check-wmha", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == "pass"


def test_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    _, out1 = run(capsys, "--format", "json", "check-wmha", str(path))
    _, out2 = run(capsys, "--format", "json", "check-wmha", str(path))
    assert out1 == out2


def test_mutated_file_fails_with_witness(tmp_path, capsys):
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["counit"][1] = "1"  # counit must vanish off the units
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--format", "json", "check-wmha", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["summary"] == "fail"
    assert any("witness" in rec for rec in report["checks"])


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "check-wmha", str(path))
    assert code == 2
    path.write_text(json.dumps({"schema": 99, "kind": "wmha"}))
    code, _ = run(capsys, "check-wmha", str(path))
    assert code == 2


def test_forward_and_back_via_cli(tmp_path, capsys):
    wmha_path = tmp_path / "p2.json"
    alg_path = tmp_path / "p2-algebroid.json"
    back_path = tmp_path / "p2-back.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(wmha_path))
    code, _ = run(capsys, "wmha-to-algebroid", str(wmha_path),
                  "--out", str(alg_path))
    assert code == 0
    code, _ = run(capsys, "check-algebroid", str(alg_path))
    assert code == 0
    code, _ = run(capsys, "algebroid-to-wmha", str(alg_path),
                  "--out", str(back_path))
    assert code == 0
    original = json.loads(wmha_path.read_text())
    rebuilt = json.loads(back_path.read_text())
    assert rebuilt["delta"] == original["delta"]
    assert rebuilt["counit"] == original["counit"]
    assert rebuilt["antipode"] == original["antipode"]
    assert rebuilt["idempotent"] == original["idempotent"]


def test_roundtrip_command(tmp_path, capsys):
    path = tmp_path / "z2.json"
    run(capsys, "gen-example", "cyclic-group", "--n", "2", "--out", str(path))
    code, out = run(capsys, "roundtrip", str(path))
    assert code == 0
    assert "roundtrip-tensors-identical" in out


def test_obstructed_examples_via_cli(tmp_path, capsys):
    for scenario, stage in (("radical", "NotSeparableFrobenius"),
                            ("auto-swap", "ModularAutomorphismMismatch")):
        path = tmp_path / f"{scenario}.json"
        out_path = tmp_path / f"{scenario}-obstruction.json"
        run(capsys, "gen-example", "obstructed", "--scenario", scenario,
            "--out", str(path))
        code, out = run(capsys, "--format", "json", "algebroid-to-wmha",
                        str(path), "--out", str(out_path))
        assert code == 1
        report = json.loads(out)
        names = [rec["check"] for rec in report["checks"]]
        assert f"obstruction-{stage}" in names
        assert "witness-revalidation" in names
        rec = next(r for r in report["checks"] if r["check"] == "witness-revalidation")
        assert rec["status"] == "pass"
        written = json.loads(out_path.read_text())
        assert written["stage"] == stage


def test_counit_twist_example_via_cli(tmp_path, capsys):
    path = tmp_path / "twist.json"
    run(capsys, "gen-example", "counit-twist", "--out", str(path))
    doc = json.loads(path.read_text())
    assert doc["expected_verdict"] == "CounitsDiffer"
    code, out = run(capsys, "--format", "json", "algebroid-to-wmha", str(path))
    assert code == 1
    report = json.loads(out)
    assert any(r["check"] == "obstruction-CounitsDiffer" for r in report["checks"])


def test_lazy_pair_probe_statuses(tmp_path, capsys):
    path = tmp_path / "lazy.json"
    run(capsys, "gen-example", "lazy-pair", "--probes", "6", "--out", str(path))
    code, out = run(capsys, "--format", "json", "check-wmha", str(path))
    assert code == 0
    report = json.loads(out)
    statuses = {rec["check"]: rec["status"] for rec in report["checks"]}
    assert statuses["idempotent-squared"] == "verified-on-probes"
    assert statuses["coproduct-homomorphism"] == "verified-on-probes"
    assert statuses["counit-laws-on-elements"] == "pass"


def test_weighted_base_example(tmp_path, capsys):
    path = tmp_path / "m2w.json"
    run(capsys, "gen-example", "base-m2", "--variant", "weighted",
        "--out", str(path))
    code, _ = run(capsys, "check-wmha", str(path))
    assert code == 0


@pytest.mark.parametrize("command, example", [("algebroid-to-wmha", "obstructed"),
                                              ("roundtrip", "pair-groupoid")])
def test_reconstruction_error_is_a_report(tmp_path, capsys, monkeypatch, command, example):
    path = tmp_path / "input.json"
    run(capsys, "gen-example", example, "--out", str(path))

    def broken(*args, **kwargs):
        raise cli.ReconstructionError("rebuilt coproducts do not merge")

    monkeypatch.setattr(cli, "reconstruction_pipeline", broken)
    code = main(["--format", "json", command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    records = {r["check"]: r for r in json.loads(captured.out)["checks"]}
    record = records["internal-inconsistency"]
    assert record["status"] == "fail"
    assert record["witness"] == {"error": "rebuilt coproducts do not merge"}
