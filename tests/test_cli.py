import json
from fractions import Fraction

import pytest

from weakhopf import algebra, cli
from weakhopf.cli import main
from weakhopf.wmha import WeakMultiplierHopfAlgebra


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


def test_check_wmha_validates_the_algebra_once(tmp_path, capsys, monkeypatch):
    """Loading validates the algebra and the suite's algebra check finds
    that success remembered: one associativity scan over the pair-2
    algebra (d = 4), row by row over its basis pairs."""
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    scans = []
    first_failure = algebra.first_failure
    monkeypatch.setattr(algebra, "first_failure",
                        lambda shape, laws: scans.append((shape, laws[0][0].__qualname__))
                        or first_failure(shape, laws))
    code, out = run(capsys, "check-wmha", str(path))
    assert code == 0 and "algebra-structure" in out
    assert scans.count(((4, 4), "FiniteAlgebra.validate.<locals>.left_row")) == 1


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


@pytest.mark.parametrize("tensor", ["delta[0][0] row", "delta[0][1] row", "counit"])
def test_misshapen_tensor_exits_2(tmp_path, capsys, tensor):
    """A pair-2 file (d = 4) with one vector of 5 entries is malformed
    input, not a structure to check: the extra entry must not be ignored
    or alias into the next row."""
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    row = {"delta[0][0] row": doc["delta"][0][0], "delta[0][1] row": doc["delta"][0][1],
           "counit": doc["counit"]}[tensor]
    row.append("0" if tensor == "delta[0][0] row" else "1")
    path.write_text(json.dumps(doc))
    code = main(["check-wmha", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("tensor", ["counit", "delta[0][0] row", "antipode"])
def test_array_given_as_string_or_object_exits_2(tmp_path, capsys, tensor):
    """Where the schema asks for an array, a string or an object of the
    right length is malformed input, not read entry by entry: the counit
    "1001", a coproduct row "0100", an antipode whose keys are its rows."""
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    if tensor == "counit":
        doc["counit"] = "".join(doc["counit"])
    elif tensor == "antipode":
        doc["antipode"] = {"".join(row): row for row in doc["antipode"]}
    else:
        doc["delta"][0][0] = "".join(doc["delta"][0][0])
    assert len(doc["counit"]) == len(doc["antipode"]) == 4
    path.write_text(json.dumps(doc))
    code = main(["check-wmha", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


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


def test_roundtrip_names_the_tensors_that_differ(tmp_path, capsys, monkeypatch):
    """A rebuilt bundle whose counit and idempotent differ from the input's
    fails the round trip naming exactly those two tensors."""
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    pipeline = cli.reconstruction_pipeline

    def altered(alg):
        got = pipeline(alg)
        b = got.bundle
        got.bundle = WeakMultiplierHopfAlgebra(b.algebra, b.delta, {**b.counit, 0: 7},
                                               b.antipode, {**b.E, 1: 7})
        return got

    monkeypatch.setattr(cli, "reconstruction_pipeline", altered)
    code = main(["--format", "json", "roundtrip", str(path)])
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 1
    assert records["roundtrip-tensors-identical"] == {
        "check": "roundtrip-tensors-identical", "status": "fail",
        "witness": {"tensors": ["counit", "idempotent"]}}


def test_failed_roundtrip_names_the_inputs_failing_law(tmp_path, capsys):
    """Every +-1 counit mutant of pair-2 rebuilds the honest counit, so
    the round trip fails on the counit alone; the input's own suite then
    names the counit law it breaks."""
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    honest = json.loads(path.read_text())
    for a in range(4):
        for shift in (1, -1):
            doc = json.loads(json.dumps(honest))
            doc["counit"][a] = str(Fraction(doc["counit"][a]) + shift)
            path.write_text(json.dumps(doc))
            code, out = run(capsys, "--format", "json", "roundtrip", str(path))
            records = {r["check"]: r for r in json.loads(out)["checks"]}
            assert code == 1
            assert records["roundtrip-tensors-identical"]["witness"] == {"tensors": ["counit"]}
            named = records["input-wmha-suite"]
            assert named["status"] == "fail"
            assert named["witness"]["check"] in ("counit-left-law", "counit-right-law")
            if (a, shift) == (1, 1):
                assert named["witness"]["check"] == "counit-right-law"
                assert named["witness"]["witness"]["pair"] == ["(1,1)", "(1,2)"]


@pytest.mark.parametrize("tensor, index, stage", [
    ("delta", (1, 0, 5), "mixed-coassociativity"),
    ("antipode", (0, 3), "counit-antipode-transport")])
def test_roundtrip_breakdown_keeps_the_forward_records(tmp_path, capsys, tensor, index, stage):
    """A crossed-swap mutant whose forward algebroid breaks
    reconstruction down: the report keeps the forward construction's
    records, then fails internal-inconsistency with the reconstruction
    report, then names the input's first failing law; exit 1."""
    from weakhopf import io
    from weakhopf.examples import swap_crossed_setup

    bundle = swap_crossed_setup()[0]
    doc = io.wmha_to_dict(bundle)
    *outer, last = index
    entry = doc[tensor]
    for k in outer:
        entry = entry[k]
    entry[last] = str(Fraction(entry[last]) + 1)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "--format", "json", "roundtrip", str(path))
    assert code == 1
    checks = json.loads(out)["checks"]
    names = [r["check"] for r in checks]
    assert names[0] == "base-subalgebras" and names[-2:] == ["internal-inconsistency",
                                                             "input-wmha-suite"]
    assert f"[fail] {stage}" in checks[-2]["witness"]["error"]
    assert checks[-1]["status"] == "fail" and checks[-1]["witness"]["check"]
    assert all(r["status"] == "pass" for r in checks[:-2])


def test_passing_roundtrip_runs_no_input_suite(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p2.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(path))
    monkeypatch.setattr(cli, "run_suite", lambda bundle: pytest.fail("input suite ran"))
    code, out = run(capsys, "roundtrip", str(path))
    assert code == 0 and "input-wmha-suite" not in out


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


@pytest.mark.parametrize("counit", ["eps_b", "eps_c"])
def test_counital_mutants_fail_without_a_traceback(tmp_path, capsys, counit):
    """Every single-entry (+1) mutant of eps_B or eps_C in the pair-2
    forward algebroid file fails check-algebroid and algebroid-to-wmha
    with exit 1 and a failed record carrying a witness.  Such a mutant
    can leave the base, so S_B(eps_B(b)) or S_C(eps_C(a)) in the antipode
    diagrams is undefined; that is a failure, not an exception."""
    wmha_path, alg_path = tmp_path / "p2.json", tmp_path / "p2-algebroid.json"
    run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(wmha_path))
    assert run(capsys, "wmha-to-algebroid", str(wmha_path), "--out", str(alg_path))[0] == 0
    doc = json.loads(alg_path.read_text())
    path = tmp_path / "mutant.json"
    diagram_failures = 0
    for i, row in enumerate(doc[counit]):
        for j, entry in enumerate(row):
            mutant = json.loads(json.dumps(doc))
            mutant[counit][i][j] = str(Fraction(entry) + 1)
            path.write_text(json.dumps(mutant))
            for command in ("check-algebroid", "algebroid-to-wmha"):
                code, out = run(capsys, "--format", "json", command, str(path))
                assert code == 1, (i, j, command)
                bad = [rec for rec in json.loads(out)["checks"] if rec["status"] == "fail"]
                assert bad and all(rec.get("witness") for rec in bad), (i, j, command)
                diagram_failures += any("error" in rec["witness"] for rec in bad
                                        if rec["check"].startswith("antipode-diagram"))
    assert diagram_failures


@pytest.mark.parametrize("example", ["obstructed", "pair-groupoid"])
def test_unexpected_verdict_note_keeps_json_stdout(tmp_path, capsys, example):
    """With --format json, stdout is the report alone; the note that the
    verdict differs from the file's expected_verdict goes to stderr."""
    path = tmp_path / "in.json"
    if example == "obstructed":
        run(capsys, "gen-example", "obstructed", "--scenario", "auto-swap", "--out", str(path))
        doc = json.loads(path.read_text())
        note = "but found 'ModularAutomorphismMismatch'"
    else:
        wmha_path = tmp_path / "p2.json"
        run(capsys, "gen-example", "pair-groupoid", "--n", "2", "--out", str(wmha_path))
        run(capsys, "wmha-to-algebroid", str(wmha_path), "--out", str(path))
        doc = json.loads(path.read_text())
        note = "but pipeline succeeded"
    doc["expected_verdict"] = "CounitsDiffer"
    path.write_text(json.dumps(doc))
    code = main(["--format", "json", "algebroid-to-wmha", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["checks"]
    assert captured.err == f"expected verdict 'CounitsDiffer' {note}\n"


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


@pytest.mark.parametrize("argv", [
    ["gen-example", "pair-groupoid", "--n", "0"],
    ["gen-example", "pair-groupoid", "--n", "-1"],
    ["gen-example", "cyclic-group", "--n", "0"],
    ["gen-example", "lazy-pair", "--probes", "0"],
])
def test_non_positive_gen_sizes_exit_2(tmp_path, capsys, argv):
    """--n and --probes are counts: zero or negative is bad input, never
    a traceback and never a silently substituted default."""
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert not out.exists()


@pytest.mark.parametrize("probes", ["0", "-2"])
def test_non_positive_check_probes_exit_2(tmp_path, capsys, probes):
    path = tmp_path / "lazy.json"
    run(capsys, "gen-example", "lazy-pair", "--out", str(path))
    code = main(["check-wmha", str(path), "--probes", probes])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("units", [0, -3, "abc", 2.5, True])
def test_bad_probe_units_exit_2(tmp_path, capsys, units):
    """probe_units in a lazy file must be a positive JSON integer; 2.5 is
    not read as 2."""
    path = tmp_path / "lazy.json"
    path.write_text(json.dumps({"schema": 1, "kind": "groupoid", "lazy": "pair",
                                "probe_units": units}))
    code = main(["check-wmha", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("command, example", [("gen-example", None),
                                              ("wmha-to-algebroid", "pair-groupoid"),
                                              ("algebroid-to-wmha", "obstructed")])
def test_unwritable_out_exits_2(tmp_path, capsys, command, example):
    """An --out path that cannot be opened for writing is bad input: exit
    2 with an input error, never a traceback."""
    out = tmp_path / "missing" / "out.json"
    if example is None:
        argv = [command, "pair-groupoid", "--out", str(out)]
    else:
        path = tmp_path / "input.json"
        run(capsys, "gen-example", example, "--out", str(path))
        argv = [command, str(path), "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, example", [("wmha-to-algebroid", "pair-groupoid"),
                                              ("algebroid-to-wmha", "obstructed")])
def test_out_directory_is_refused_before_any_suite(tmp_path, capsys, monkeypatch,
                                                   command, example):
    """An --out that names a directory is refused before the input is
    checked: no suite runs and nothing reaches stdout."""
    path = tmp_path / "input.json"
    run(capsys, "gen-example", example, "--out", str(path))

    def no_suite(*args):
        raise AssertionError("a suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    monkeypatch.setattr(cli, "check_algebroid_axioms", no_suite)
    code = main([command, str(path), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("command, example", [("check-wmha", "pair-groupoid"),
                                              ("check-algebroid", "obstructed")])
def test_invalid_file_algebra_exits_2(tmp_path, capsys, command, example):
    """A file's algebra is validated on load: a non-associative product
    and a degenerate one (the zero product) are bad input, not a report.
    The first is pair-2's x y - f(x) f(y) e3 with f = e1* - e2*: it keeps
    the unit, but (e1 e1) e3 = -e3 while e1 (e1 e3) = 0."""
    path = tmp_path / "input.json"
    run(capsys, "gen-example", example, "--out", str(path))
    doc = json.loads(path.read_text())
    structure = doc["algebra"]["structure"]
    if command == "check-wmha":
        for i, j, c in ((1, 1, "-1"), (1, 2, "1"), (2, 1, "1"), (2, 2, "-1")):
            structure[i][j][3] = c
    else:
        doc["algebra"]["structure"] = [[["0" for _ in row] for row in plane]
                                       for plane in structure]
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("entry", ["1/0", 0.5, True])
@pytest.mark.parametrize("document", ["wmha", "algebroid"])
def test_bad_rational_entry_exits_2(tmp_path, capsys, document, entry):
    """Rational entries are strings "p/q" (or JSON integers): a zero
    denominator, a float and a boolean are bad input, never a traceback
    and never read as a number."""
    path = tmp_path / "input.json"
    if document == "wmha":
        run(capsys, "gen-example", "pair-groupoid", "--n", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["counit"][0] = entry
        argv = ["check-wmha", str(path)]
    else:
        run(capsys, "gen-example", "obstructed", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["eps_b"][0][0] = entry
        argv = ["check-algebroid", str(path)]
    path.write_text(json.dumps(doc))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error:")
