"""End-to-end command-line runs: statuses, exit codes, and deterministic
JSON reports."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusmirror.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def ainfty_file(tmp_path):
    from torusmirror.ainfty import AInftyStructure, GradedBasis, MultilinearOp

    basis = GradedBasis((("one", 0), ("t", 1)))
    mul = {
        ("one", "one"): {"one": 1},
        ("one", "t"): {"t": 1},
        ("t", "one"): {"t": 1},
    }
    A = AInftyStructure(basis, {2: MultilinearOp(2, basis, basis, 0, mul)})
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(A.to_obj()))
    return str(path)


@pytest.fixture()
def corrupted_file(tmp_path, ainfty_file):
    obj = json.loads(open(ainfty_file).read())
    obj["ops"][0]["entries"][0][2] = {"q": [2, 1]}  # break associativity
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(obj))
    return str(path)


def retraction():
    import random

    from torusmirror.randomgen import random_dg_algebra, retraction_onto_cohomology

    rng = random.Random(4)
    return retraction_onto_cohomology(random_dg_algebra(rng), rng)


@pytest.fixture()
def retraction_file(tmp_path):
    path = tmp_path / "retraction.json"
    path.write_text(json.dumps(retraction().to_obj()))
    return str(path)


@pytest.fixture()
def trig_file(tmp_path):
    path = tmp_path / "trig.json"
    path.write_text(
        json.dumps(
            {
                "f0": {"cos": {"2": [1, 1]}},
                "f1": {},
                "f2": {"cos": {"1": [1, 2]}, "sin": {"1": [1, 3]}},
            }
        )
    )
    return str(path)


@pytest.fixture()
def grid_file(tmp_path):
    h = Fraction(1, 32)
    xs = [Fraction(-1) + k * h for k in range(65)]
    obj = {
        "box": [[-1, 1]],
        "h": [1, 32],
        "values": [float(x) * float(x) / 2 for x in xs],
        "dual_box": [[[-1, 2], [1, 2]]],
        "dual_h": [1, 32],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_ainfty_pass_and_corrupted_fail(capsys, ainfty_file, corrupted_file):
    code, rep = run(capsys, "check-ainfty", ainfty_file, "--max-arity", "3")
    assert code == 0 and rep["status"] == "PASS"
    assert all(d["zero"] for d in rep["payload"]["defects"])

    code, rep = run(capsys, "check-ainfty", corrupted_file, "--max-arity", "3")
    assert code == 1 and rep["status"] == "FAIL"


def test_transfer_command(capsys, retraction_file):
    code, rep = run(capsys, "transfer", retraction_file, "--max-arity", "3")
    assert code == 0 and rep["status"] == "PASS"
    assert rep["payload"]["sub_dimension"] == len(retraction().sub_basis)


def test_morse_commands(capsys, trig_file):
    code, rep = run(capsys, "morse", "crit", trig_file)
    assert code == 0
    assert [p["index"] for p in rep["payload"]["points"]] == [1, 0, 1, 0]

    code, rep = run(capsys, "morse", "diff", trig_file)
    assert code == 0
    assert rep["payload"]["cohomology_ranks"] == [1, 1]

    code, rep = run(capsys, "morse", "m2", trig_file, "--weighted", "--cutoff", "3")
    assert code == 0
    assert rep["payload"]["weighted"]
    assert rep["payload"]["entries"]


def test_fo_and_mirror_commands(capsys):
    code, rep = run(capsys, "fo", "--slopes", "0,1,2,3", "--cutoff", "8")
    assert code == 0 and rep["payload"]["associative"]
    assert rep["payload"]["m3_certificate"]["certified"]

    code, rep = run(capsys, "mirror", "--slopes", "0,1,2", "--cutoff", "8")
    assert code == 0 and rep["payload"]["status"] == "EQUAL"

    # precondition violations surface as ERROR with exit code 1
    code, rep = run(capsys, "mirror", "--slopes", "0,2,1", "--cutoff", "8")
    assert code == 1 and rep["status"] == "ERROR"
    code, rep = run(capsys, "fo", "--slopes", "0,1,2", "--cutoff", "8")
    assert code == 1 and rep["status"] == "ERROR"


def test_fo_and_mirror_default_to_the_acceptance_cutoffs(capsys):
    from torusmirror.criteria import SIZES

    for command, slopes in (("fo", "0,1,2,3"), ("mirror", "0,1,2")):
        cutoff = SIZES["acceptance"][command]["cutoff"]
        outs = []
        for extra in ([], ["--cutoff", str(cutoff)]):
            assert main([command, "--slopes", slopes, *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_cli_import_loads_neither_numpy_nor_sympy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, torusmirror.cli\nprint(sorted({'numpy', 'sympy'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_legendre_command(capsys, grid_file):
    code, rep = run(capsys, "legendre", grid_file, "--tol", "1e-6")
    assert code == 0 and rep["status"] == "PASS"
    assert rep["payload"]["involution_error"] <= 1e-6


def test_suite_subset_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, rep = run(
        capsys,
        "--json-out",
        str(out1),
        "suite",
        "--modules",
        "novikov,trees",
        "--seed",
        "11",
    )
    assert code == 0 and rep["status"] == "PASS"
    assert set(rep["payload"]) == {"novikov", "trees"}
    code, _ = run(
        capsys,
        "--json-out",
        str(out2),
        "suite",
        "--modules",
        "novikov,trees",
        "--seed",
        "11",
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reports
    assert "timing" not in json.loads(out1.read_text())

    code, rep = run(capsys, "suite", "--modules", "nonsense")
    assert code == 1 and rep["status"] == "ERROR"


def test_suite_module_error_keeps_other_modules(capsys, monkeypatch):
    """A module that raises, on bad input or on a broken invariant, is
    reported as that module's ERROR; the other modules still report, and the
    suite is ERROR with exit code 1."""
    from torusmirror import criteria

    def raising(error):
        def check(*args, **kwargs):
            raise error
        return check

    monkeypatch.setattr(criteria, "tree_counts", raising(ValueError("tree count exploded")))
    monkeypatch.setattr(criteria, "morse_triples",
                        raising(RuntimeError("sector refinement failed")))
    code, rep = run(capsys, "suite", "--modules", "morse,novikov,trees", "--seed", "11")
    assert code == 1 and rep["status"] == "ERROR"
    assert rep["payload"]["trees"] == {"error": "ValueError: tree count exploded", "status": "ERROR"}
    assert rep["payload"]["morse"] == {
        "error": "RuntimeError: sector refinement failed", "status": "ERROR"}
    assert rep["payload"]["novikov"]["status"] == "PASS"


def test_acceptance_scale_passes_and_a_failing_module_exits_1(capsys, monkeypatch):
    """`suite --scale acceptance` is the gate: exit 0 when every criterion
    holds, exit 1 when one module's check fails."""
    from torusmirror import criteria

    code, rep = run(capsys, "suite", "--scale", "acceptance")
    assert code == 0 and rep["status"] == "PASS"
    assert rep["payload"]["mirror"]["count"] == 32
    assert rep["payload"]["signs"]["corrupted"] == 20

    monkeypatch.setattr(criteria, "legendre_duality",
                        lambda **sizes: criteria.Outcome(["quartic"], ["det order 1.75 < 1.8"]))
    code, rep = run(capsys, "suite", "--scale", "acceptance", "--modules", "legendre,trees")
    assert code == 1 and rep["status"] == "FAIL"
    assert rep["payload"]["legendre"] == {
        "count": 1, "failures": ["det order 1.75 < 1.8"], "status": "FAIL"}
    assert rep["payload"]["trees"]["status"] == "PASS"


def test_cases_go_to_stderr_and_keep_stdout(capsys):
    argv = ["suite", "--modules", "legendre,morse"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--cases"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == json.loads(plain)
    err = captured.err.splitlines()
    assert "legendre  quartic h=1/32: involution 2.239e-08, det 9.081e-04" in err
    assert "legendre  det h=1/32 = 0.0009081" in err
    assert "morse  drawn = 6" in err
    assert any(l.startswith("morse  triple   4  crit points") for l in err)
    assert any(l.startswith("morse: 5 cases, 0 failures, ") for l in err)


def test_missing_file_reports_error(capsys):
    code, rep = run(capsys, "check-ainfty", "/nonexistent.json")
    assert code == 1 and rep["status"] == "ERROR"


def test_malformed_input_reports_error(capsys, tmp_path, ainfty_file):
    # a shift count other than the slope count is one ERROR, with the inputs
    for argv, error in ((["fo", "--slopes", "0,1,2,3", "--shifts", "0,1"], "4 slopes but 2 shifts"),
                        (["mirror", "--slopes", "0,1,2", "--shifts", "0"], "3 slopes but 1 shifts")):
        code, rep = run(capsys, *argv)
        assert (code, rep["status"], rep["payload"]) == (1, "ERROR", {"error": error})
        assert rep["inputs_digest"]

    obj = json.loads(open(ainfty_file).read())
    bad = tmp_path / "bad.json"
    for scalar in (
        {"q": [1, 0]},  # zero denominator
        {"q": [1]},  # short
        5,  # bare number
        {"nov": {"terms": [[1, 0, 1, 1]], "cutoff": None}},  # zero exponent denominator
        {"nov": {"terms": [[1, 1, 1, 1]], "cutoff": [1, 0]}},  # zero cutoff denominator
        {"nov": {"terms": [[1, 1, 1]], "cutoff": None}},  # 3-element term
        {"nov": {"terms": [[1.5, 2, 1, 1]], "cutoff": None}},  # float numerator
        {"nov": [1]},  # Novikov scalar that is not an object
    ):
        obj["ops"][0]["entries"][0][2] = scalar
        bad.write_text(json.dumps(obj))
        code, rep = run(capsys, "check-ainfty", str(bad))
        assert code == 1 and rep["status"] == "ERROR"
    # a grid step of Infinity or -Infinity, which JSON reads as a float
    grid = '{"box": [[-1, 1]], "h": %s, "values": [0.5, 0.0, 0.5], "dual_box": [[-1, 1]], "dual_h": 1}'
    for h, error in (("Infinity", "inf"), ("-Infinity", "-inf")):
        bad.write_text(grid % h)
        code, rep = run(capsys, "legendre", str(bad))
        assert (code, rep["status"], rep["payload"]) == (
            1, "ERROR", {"error": f"ValueError: infinite number {error}"})
    # a NaN or Infinity sample, which would pass the convexity certificate
    for values in ("[0.5, NaN, 0.5]", "[0.5, 0.0, Infinity]"):
        bad.write_text(grid.replace("[0.5, 0.0, 0.5]", values) % 1)
        code, rep = run(capsys, "legendre", str(bad))
        assert (code, rep["status"], rep["payload"]) == (
            1, "ERROR", {"error": "values must be finite"})
    bad.write_text("[1, 2]")  # top-level list
    for argv in (["check-ainfty"], ["transfer"], ["morse", "crit"], ["legendre"]):
        code, rep = run(capsys, *argv, str(bad))
        assert code == 1 and rep["status"] == "ERROR"
    # a trig polynomial, or its cos or sin part, that is not an object
    f = {"cos": {"1": 1}}
    for obj in ({"f0": [1, 2]}, {"f0": "abc"}, {"f0": f, "f1": 5, "f2": f},
                {"f0": {"cos": [1, 2]}, "f1": f, "f2": f}):
        bad.write_text(json.dumps(obj))
        for sub in ("crit", "diff", "m2"):
            code, rep = run(capsys, "morse", sub, str(bad))
            assert (code, rep["status"]) == (1, "ERROR"), (obj, sub)
            assert rep["payload"]["error"].startswith("AttributeError"), (obj, sub)


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_mirror_zero_denominator_is_a_usage_error(capsys):
    for argv in (["--slopes", "0,1/0,2"], ["--slopes", "0,1,2", "--shifts", "0,1/0,0"]):
        code, err = usage_error(capsys, "mirror", *argv)
        assert code == 2 and "invalid" in err
        assert "rational" in err and "_frac" not in err


def test_fo_zero_denominator_cutoff_is_a_usage_error(capsys):
    code, err = usage_error(capsys, "fo", "--slopes", "0,1,2,3", "--cutoff", "1/0")
    assert code == 2 and "argument --cutoff" in err
    assert "rational" in err and "_frac" not in err


def test_morse_zero_denominator_reports_error(capsys, tmp_path):
    """A bad --cutoff is a usage error, as in fo and mirror; a zero
    denominator in the JSON input is an ERROR report."""
    path = tmp_path / "trig.json"
    path.write_text(json.dumps({"f0": {"cos": {"2": 1}}, "f1": {},
                                "f2": {"cos": {"1": [1, 2]}, "sin": {"1": [1, 3]}}}))
    code, err = usage_error(capsys, "morse", "m2", str(path), "--weighted", "--cutoff", "1/0")
    assert code == 2 and "argument --cutoff: invalid rational value" in err
    path.write_text(json.dumps({"f0": {"cos": {"1": "1/0"}}}))
    code, rep = run(capsys, "morse", "crit", str(path))
    assert code == 1 and rep["status"] == "ERROR"
    assert "zero denominator" in rep["payload"]["error"]
    # JSON reads 1e400 as an infinite float, which no Fraction holds
    path.write_text('{"f0": {"cos": {"1": 1e400}}}')
    code, rep = run(capsys, "morse", "crit", str(path))
    assert (code, rep["status"], rep["payload"]) == (
        1, "ERROR", {"error": "ValueError: infinite number inf"})


def test_legendre_zero_denominator_reports_error(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"box": [[-1, 1]], "h": "1/0", "values": [0.5, 0.0, 0.5],
                                "dual_box": [[-1, 1]], "dual_h": [1, 2]}))
    code, rep = run(capsys, "legendre", str(path))
    assert code == 1 and rep["status"] == "ERROR"
    assert "zero denominator" in rep["payload"]["error"]


@pytest.mark.parametrize("key", ["h", "dual_h"])
def test_legendre_zero_grid_step_reports_error(capsys, grid_file, key):
    obj = json.loads(Path(grid_file).read_text())
    obj[key] = "0"
    Path(grid_file).write_text(json.dumps(obj))
    code, rep = run(capsys, "legendre", grid_file)
    assert code == 1 and rep["status"] == "ERROR"
    assert "positive h" in rep["payload"]["error"]


def test_readme_command_lines_parse(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    lines = [l.split("#")[0] for l in block.splitlines() if l.startswith("torusmirror ")]
    assert len(lines) == 8
    for line in lines:
        # file arguments point into the fixture directory
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in line.split()[1:]]
        build_parser().parse_args(argv)  # exits on a usage error


# (argv, with fixture names standing for their paths; exit code; sha256 of stdout)
PINNED = [
    (["check-ainfty", "ainfty_file", "--max-arity", "3"], 0,
     "f8211ab6a01f7f1b9d4187491f16322e0ec4c00845519d605b8793d3111d6d6c"),
    (["check-ainfty", "corrupted_file", "--max-arity", "3"], 1,
     "959145e58c6631b8910292006aeb7aa45b978fd2ed6fa7e6a5e131499c25f113"),
    (["transfer", "retraction_file", "--max-arity", "3"], 0,
     "53121cf50038237d35491df3c5fafdcbd52b06cc10eb646bd87d9958ab42a09b"),
    (["morse", "crit", "trig_file"], 0,
     "d9a52fc1c3d4c9990948431f76fd266284b2e6d3a29dc94dd305da264b0d45a6"),
    (["morse", "diff", "trig_file"], 0,
     "ccdebcf1d76bb6d6db08fde5de2bfeac1c587c5b481685b822e5d665c43b124e"),
    (["morse", "m2", "trig_file", "--weighted"], 0,
     "19a0d1d16e5435526c6a964de555c8cde41085b24cfcb5c7fb1491513fb25b0a"),
    (["morse", "m2", "trig_file", "--weighted", "--cutoff", "3"], 0,
     "3491791151bcab1ad55295f37e14af48c24b9fd93bec662a143f0726d193938a"),
    (["fo", "--slopes", "0,1,3,4", "--shifts", "0,1/2,0,0", "--cutoff", "12"], 0,
     "722ba5a73c559b5d1ec20b86e724a223147eadd1952b2d460f5b83123f7d73ab"),
    (["fo", "--slopes", "0,1,2", "--cutoff", "8"], 1,
     "ad61db2dd9eafcb99cff8c4325c9fa6eec2ef46694bb004da0f75f2116b59ff6"),
    (["fo", "--slopes", "0,1,2,3", "--shifts", "0,1"], 1,
     "263c7c1663371fc6531e146cdf7a3323090236ec126f823abf90972e71e4bc27"),
    (["mirror", "--slopes", "0,1,3"], 0,
     "e060fe20c0d65481de4cdb4b32019324e2e91e93c6ed4546ad4dd1d53a28475f"),
    (["mirror", "--slopes", "0,2,1"], 1,
     "97d6f44bf363d1f9d73a46dbd5ff34e61a21c07cc41feafad961a8550cd27191"),
    (["mirror", "--slopes", "0,1,2", "--shifts", "0"], 1,
     "0c20f8e95c7521e9882f3178b6a59a52bc1815b340d182273d14287482773f26"),
    (["legendre", "grid_file"], 0,
     "c7124ae25e90cc0ecbda871cababa8a05d655781cab0e05ce8d6bca6ae9bb2ff"),
    (["suite", "--modules", "novikov,trees", "--seed", "11"], 0,
     "7c6107303983fb8c0583039c4cfb5572f72c4fb293aff1fd6410a22ca6e2bc64"),
]


def test_every_subcommand_report_is_pinned(capsys, ainfty_file, corrupted_file,
                                           retraction_file, trig_file, grid_file):
    """Each subcommand's stdout and exit code on the fixtures above, PASS,
    FAIL and ERROR alike, byte for byte."""
    files = {"ainfty_file": ainfty_file, "corrupted_file": corrupted_file,
             "retraction_file": retraction_file, "trig_file": trig_file, "grid_file": grid_file}
    for argv, code, digest in PINNED:
        got = main([files.get(a, a) for a in argv])
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv
