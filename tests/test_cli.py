import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qtlie
from qtlie import cli, verify
from qtlie.cli import main
from qtlie.cyclo import parse_cyclonum
from qtlie.errors import NotIrreducible
from qtlie.repn import preset_pullback, rep_to_dict, scramble_representation
from qtlie.torus import load_torus, make_torus


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text('{"d":2,"z":1,"k":[2],"L":2}')
    return str(path)


@pytest.fixture()
def spec_file_e2(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text('{"d":2,"z":1,"k":[3],"L":3}')
    return str(path)


def test_torus_info(spec_file, capsys):
    assert main(["torus", "info", spec_file]) == 0
    out = capsys.readouterr().out
    assert "N=2, |Gamma|=4" in out
    assert "R = 2Z x 2Z" in out


def test_torus_info_commutative(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"d":2,"z":0,"k":[],"L":1}')
    assert main(["torus", "info", str(path)]) == 0
    assert "commutative torus, R=Z^2" in capsys.readouterr().out


def test_bracket_eval(spec_file, capsys):
    rc = main(["bracket", "eval", "--spec", spec_file, "--algebra", "d",
               "D(1;0,0)", "T(1,0)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "T(1,0)"
    rc = main(["bracket", "eval", "--spec", spec_file, "--algebra", "gtilde",
               "XT(0,0;1,2)", "XT(0,0;2,1)"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2*XT(0,0;3,3)"


SPECS = Path(__file__).resolve().parents[1] / "specs"


@pytest.mark.parametrize("spec,algebra,left,right,want", [
    ("e1", "d", "2*D(1;2,0) - 1/2*T(1,0) + T(0,1)", "D(2;0,2) + T(1,1)",
     "-T(0,3) - 2*T(1,2) - T(2,1) + 2*T(3,1)"),
    ("e2", "d", "D(1;3,0) + T(1,2)", "-T(2,1) + 3*D(2;0,3)", "-6*T(1,5) - 2*T(5,1)"),
    ("e1", "wd", "W(1;1,0) - 3*W(2;0,-1)", "W(2;2,1)", "-6*W(2;2,0) + 2*W(2;3,1)"),
    ("e2", "gtilde", "XD(1,0;2) - 2*XT(0,0;1,2)", "XD(2,1;1) + XT(1,0;2,2)",
     "-XD(2,1;2) + XD(3,0;1) + (-2 - 4*z)*XT(1,0;3,4) + 2*XT(2,0;2,2) + 2*XT(2,1;1,2)"),
])
def test_bracket_eval_golden(spec, algebra, left, right, want, capsys):
    rc = main(["bracket", "eval", "--spec", str(SPECS / f"{spec}.json"), "--algebra", algebra,
               left, right])
    assert rc == 0
    assert capsys.readouterr().out == want + "\n"


def test_bracket_eval_output_parses_back(capsys):
    spec = str(SPECS / "e2.json")
    main(["bracket", "eval", "--spec", spec, "--algebra", "gtilde", "XD(1,0;2) - 2*XT(0,0;1,2)",
          "XD(2,1;1) + XT(1,0;2,2)"])
    printed = capsys.readouterr().out.strip()
    assert main(["bracket", "eval", "--spec", spec, "--algebra", "gtilde", printed, "XD(1,0;1)"]) == 0
    assert "z" in capsys.readouterr().out


@pytest.mark.parametrize("algebra,left,right", [
    ("d", "D(1;2,0,0)", "T(1,0)"),
    ("d", "T(1,0,0)", "T(1,0)"),
    ("d", "T(1)", "T(1,0)"),
    ("d", "D(1;2)", "T(1,0)"),
    ("wd", "W(1;1)", "W(2;0,1)"),
    ("wd", "W(3;1,0)", "W(2;0,1)"),
])
def test_bracket_eval_rejects_wrong_length(algebra, left, right, capsys):
    rc = main(["bracket", "eval", "--spec", str(SPECS / "e1.json"), "--algebra", algebra,
               left, right])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_verify_suite_pass(spec_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--spec", spec_file, "--suite", "xmatrix",
               "--suite", "quotient", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {r["suite"] for r in report["reports"]} == {"xmatrix", "quotient"}
    assert "PASS" in capsys.readouterr().out


def test_verify_flip_sigma_fails_with_counterexample(spec_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--spec", spec_file, "--suite", "xmatrix",
               "--flip-sigma", "--out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["reports"][0]["failures"][0]["pair"] == [[0, 1], [1, 0]]


def test_verify_report_determinism(spec_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--spec", spec_file, "--suite", "jacobi-d",
            "--suite", "roundtrip", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv,cases", [
    (["--suite", "jacobi-d", "--samples", "3"], 3),
    (["--suite", "xmatrix", "--box", "1"], 16),  # the pairs of [0, 1]^2
    (["--suite", "span-filtration", "--degree", "1"], 2),
])
def test_verify_size_options_set_the_case_count(spec_file, argv, cases, capsys):
    assert main(["verify", "--spec", spec_file, *argv]) == 0
    assert f": PASS ({cases} cases)" in capsys.readouterr().out


def test_export_matrix(spec_file, tmp_path):
    out = tmp_path / "x.json"
    assert main(["export", "--spec", spec_file, "--exp", "1,1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rows"] == 2
    assert data["entries"][0][1] == "2:[1/1]"
    assert data["entries"][1][0] == "2:[-1/1]"


def test_module_build_and_compare(spec_file, tmp_path, capsys):
    dump_a = tmp_path / "a.json"
    dump_b = tmp_path / "b.json"
    assert main(["module", "build", "--spec", spec_file, "--alpha", "0,0",
                 "--box", "1", "--out", str(dump_a)]) == 0
    assert main(["module", "build", "--tensor-field", "--spec", spec_file,
                 "--alpha", "0,0", "--box", "1", "--out", str(dump_b)]) == 0
    capsys.readouterr()
    rc = main(["module", "compare", "--dump-a", str(dump_a), "--dump-b", str(dump_b)])
    assert rc == 0
    assert "EQUAL" in capsys.readouterr().out


def test_module_compare_built_in(spec_file, capsys):
    rc = main(["module", "compare", "--spec", spec_file])
    assert rc == 0
    assert "EQUAL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compare", "--spec", str(SPECS / "e1.json"), "--alpha", "1,2,3"],
    ["verify", "--rep", "r.json", "--box", "9"],
    ["verify", "--rep", "r.json", "--alpha", "1,2,3"],
    ["decompose", "--rep", "r.json", "--vw", "trivial-regular"],
    ["roundtrip", "--spec", str(SPECS / "e1.json"), "--box", "2"],
    ["build", "--spec", str(SPECS / "e1.json"), "--dump-a", "a.json"],
], ids=lambda argv: f"{argv[0]}-{argv[-2].strip('-')}")
def test_an_option_that_its_module_action_does_not_read_is_a_config_error(argv, capsys):
    assert main(["module", *argv]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err and "Traceback" not in err


def test_module_roundtrip(spec_file, capsys):
    rc = main(["module", "roundtrip", "--spec", spec_file, "--degree", "3"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_module_roundtrip_over_a_phi_2_field_at_a_cyclotomic_weight(capsys):
    rc = main(["module", "roundtrip", "--spec", str(SPECS / "e2.json"), "--alpha", "1/2,z"])
    assert rc == 0
    assert capsys.readouterr().out == "roundtrip: PASS\n"


def test_module_verify_and_decompose(tmp_path, capsys):
    spec = make_torus(2, 1, [2])
    rep = preset_pullback(spec)[1]
    scrambled = scramble_representation(rep, seed=4)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_dict(scrambled)))
    assert main(["module", "verify", "--rep", str(rep_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    out = tmp_path / "factored.json"
    assert main(["module", "decompose", "--rep", str(rep_path), "--out", str(out)]) == 0
    assert "dim V = 2, dim W = 4" in capsys.readouterr().out
    assert out.exists()


def test_module_verify_reports_a_corrupted_action_matrix(tmp_path, capsys):
    """One entry of one action matrix, moved inside the grading, breaks a bracket: exit 1."""
    spec = make_torus(2, 1, [2])
    data = rep_to_dict(preset_pullback(spec)[1])
    zero = spec.field.zero.serialize()
    row = next(row for row in data["action"][0]["matrix"] if any(x != zero for x in row))
    j = next(j for j, x in enumerate(row) if x != zero)
    row[j] = (parse_cyclonum(row[j], spec.field) + 1).serialize()
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(data))
    assert main(["module", "verify", "--rep", str(rep_path)]) == 1
    out = capsys.readouterr().out
    assert "representation check: FAIL" in out
    assert "\nfirst failure: [" in out


def test_module_verify_rejects_a_file_cutoff_that_its_action_does_not_give(tmp_path, capsys):
    """A larger cutoff would widen the default degree bound of the check; it is a configuration error."""
    data = rep_to_dict(preset_pullback(make_torus(2, 1, [2]))[1])
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(dict(data, cutoff=2)))
    assert main(["module", "verify", "--rep", str(rep_path)]) == 2
    assert capsys.readouterr().err == "configuration error: file cutoff 2 differs from the cutoff 1 of its action\n"


@pytest.mark.parametrize("spec,alpha", [("e1", []), ("e2", ["--alpha", "1/2,z"])])
def test_module_actions_on_the_trivial_regular_preset(spec, alpha, tmp_path, capsys):
    """trivial gl_d on V, regular gl_N on W: one dimension per class."""
    common = ["--spec", str(SPECS / f"{spec}.json"), *alpha, "--vw", "trivial-regular"]
    dump = tmp_path / "dump.json"
    assert main(["module", "build", *common, "--out", str(dump)]) == 0
    assert {w["dim"] for w in json.loads(dump.read_text())["weights"]} == {1}
    assert main(["module", "roundtrip", *common]) == 0
    assert main(["module", "compare", "--spec", str(SPECS / f"{spec}.json"), "--vw", "trivial-regular"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip: PASS" in out and "EQUAL" in out


def test_decompose_output_is_independent_of_hash_seed(tmp_path):
    """E1, then E4 (32 dimensions over 16 classes) within a wall-time budget per run."""
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    for spec, budget, digest in ((make_torus(2, 1, [2]), None, None),
                                 (load_torus(SPEC_E4), E4_RUN_BUDGET_S, E4_DECOMPOSE_OUT_SHA256)):
        rep = preset_pullback(spec)[1]
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep_to_dict(scramble_representation(rep, seed=5))))
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"factored-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import sys; from qtlie.cli import main; sys.exit(main())",
                            "module", "decompose", "--rep", str(rep_path), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            assert budget is None or time.perf_counter() - start < budget
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert digest is None or hashlib.sha256(outputs[0]).hexdigest() == digest


SPEC_E1 = Path(__file__).resolve().parents[1] / "specs" / "e1.json"
SPEC_E4 = Path(__file__).resolve().parents[1] / "specs" / "e4.json"
# seconds per E4 run of a hash-seed test; a run takes about 2 s on a 2-core Xeon VM
E4_RUN_BUDGET_S = 30
# sha256, computed before graded operators replaced dense actions, of the E4
# `module decompose --out` file of the seed-5 scrambled pullback and of the
# E4 `verify --suite quotient --suite annihilation --suite decompose --out` report
E4_DECOMPOSE_OUT_SHA256 = "affb1f221a4e9da33811d6343d17a0c483099c9efcb44778d39c89bee772dc57"
E4_REPORT_SHA256 = "c0559846d29b653f48fe6e5f5f9f649c528cf00d55c2023325f1b12e82725100"
# sha256 of `qtlie module build --spec specs/e1.json --box 1 --out`; the two
# constructions agree on the box, so their dumps are the same bytes
E1_BOX1_DUMP_SHA256 = "fd6d1f82b845093e99b56f3d385b06281cc16dd3eebab26e8aee329a885e5eb9"


# sha256 of the sorted-key JSON of `rep_to_dict(scramble_representation(P, seed=5))`,
# P the standard E1 pullback, and of the file `module decompose --out` writes for it
E1_SCRAMBLED_REP_SHA256 = "350a251518ce294c7f467a3f9cf753b56671be11b22228d8e21a0d780e987922"
E1_DECOMPOSE_OUT_SHA256 = "31170ac24a83b37755aa029bb35a35a64224ebff5a1db255f586ec66bfef4856"


def test_scrambled_rep_and_decompose_output_are_pinned(tmp_path):
    spec = load_torus(SPEC_E1)
    rep = preset_pullback(spec)[1]
    text = json.dumps(rep_to_dict(scramble_representation(rep, seed=5)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == E1_SCRAMBLED_REP_SHA256
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(text)
    out = tmp_path / "factored.json"
    assert main(["module", "decompose", "--rep", str(rep_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == E1_DECOMPOSE_OUT_SHA256


@pytest.mark.parametrize("construction", [[], ["--tensor-field"]], ids=["functor", "tensor-field"])
def test_module_dump_is_pinned(tmp_path, construction):
    out = tmp_path / "dump.json"
    assert main(["module", "build", "--spec", str(SPEC_E1), "--box", "1", "--out", str(out),
                 *construction]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == E1_BOX1_DUMP_SHA256


@pytest.mark.parametrize("construction", [[], ["--tensor-field"]], ids=["functor", "tensor-field"])
def test_module_dump_is_independent_of_hash_seed(tmp_path, construction):
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"dump-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", "import sys; from qtlie.cli import main; sys.exit(main())",
                        "module", "build", "--spec", str(SPEC_E1), "--box", "1", "--out", str(out),
                        *construction],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_config_errors(tmp_path, capsys):
    assert main(["torus", "info", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"z": 1}')
    assert main(["torus", "info", str(bad)]) == 2
    bad.write_text('{"d": 2.9, "z": 1, "k": [2], "L": 2}')  # not truncated to d = 2
    assert main(["torus", "info", str(bad)]) == 2
    bad.write_text('{"d": 2, "z": 1, "k": [2], "l": 4}')  # a misspelled L is not ignored
    capsys.readouterr()
    assert main(["torus", "info", str(bad)]) == 2
    assert "unknown key 'l'" in capsys.readouterr().err
    spec = tmp_path / "ok.json"
    spec.write_text('{"d":2,"z":1,"k":[2],"L":2}')
    assert main(["verify", "--spec", str(spec), "--suite", "nope"]) == 2
    assert main(["no-such-verb"]) == 2
    assert main(["cache", "--spec", str(spec)]) == 2


def test_input_file_errors_are_config_errors(tmp_path, spec_file, capsys):
    assert main(["export", "--spec", spec_file, "--exp", "1,a"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    keyless = tmp_path / "keyless.json"
    keyless.write_text('{"format": "qtlie-representation"}')
    for action in ("verify", "decompose"):
        for rep in (bad, keyless, tmp_path / "missing.json"):
            assert main(["module", action, "--rep", str(rep)]) == 2
    assert main(["module", "compare", "--dump-a", str(bad), "--dump-b", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["build"], ["roundtrip"], ["compare"], ["compare", "--dump-a", "a.json"], ["verify"], ["decompose"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv))
def test_missing_module_option_is_a_config_error(argv, capsys):
    assert main(["module", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: module ") and "Traceback" not in err


def test_key_error_inside_a_suite_is_not_a_config_error(monkeypatch, spec_file):
    def broken(spec):
        raise KeyError("lost symbol")

    monkeypatch.setitem(verify.SUITES, "quotient", (broken, {}))
    with pytest.raises(KeyError):
        main(["verify", "--spec", spec_file, "--suite", "quotient"])


def test_verify_report_is_independent_of_hash_seed(tmp_path):
    """E1, then E4 on the suites that fit a wall-time budget per run."""
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    for spec, names, budget, digest in (
        (SPEC_E1, ("xmatrix", "jacobi-d", "quotient", "annihilation", "decompose"), None, None),
        (SPEC_E4, ("quotient", "annihilation", "decompose"), E4_RUN_BUDGET_S, E4_REPORT_SHA256),
    ):
        suites = [arg for name in names for arg in ("--suite", name)]
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"report-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import sys; from qtlie.cli import main; sys.exit(main())",
                            "verify", "--spec", str(spec), *suites, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            assert budget is None or time.perf_counter() - start < budget
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert digest is None or hashlib.sha256(outputs[0]).hexdigest() == digest
        assert json.loads(outputs[0])["passed"]


def test_decompose_suite_reports_a_reducible_module(monkeypatch):
    def reducible(spec, rep, probes, seed):
        raise NotIrreducible("graded commutant has dimension != 1")

    monkeypatch.setattr(verify, "decompose_tensor", reducible)
    report = verify.suite_decompose(make_torus(2, 1, [2]))
    assert report.cases == 3
    assert report.failures == [{"irreducible": "graded commutant has dimension != 1"}]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "functor", "--box", "-1", "--out", "out.json"],
    ["verify", "--suite", "jacobi-d", "--samples", "-3", "--out", "out.json"],
    ["verify", "--suite", "span-filtration", "--degree", "-1", "--out", "out.json"],
    ["verify", "--suite", "xmatrix", "--box", "-1", "--out", "out.json"],
    ["verify", "--suite", "xmatrix", "--box", "two", "--out", "out.json"],
    ["module", "build", "--box", "-1", "--out", "out.json"],
    ["module", "roundtrip", "--degree", "-2"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv[:5]))
def test_negative_size_is_a_config_error(argv, spec_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--spec", spec_file]) == 2
    err = capsys.readouterr().err
    assert "expected a non-negative integer" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(spec_file)]  # no report or dump written


def test_module_roundtrip_uses_an_explicit_degree_zero(spec_file, capsys):
    # degree 0 is run as given, not replaced by the default 3: a degree-0
    # family cannot carry the degree-1 coefficients, so the round trip fails
    assert main(["module", "roundtrip", "--spec", spec_file, "--degree", "0"]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "total degree <= 0" in captured.err


def test_ragged_representation_file_is_a_config_error(tmp_path, capsys):
    spec = make_torus(2, 1, [2])
    data = rep_to_dict(preset_pullback(spec)[1])
    data["action"][0]["matrix"][0].pop()
    rep_path = tmp_path / "ragged.json"
    rep_path.write_text(json.dumps(data))
    for action in ("verify", "decompose"):
        assert main(["module", action, "--rep", str(rep_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "ragged matrix rows" in err


def test_module_verify_uses_an_explicit_degree_zero(tmp_path, capsys):
    spec = make_torus(2, 1, [2])
    rep = preset_pullback(spec)[1]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_dict(rep)))
    assert main(["module", "verify", "--rep", str(rep_path), "--degree", "0"]) == 0
    assert "(64 pairs)" in capsys.readouterr().out  # the cutoff degree 1 checks 484
    assert main(["module", "verify", "--rep", str(rep_path)]) == 0
    assert "(484 pairs)" in capsys.readouterr().out


def test_summary_lines_stream_as_each_suite_returns(monkeypatch, spec_file, capsys):
    def broken(spec):
        raise KeyError("lost symbol")

    monkeypatch.setitem(verify.SUITES, "quotient", (broken, {}))
    with pytest.raises(KeyError):
        main(["verify", "--spec", spec_file, "--suite", "xmatrix", "--suite", "quotient"])
    assert capsys.readouterr().out.startswith("xmatrix: PASS (")


@pytest.mark.parametrize("names,message", [
    (["xmatrix", "bogus"], "unknown suite 'bogus'"),
    (["all", "xmatrix"], "suite 'all' cannot be combined"),
])
def test_suite_names_are_checked_before_any_suite_runs(names, message, monkeypatch, spec_file, capsys):
    ran = []
    monkeypatch.setitem(verify.SUITES, "xmatrix", (lambda spec: ran.append(spec), {}))
    assert main(["verify", "--spec", spec_file, *(arg for name in names for arg in ("--suite", name))]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and message in captured.err


def test_unknown_module_preset_is_a_config_error(spec_file, capsys):
    assert main(["module", "build", "--spec", spec_file, "--vw", "bogus"]) == 2
    assert capsys.readouterr().err == ("configuration error: unknown module preset 'bogus'"
                                       " (use natural-regular or trivial-regular)\n")


def test_verify_finishes_on_the_commutative_torus():
    """specs/e6.json is z = 0: every exponent is central, so there are no inner derivations."""
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys; from qtlie.cli import main; sys.exit(main())",
                           "verify", "--spec", str(SPECS / "e6.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(verify.SUITES) and all(": PASS (" in line for line in lines)


@pytest.mark.parametrize("spec", ["e5", "e8"])
def test_tensor_compare_finishes_within_budget(spec):
    """E5 (d = 4, 16 classes) and E8 (L = 6 over k = 3), default box, one process each."""
    src = str(Path(qtlie.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import sys; from qtlie.cli import main; sys.exit(main())",
                           "verify", "--spec", str(SPECS / f"{spec}.json"), "--suite", "tensor-compare"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("tensor-compare: PASS (1 cases) [")


# library names that only the library's own presets and check pipelines use
PIPELINE_NAMES = {"GLdGLNModule", "graded_regular_glN", "natural_gld", "trivial_gld", "OperatorFamily",
                  "extract_coefficients", "coefficients_to_representation", "modules_equal"}


def test_cli_only_parses_calls_the_library_and_prints():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert not named & PIPELINE_NAMES
