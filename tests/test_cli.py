import ast
import json

import numpy as np
import pytest

from diraclab import CSV_HEADER, PoleError
from diraclab.cli import SPECTRUM_HEADER, main

CFG = {
    "boundary": "dirichlet_analog",
    "potential": {"family": "constant_offdiag", "c": 0.3},
    "kappa": "inf",
    "f": {"family": "smooth"},
    "mu": 2.0,
    "nu_list": [2.0, "inf"],
    "m_schedule": [2, 4],
    "mesh_panels": 64,
}


def test_equiconv_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    out = tmp_path / "rep"
    rc = main(["equiconv", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    assert (tmp_path / "rep.csv").read_text().startswith(CSV_HEADER)
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["config"]["mesh_panels"] == 64
    assert "m=   2" in capsys.readouterr().out


def test_sweep_command_exit_codes(tmp_path, capsys):
    d = tmp_path / "cfgs"
    d.mkdir()
    (d / "a.json").write_text(json.dumps({**CFG, "m_schedule": [2]}))
    rc = main(["sweep", "--dir", str(d), "--output", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "index.json").exists()
    bad = {**CFG, "m_schedule": [2],
           "boundary": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [1, 0], [0, 0], [0, 0]]]}
    (d / "b.json").write_text(json.dumps(bad))
    rc = main(["sweep", "--dir", str(d), "--output", str(tmp_path / "out2")])
    assert rc == 1


def test_sweep_refuses_a_missing_directory(tmp_path, capsys):
    # it printed "0 runs completed, 0 failed", wrote an empty index.json
    # and exited 0
    missing = tmp_path / "nowhere"
    rc = main(["sweep", "--dir", str(missing),
               "--output", str(tmp_path / "out")])
    assert rc != 0
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_directory_without_configs(tmp_path, capsys):
    d = tmp_path / "cfgs"
    d.mkdir()
    (d / "notes.txt").write_text("not a config")
    rc = main(["sweep", "--dir", str(d), "--output", str(tmp_path / "out")])
    assert rc != 0
    assert str(d) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ([CFG], "a JSON list is not a config object"),
    ({**CFG, "bogus": 1}, "unknown config key 'bogus'"),
])
def test_equiconv_refuses_a_file_that_is_not_a_config(tmp_path, capsys, doc,
                                                      message):
    # ExperimentConfig(**doc) died with a bare TypeError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["equiconv", "--config", str(cfg),
               "--output", str(tmp_path / "rep")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("doc, message", [
    ([CFG], "a JSON list is not a config object"),
    ({**CFG, "bogus": 1}, "unknown config key 'bogus'"),
])
def test_sweep_refuses_a_file_that_is_not_a_config(tmp_path, capsys, doc,
                                                   message):
    # a sweep's own output directory holds index.json, a list: pointing
    # --dir at it died with a bare TypeError traceback
    d = tmp_path / "cfgs"
    d.mkdir()
    (d / "a.json").write_text(json.dumps({**CFG, "m_schedule": [2]}))
    (d / "b.json").write_text(json.dumps(doc))
    rc = main(["sweep", "--dir", str(d), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {d / 'b.json'}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("nu_list", 2, "nu_list=2 is not a list"),
    ("m_schedule", 8, "m_schedule=8 is not a list"),
    ("nu_list", "inf", "nu_list='inf' is not a list"),
    ("potential", "zero", "potential='zero' is not a spec object"),
    ("f", ["smooth"], "f=['smooth'] is not a spec object"),
    ("mesh_panels", True, "mesh_panels=True is not an integer"),
])
def test_equiconv_refuses_a_value_of_the_wrong_type(tmp_path, capsys, key,
                                                    value, message):
    # exit 1 with a bare TypeError, nu='i', a StageError [setup]
    # AttributeError, or a run on one panel
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, key: value}))
    rc = main(["equiconv", "--config", str(cfg),
               "--output", str(tmp_path / "rep")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not (tmp_path / "rep.json").exists()


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--potential", '{"family": "zero"}',
               "--panels", "64", "--m-max", "2", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 1 + 10       # n in [-4, 5]


@pytest.mark.parametrize("command", ["spectrum", "expand"])
def test_negative_m_max_rejected(command, capsys):
    # expand died in the cluster grouping, spectrum printed an empty table
    rc = main([command, "--panels", "64", "--m-max", "-1"])
    assert rc == 2
    assert (capsys.readouterr().err
            == "error: --m-max: m_max=-1 is negative\n")


@pytest.mark.parametrize("command", ["spectrum", "green", "expand"])
@pytest.mark.parametrize("args, message", [
    (["--boundary", "bogus"], "--boundary: unknown boundary preset 'bogus'"),
    (["--potential", "notjson"], "--potential: Expecting value"),
    (["--potential", '{"family": "nope"}'],
     "--potential: unknown potential family 'nope'"),
    (["--panels", "0"], "--panels: panels=0 is below 1"),
], ids=["boundary", "potential-json", "potential-family", "panels"])
def test_problem_argument_errors_exit_2(command, args, message, capsys):
    # each died with a KeyError, JSONDecodeError or ValueError traceback
    rc = main([command, "--panels", "16", *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_expand_refuses_a_bad_function(capsys):
    rc = main(["expand", "--panels", "16", "--m-max", "1",
               "--function", "notjson"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --function: ")


def test_computation_errors_still_raise():
    # a pole of the resolvent is not an argument error: lambda = 1 is an
    # eigenvalue of the free Dirichlet-type operator
    with pytest.raises(PoleError):
        main(["green", "--panels", "16", "--re-lambda", "1",
              "--im-lambda", "0"])


def test_green_command(capsys):
    rc = main(["green", "--panels", "64",
               "--re-lambda", "0.4", "--im-lambda", "1.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "explicit-G0" in out and "sup |g_jk|" in out


def test_green_command_constructed_jump(capsys):
    # the jump readout of the constructed kernel: diag(-i, i) to 1e-6
    rc = main(["green", "--panels", "64", "--re-lambda", "2.3",
               "--im-lambda", "-0.7",
               "--potential", '{"family": "constant_offdiag", "c": 0.3}'])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel provenance: constructed" in out
    line = next(s for s in out.splitlines() if s.startswith("diagonal jump"))
    jump = np.array(ast.literal_eval(line.split(": ", 1)[1]))
    assert np.max(np.abs(jump - np.diag([-1j, 1j]))) < 1e-6


def test_expand_command(capsys):
    rc = main(["expand", "--panels", "64", "--m-max", "2",
               "--potential", '{"family": "constant_offdiag", "c": 0.3}'])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == \
        "n,re_coeff,im_coeff,re_lambda,im_lambda"
    assert "||S_2 f - f||_2" in captured.err


def test_resnorm_command(capsys):
    rc = main(["resnorm", "--panels", "64", "--mu", "2", "--nu", "2",
               "--y", "4,8,16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "y,norm_estimate"
    assert "fitted slope" in out


@pytest.mark.parametrize("flag,name", [("--mu", "mu"), ("--nu", "nu")])
def test_resnorm_rejects_nan_exponent(flag, name, capsys):
    # a NaN exponent would print nan estimates and a nan slope and exit 0
    rc = main(["resnorm", "--panels", "16", flag, "nan", "--y", "4,8"])
    assert rc == 2
    assert f"{name} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--mu", "0.5"], "--mu/--nu/--y: mu must be >= 1 or inf, got 0.5"),
    (["--y", "4"], "--mu/--nu/--y: y_list must hold positive finite values"),
    (["--y", "4,x"], "--y: could not convert string to float: 'x'"),
    (["--boundary", "bogus"], "--boundary: unknown boundary preset 'bogus'"),
], ids=["mu", "one-y", "y-not-float", "boundary"])
def test_resnorm_argument_errors_exit_2(args, message, capsys):
    rc = main(["resnorm", "--panels", "16", *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("flag", ["--mu", "--nu"])
def test_resnorm_rejects_non_numeric_exponent(flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(["resnorm", "--panels", "16", flag, "abc", "--y", "4,8"])
    assert err.value.code == 2
    assert (f"argument {flag}: invalid float value: 'abc'"
            in capsys.readouterr().err)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
