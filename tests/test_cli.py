import ast
import json

import numpy as np
import pytest

from diraclab import CSV_HEADER
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


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--potential", '{"family": "zero"}',
               "--panels", "64", "--m-max", "2", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 1 + 10       # n in [-4, 5]


@pytest.mark.parametrize("command", ["spectrum", "expand"])
def test_negative_m_max_rejected(command):
    # expand died in the cluster grouping, spectrum printed an empty table
    with pytest.raises(ValueError, match="m_max=-1 is negative"):
        main([command, "--panels", "64", "--m-max", "-1"])


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
def test_resnorm_rejects_nan_exponent(flag, name):
    # a NaN exponent would print nan estimates and a nan slope and exit 0
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        main(["resnorm", "--panels", "16", flag, "nan", "--y", "4,8"])


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
