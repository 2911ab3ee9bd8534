import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diraclab.harness as harness
from diraclab import (CSV_HEADER, EquiconvReport, ExperimentConfig,
                      OutsideTheoremError, StageError, admissible,
                      emit_report, lp_norm, make_function, run_equiconv,
                      sweep)
from diraclab.harness import _worker_count

PI = np.pi

EXPONENTS = st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0, np.inf])


def test_admissible_examples():
    assert admissible(np.inf, 2.0, np.inf) == (True, False)
    assert admissible(2.0, 2.0, np.inf) == (True, False)
    assert admissible(2.0, 1.0, np.inf) == (False, False)   # 1/2 + 1 > 1
    assert admissible("inf", "inf", 2.0) == (True, False)
    assert admissible(4.0, 4.0 / 3.0, 2.0) == (True, False)


def test_excluded_corner_never_admissible():
    ok, excluded = admissible(np.inf, 1.0, np.inf)
    assert excluded and not ok
    # moving any exponent off the corner leaves the excluded flag unset
    assert admissible(np.inf, 1.0, 2.0) == (True, False)
    assert admissible(2.0, 1.0, np.inf)[1] is False


def test_admissible_rejects_kappa_at_most_one():
    with pytest.raises(OutsideTheoremError):
        admissible(1.0, 2.0, 2.0)
    with pytest.raises(OutsideTheoremError):
        admissible(0.5, 2.0, 2.0)


def test_admissible_rejects_bad_exponents():
    with pytest.raises(ValueError):
        admissible(2.0, 0.5, 2.0)
    # a kappa that is no number is a bad exponent, not one outside the
    # theorem
    for kappa in ("abc", np.nan):
        with pytest.raises(ValueError, match="kappa") as err:
            admissible(kappa, 2.0, 2.0)
        assert not isinstance(err.value, OutsideTheoremError)


@settings(max_examples=60, deadline=None)
@given(kappa=st.sampled_from([1.5, 2.0, 4.0, np.inf]),
       mu=EXPONENTS, nu1=EXPONENTS, nu2=EXPONENTS)
def test_admissible_monotone_in_nu(kappa, mu, nu1, nu2):
    # increasing nu only shrinks 1/nu, so admissibility can only be lost
    lo, hi = sorted([nu1, nu2])
    ok_lo, exc_lo = admissible(kappa, mu, lo)
    ok_hi, exc_hi = admissible(kappa, mu, hi)
    if ok_hi and not exc_lo:
        assert ok_lo


def test_config_roundtrip():
    cfg = ExperimentConfig(kappa=np.inf, mu=1.0, nu_list=(2.0, np.inf),
                           m_schedule=(2, 4, 8))
    cfg2 = ExperimentConfig(**json.loads(json.dumps(cfg.to_dict())))
    assert cfg2 == cfg


@pytest.mark.parametrize("field, value, message", [
    ("mesh_panels", 0, "mesh_panels=0 is below 1"),
    ("mesh_panels", -4, "mesh_panels=-4 is below 1"),
    ("mesh_panels", 64.5, "mesh_panels=64.5 is not an integer"),
    ("mesh_order", 0, "mesh_order=0 is below 1"),
    ("mesh_order", 2.5, "mesh_order=2.5 is not an integer"),
])
def test_config_refuses_bad_mesh_sizes(field, value, message):
    # these built, and failed only in run_equiconv as StageError [setup]
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("kw, message", [
    ({"m_schedule": (2, float("nan"))},
     "m schedule (2, nan) holds a non-integer or negative m: "
     "m=nan is not an integer"),
    ({"seed": 1.5}, "seed=1.5 is not an integer"),
    ({"seed": -1}, "seed=-1 is negative"),
])
def test_config_refuses_bad_counts_by_name(kw, message):
    # NaN raised Python's bare "cannot convert float NaN to integer", and a
    # fractional or negative seed built and failed only in run_equiconv as
    # StageError [setup], from numpy's default_rng
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**kw)
    assert ExperimentConfig(seed=3.0).seed == 3


@pytest.mark.parametrize("field, value, message", [
    ("nu_list", 2, "nu_list=2 is not a list"),
    ("m_schedule", 8, "m_schedule=8 is not a list"),
    ("nu_list", "inf", "nu_list='inf' is not a list"),
    ("potential", "zero", "potential='zero' is not a spec object"),
    ("f", ["smooth"], "f=['smooth'] is not a spec object"),
    ("mesh_panels", True, "mesh_panels=True is not an integer"),
])
def test_config_refuses_values_of_the_wrong_type(field, value, message):
    # a bare TypeError ('int' object is not iterable), "inf" refused as
    # nu='i', StageError [setup] AttributeError, and true run as 1 panel
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("spec, message", [
    ({"family": "bump", "widht": 0.1},
     "unknown key 'widht' in a bump function spec; its keys are family, "
     "center, width, component"),
    ({"family": "power", "x_0": 1.0},
     "unknown key 'x_0' in a power function spec; its keys are family, eps, "
     "x0, component"),
    ({"family": "random_trig", "seed": 3},
     "unknown key 'seed' in a random_trig function spec; its keys are "
     "family, n_terms"),
    ({"components": [], "family": "smooth", "amp": 1},
     "unknown key 'amp' in a smooth function spec; its keys are family, "
     "components"),
    ("smooth", "function spec 'smooth' is not an object"),
    ({"family": "wavelet"}, "unknown function family 'wavelet'"),
])
def test_make_function_refuses_unknown_keys_by_name(mesh96, spec, message):
    # a misspelled key silently took its default: "widht" gave the default
    # bump of width pi/8
    with pytest.raises(ValueError, match=re.escape(message)):
        make_function(spec, mesh96)


def test_make_function_refuses_a_malformed_term_by_name(mesh96):
    with pytest.raises(ValueError,
                       match=re.escape("term ['cos', 2] is not [kind, k, "
                                       "amp]")):
        make_function({"family": "smooth",
                       "components": [[["sin", 1, 1.0]], [["cos", 2]]]},
                      mesh96)


def test_make_function_refuses_fractional_random_trig_terms(mesh96):
    # int() silently truncated 2.5 terms to 2
    with pytest.raises(ValueError,
                       match=re.escape("random_trig n_terms=2.5 is not an "
                                       "integer")):
        make_function({"family": "random_trig", "n_terms": 2.5}, mesh96)
    two = make_function({"family": "random_trig", "n_terms": 2}, mesh96)
    assert np.array_equal(make_function({"family": "random_trig",
                                         "n_terms": 2.0}, mesh96).values,
                          two.values)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m_schedule=(4, 2))
    with pytest.raises(ValueError):
        ExperimentConfig(comparison="mystery")
    # an empty schedule has no m_max; S_m for m < 0 sums over no index
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig(m_schedule=())
    with pytest.raises(ValueError, match="negative"):
        ExperimentConfig(m_schedule=(-1, 2))
    # int() would truncate 2.7 to 2 without a word
    with pytest.raises(ValueError, match="non-integer"):
        ExperimentConfig(m_schedule=(2.7, 4))
    assert ExperimentConfig(m_schedule=(2.0, 4)).m_schedule == (2, 4)
    assert ExperimentConfig(m_schedule=(0, 2)).m_schedule == (0, 2)
    # exponents: an empty nu list would give a report with no rows, and an
    # exponent below 1 would fail only after the whole pipeline had run
    bad = [({"nu_list": ()}, "empty"), ({"mu": 0.5}, "mu"),
           ({"nu_list": (0.5,)}, "nu"), ({"nu_list": (2.0, 0.99)}, "nu"),
           ({"mu": 0}, "mu"), ({"mu": -2.0}, "mu")]
    for kw, match in bad:
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kw)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{k: list(v) if isinstance(v, tuple) else v
                                for k, v in kw.items()})
    with pytest.raises(ValueError, match="nu"):
        ExperimentConfig(nu_list=[2.0, "0.5"])
    # a NaN exponent is named, not left to Fraction; a repeated nu would
    # give each row twice and one verdict; an exponent that is no number
    # would pass the check and fail in the pipeline
    nan = float("nan")
    bad = [({"mu": nan}, "mu.*NaN"), ({"mu": "nan"}, "mu.*NaN"),
           ({"kappa": nan}, "kappa.*NaN"), ({"kappa": "nan"}, "kappa.*NaN"),
           ({"nu_list": (2.0, nan)}, "nu.*NaN"),
           ({"nu_list": (2.0, 2.0)}, "nu list.*repeats"),
           ({"nu_list": (2, 2.0)}, "nu list.*repeats"),
           ({"nu_list": ("inf", np.inf)}, "nu list.*repeats"),
           ({"nu_list": ("inf", 2.0, "Infinity")}, "nu list.*repeats"),
           ({"nu_list": ("two",)}, "nu='two'"), ({"mu": "x"}, "mu='x'"),
           ({"kappa": "big"}, "kappa='big'")]
    for kw, match in bad:
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kw)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{k: list(v) if isinstance(v, tuple) else v
                                for k, v in kw.items()})
    # "inf" stays accepted, as a string and as a float, and is stored as
    # np.inf whether it came from keywords or from a JSON document
    cfg = ExperimentConfig(mu="inf", nu_list=["inf", 1])
    assert cfg.mu == np.inf and cfg.nu_list == (np.inf, 1)
    cfg = ExperimentConfig(kappa="inf", mu="inf", nu_list=("inf", 1.0))
    assert cfg.kappa == cfg.mu == np.inf and cfg.nu_list == (np.inf, 1.0)
    assert ExperimentConfig(mu=1, nu_list=(1.0, np.inf)).nu_list == \
        (1.0, np.inf)
    # a finite kappa <= 1 builds; run_equiconv reports it as a warning
    assert ExperimentConfig(kappa=0.5).kappa == 0.5
    assert ExperimentConfig(kappa="1").kappa == 1.0


@pytest.mark.parametrize("value", ["two", "2.5", "0", "-3"])
def test_worker_count_rejects_bad_threads(monkeypatch, value):
    monkeypatch.setenv("DIRACLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"DIRACLAB_THREADS='{value}'"):
        _worker_count()
    with pytest.raises(ValueError, match="DIRACLAB_THREADS"):
        sweep([ExperimentConfig(nu_list=(2.0,), m_schedule=(2,),
                                mesh_panels=32)])


def test_worker_count_reads_threads(monkeypatch):
    monkeypatch.setenv("DIRACLAB_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("DIRACLAB_THREADS", "")
    assert 1 <= _worker_count() <= 8
    monkeypatch.delenv("DIRACLAB_THREADS")
    assert 1 <= _worker_count() <= 8


def test_make_function_families(mesh96, dirichlet):
    smooth = make_function({"family": "smooth"}, mesh96)
    assert lp_norm(smooth, 2) > 0.1
    bump = make_function({"family": "bump", "component": 1}, mesh96)
    assert np.all(bump.values[0] == 0.0)
    power = make_function({"family": "power"}, mesh96, mu=2.0)
    assert lp_norm(power, 2) < np.inf
    r1 = make_function({"family": "random_trig"}, mesh96, seed=4)
    r2 = make_function({"family": "random_trig"}, mesh96, seed=4)
    r3 = make_function({"family": "random_trig"}, mesh96, seed=5)
    assert np.array_equal(r1.values, r2.values)
    assert not np.array_equal(r1.values, r3.values)
    with pytest.raises(ValueError):
        make_function({"family": "spline"}, mesh96)


@pytest.mark.parametrize("spec, message", [
    *[({"family": family, "component": comp},
       f"component must be 0 or 1; got {comp}")
      for family in ("bump", "power") for comp in (-1, 2)],
    *[({"family": "bump", "width": w}, f"bump width must be positive; got {w}")
      for w in (0.0, -0.5)],
])
def test_make_function_refuses_bad_component_and_width(mesh96, spec,
                                                       message):
    # -1 would fill the second component, 2 end in a bare IndexError and a
    # width <= 0 give f = 0, each without a word
    with pytest.raises(ValueError, match=re.escape(message)):
        make_function(spec, mesh96)


@pytest.mark.parametrize("spec, message", [
    (lambda mesh: {"family": "bump", "center": 10},
     "bump center 10.0 and width 0.39269908169872414 cover no mesh node"),
    (lambda mesh: {"family": "bump", "center": 0.5, "width": 1e-4},
     "bump center 0.5 and width 0.0001 cover no mesh node"),
    (lambda mesh: {"family": "power", "x0": float(mesh.nodes[7])},
     "power x0="),
    (lambda mesh: {"family": "random_trig", "n_terms": 0},
     "random_trig n_terms must be positive; got 0"),
    (lambda mesh: {"family": "random_trig", "n_terms": -2},
     "random_trig n_terms must be positive; got -2"),
], ids=["bump-outside", "bump-between-nodes", "power-on-node",
        "random-trig-no-terms", "random-trig-negative"])
def test_make_function_refuses_zero_or_infinite_functions(mesh96, spec,
                                                         message):
    # a bump that covers no node and a random_trig with no terms gave
    # f = 0, and a power function singular at a node filled inf with a
    # RuntimeWarning, each without a word
    spec = spec(mesh96)
    with pytest.raises(ValueError, match=re.escape(message)):
        make_function(spec, mesh96, mu=2.0)


def test_make_function_smooth_terms(mesh96):
    x = mesh96.nodes
    f = make_function({"family": "smooth", "components": [
        [["pow", 2, 0.5], ["sin", 0.5, [0, 1]]], [["cos", 3, 1.0]]]}, mesh96)
    assert np.allclose(f.values[0], 0.5 * x ** 2 + 1j * np.sin(0.5 * x))
    assert np.allclose(f.values[1], np.cos(3 * x))
    with pytest.raises(ValueError, match="tan"):
        make_function({"family": "smooth", "components": [
            [["tan", 1, 1.0]], [["sin", 1, 1.0]]]}, mesh96)


def test_make_function_bc_smooth_satisfies_form(mesh96, dirichlet):
    f = make_function({"family": "bc_smooth"}, mesh96, form=dirichlet)
    f0 = np.array([mesh96.interpolate(f.values[i], 0.0) for i in range(2)])
    fpi = np.array([mesh96.interpolate(f.values[i], PI) for i in range(2)])
    assert np.max(np.abs(dirichlet.C @ f0 + dirichlet.D @ fpi)) < 1e-8
    with pytest.raises(ValueError):
        make_function({"family": "bc_smooth"}, mesh96)


def test_run_equiconv_zero_potential_control():
    cfg = ExperimentConfig(potential={"family": "zero"}, kappa=np.inf,
                           nu_list=(2.0, np.inf), m_schedule=(2, 4),
                           mesh_panels=64)
    rep = run_equiconv(cfg)
    for r in rep.rows:
        assert r["norm_diff"] < 1e-8


def test_run_equiconv_decay_and_verdicts():
    cfg = ExperimentConfig(
        potential={"family": "constant_offdiag", "c": 0.3}, kappa=np.inf,
        f={"family": "smooth"}, mu=2.0, nu_list=(2.0, np.inf),
        m_schedule=(2, 8), mesh_panels=64)
    rep = run_equiconv(cfg)
    norm = {(r["m"], r["nu"]): r["norm_diff"] for r in rep.rows}
    assert norm[8, np.inf] < norm[2, np.inf]
    assert rep.verdicts[np.inf] == (True, False)
    assert rep.metadata["M_est"] > 0.0
    # the root systems' largest |Delta(lambda_n)|, below the acceptance
    # level the scale (>= 1) can only raise
    res = rep.metadata["delta_residual"]
    assert set(res) == {"operator", "comparison"}
    assert all(0.0 <= v <= 1e-6 for v in res.values())
    # the Liouville residual of the M_est probe's fundamental system
    assert 0.0 <= rep.metadata["det_residual"] < 1e-9
    assert set(rep.metadata["timings"]) == {
        "setup", "root_system", "comparison_system", "partial_sums",
        "metadata"}


def test_run_equiconv_kappa_one_flagged():
    cfg = ExperimentConfig(potential={"family": "zero"}, kappa=1.0,
                           nu_list=(2.0,), m_schedule=(2,), mesh_panels=64)
    rep = run_equiconv(cfg)
    assert rep.verdicts[2.0] == (False, False)
    assert any("kappa" in w for w in rep.warnings)


def test_run_equiconv_stage_error():
    cfg = ExperimentConfig(potential={"family": "nope"}, m_schedule=(2,),
                           mesh_panels=64)
    with pytest.raises(StageError) as ei:
        run_equiconv(cfg)
    assert ei.value.stage == "setup"
    # a bad trig term kind fails when the potential is built, not later
    cfg = ExperimentConfig(potential={"family": "trig",
                                      "p2": [["tan", 1, 0.5]]},
                           m_schedule=(2,), mesh_panels=64)
    with pytest.raises(StageError) as ei:
        run_equiconv(cfg)
    assert ei.value.stage == "setup"


def test_run_equiconv_lets_keyboard_interrupt_through(monkeypatch):
    # a stage tags only Exceptions: Ctrl-C reaches the caller unchanged
    interrupt = KeyboardInterrupt()

    def interrupted(spec):
        raise interrupt

    monkeypatch.setattr(harness, "make_potential", interrupted)
    cfg = ExperimentConfig(m_schedule=(2,), mesh_panels=64)
    with pytest.raises(KeyboardInterrupt) as ei:
        run_equiconv(cfg)
    assert ei.value is interrupt


def test_run_equiconv_rejects_kappa_beyond_singularity():
    # |x - 1.1|^(-0.6) lies in L_kappa only for kappa < 5/3
    pot = {"family": "power", "alpha": 0.6, "x0": 1.1, "amplitude": 0.5}
    for kappa in ("inf", np.inf, 2.0, 5 / 3):
        cfg = ExperimentConfig(potential=pot, kappa=kappa, m_schedule=(2,),
                               mesh_panels=64)
        with pytest.raises(StageError) as ei:
            run_equiconv(cfg)
        assert ei.value.stage == "setup"
        assert "alpha*kappa >= 1" in str(ei.value)
    cfg = ExperimentConfig(potential=pot, kappa=1.5, m_schedule=(2,),
                           mesh_panels=64)
    assert run_equiconv(cfg).rows


def test_sweep_isolates_failures(tmp_path):
    good = ExperimentConfig(potential={"family": "zero"}, nu_list=(2.0,),
                            m_schedule=(2,), mesh_panels=64)
    bad = ExperimentConfig(potential={"family": "zero"},
                           boundary=[[[1, 0], [0, 0], [0, 0], [0, 0]],
                                     [[0, 0], [1, 0], [0, 0], [0, 0]]],
                           nu_list=(2.0,), m_schedule=(2,), mesh_panels=64)
    out = tmp_path / "runs"
    bundle = sweep([good, bad, good], out_dir=str(out))
    assert len(bundle["reports"]) == 2
    assert len(bundle["errors"]) == 1
    assert "config 1" in bundle["errors"][0]
    index = json.loads((out / "index.json").read_text())
    assert [e["status"] for e in index] == ["ok", "error", "ok"]


def test_emit_and_parse_roundtrip(tmp_path):
    cfg = ExperimentConfig(potential={"family": "zero"},
                           nu_list=(2.0, np.inf), m_schedule=(2, 4),
                           mesh_panels=64)
    rep = run_equiconv(cfg)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert emit_report(rep, str(tmp_path / "r")) == (str(csv_path),
                                                     str(json_path))
    header, *lines = csv_path.read_text().splitlines()
    assert header == CSV_HEADER
    assert len(lines) == len(rep.rows)
    for line, orig in zip(lines, rep.rows):
        m, nu, norm_diff, _, _ = line.split(",")
        assert int(m) == orig["m"]
        assert (np.inf if nu == "inf" else float(nu)) == orig["nu"]
        assert float(norm_diff) == orig["norm_diff"]   # repr round-trips
    doc = json.loads(json_path.read_text())
    assert doc["config"]["kappa"] == "inf"
    assert doc["verdicts"]["inf"]["admissible"] in (True, False)


def test_reports_deterministic(tmp_path):
    cfg = ExperimentConfig(
        potential={"family": "constant_offdiag", "c": 0.3},
        f={"family": "random_trig"}, seed=11, nu_list=(2.0,),
        m_schedule=(2,), mesh_panels=64)
    emit_report(run_equiconv(cfg), str(tmp_path / "a"))
    emit_report(run_equiconv(cfg), str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()
