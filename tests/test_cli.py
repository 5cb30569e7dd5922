"""End-to-end tests of the command-line front end (mtcrit.cli.main)."""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mtcrit import cli
from mtcrit import profiles as profiles_module
from mtcrit import variational
from mtcrit.cli import main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_criterion_zero_family(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "Zero"}})
    rc = main(["criterion", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ExtremalExists_l" in out
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == "ExtremalExists_l"
    assert rep["l_closed"] == pytest.approx(0.5 * (1 + 2 / math.e), abs=1e-9)
    assert rep["l_grid"] == pytest.approx(0.5 * (1 + 2 / math.e), abs=1e-12)
    assert rep["diagnostics"]["log_gamma_grid"] == [2.0**j for j in range(6, 17)]
    # |Lambda(n) - Lambda(n/2)| at the default n_grid = 2000
    assert rep["lambda_gap"] == pytest.approx(4.6e-6, rel=0.05)
    assert rep["lambda_termination"] == ["rtol", "rtol"]
    assert "config_hash" in rep and "version" in rep
    assert (tmp_path / "ratio_curve.csv").exists()


def test_criterion_deterministic(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "Zero"}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["criterion", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["criterion", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "criterion.json").read_bytes() == (out2 / "criterion.json").read_bytes()


def test_criterion_inconclusive_exit_2(tmp_path, robin0):
    # Border family a' = 2 exactly at the threshold c'* = -(1 + 4 S e^{-1-M})
    # computed with the same Robin constants the tool uses: the limit l
    # cancels to zero and sits inside its confidence band.
    c_star = -(1.0 + 4.0 * robin0.S * math.exp(-1.0 - robin0.M))
    cfg = _write(tmp_path, "cfg.json", {
        "family": {"kind": "PowerLog", "c_prime": c_star,
                   "a_prime": 2.0, "b_prime": 0.0}})
    rc = main(["criterion", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == "Inconclusive"


def test_criterion_reports_the_grid_extrapolant(tmp_path, capsys):
    # a = 1, b = 1/2: the two B pieces tie in gamma^-1 and part only by
    # (log gamma)^-1/2, so the grid extrapolant keeps a visible remainder
    # while the closed form is exact.  The report must carry the grid value,
    # not a copy of the closed form.
    cfg = _write(tmp_path, "cfg.json", {
        "family": {"kind": "PowerLog", "c": -0.5, "a": 1.0, "b": 0.5}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["l_closed"] == pytest.approx(0.5 * (1 + 2 / math.e), abs=1e-12)
    assert rep["l_grid"] == pytest.approx(0.8679550, abs=1e-7)
    assert rep["l_confidence"] >= abs(rep["l_closed"] - rep["l_grid"])
    assert rep["verdict"] == "ExtremalExists_l"
    out = capsys.readouterr().out
    assert f"l_grid={rep['l_grid']:.6f} (+-{rep['l_confidence']:.2g})" in out


def test_criterion_tied_B_pieces(tmp_path, capsys):
    # a = 1, b = 0: the two B pieces share gamma^-1 and nearly cancel
    # (1 + c = 0.2); the closed form and the grid now agree.
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "PowerLog", "c": -0.8,
                                                   "a": 1.0, "b": 0.0}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == "ExtremalExists_l"
    want = (1.0 + 4.0 * rep["S"] * math.exp(-1.0 - rep["M"]) * 0.2) / 1.2
    assert rep["l_closed"] == pytest.approx(want, rel=1e-15)
    assert rep["l_grid"] == pytest.approx(rep["l_closed"], abs=1e-12)


def test_criterion_unconverged_lambda_g_is_inconclusive(tmp_path, monkeypatch):
    # l = -1/2 would say no extremal if Lambda_g sat below pi e^{1+M}; an
    # ascent cut off after three steps bounds nothing, so its gap is inf and
    # the verdict is Inconclusive.
    monkeypatch.setattr(variational, "_MAX_ITER", 3)
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "PowerLog", "c_prime": -0.7,
                                                   "a_prime": 0.25, "b_prime": 0.8}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 2
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == "Inconclusive"
    assert rep["l_closed"] == pytest.approx(-0.5, abs=1e-12)
    assert rep["lambda_gap"] is None
    assert rep["lambda_termination"] == ["max_iter", "max_iter"]


@pytest.mark.parametrize("c_prime,verdict,code", [
    (-0.441379, "NoExtremal_Truncations", 0),
    (-0.136207, "NoExtremal_Truncations", 0),
    (0.067241, "ExtremalExists_l", 0),
])
def test_criterion_wide_grid_spread_still_classifies(tmp_path, c_prime, verdict, code):
    # a' = 0.05: A's piece decays slowest and rules the ratio from k = 2^6
    # on, so every grid value is the limit sign(c')/2 and the extrapolants do
    # not spread.  Each verdict is Cor. 2's.
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "PowerLog", "c_prime": c_prime,
                                                   "a_prime": 0.05, "b_prime": 1.5}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == code
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == verdict
    assert rep["l_grid"] == rep["l_closed"] == math.copysign(0.5, c_prime)
    assert rep["l_confidence"] == 0.0


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "PowerLog",
                                                   "c": 1.0, "a": -2.0}})
    rc = main(["criterion", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "family" in capsys.readouterr().err


def test_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    rc = main(["criterion", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config(tmp_path, capsys):
    rc = main(["criterion", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_profiles_rmax_validation(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"r_max": 10})
    rc = main(["profiles", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "r_max" in capsys.readouterr().err


def test_profiles_rmax_below_floor_refused_before_solving(tmp_path, capsys, monkeypatch):
    # solve_profile refuses r_max < R_MAX_FLOOR = 100; the command must refuse
    # such a radius up front, not after the first solve.
    solves = []
    monkeypatch.setattr(cli, "solve_profile", lambda *a, **k: solves.append(a))
    cfg = _write(tmp_path, "cfg.json", {"r_max": 99})
    rc = main(["profiles", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "field 'r_max'" in err and ">= 100" in err
    assert "Error:" not in err
    assert solves == []


@pytest.mark.parametrize("r_max", [100, 500, 999, 1e60])
def test_profiles_meet_the_verify_bounds_from_the_floor(tmp_path, r_max):
    # The integrals carry their tails past r_max, so the bounds of verify's
    # rows hold from r_max = 100 on (measured there: A_check within 1.5e-5
    # relative, I_S0 within 1.2e-11, I_T0sq within 3.1e-10 of 2 pi) up to
    # the ceiling R_MAX_CEILING = 1e60 (A_check within 7e-9 relative).
    cfg = _write(tmp_path, "cfg.json", {"r_max": r_max})
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "profiles.json").read_text())
    ints = rep["integrals"]
    for got, want in zip(ints["A_check"], profiles_module.A_CONSTANTS):
        assert got == pytest.approx(want, rel=5e-3)
    assert abs(ints["I_S0"]) < 1e-6
    assert ints["I_T0sq"] == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert all(c["r_max"] == r_max for c in rep["constants"].values())


def test_bubble_bad_eps0(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "Zero"}, "eps0": 0.2})
    rc = main(["bubble", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "eps0" in capsys.readouterr().err


def test_extremal_bad_alpha(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "Zero"},
                                        "alpha_ladder": [0.5, 1.0]})
    rc = main(["extremal", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("family,level", [
    ({"kind": "Zero"}, "11.681327"),
    ({"kind": "PowerLog", "g0": 0.5}, "13.252123"),
], ids=["Zero", "g0-0.5"])
def test_extremal_reports_the_blowup_level(tmp_path, capsys, family, level):
    # The level (1 + g(0)) pi + pi e^{1+M} of the unit disk (M = 0) that the
    # truncated-log test function is compared with.
    cfg = _write(tmp_path, "cfg.json", {"family": family, "alpha_ladder": [0.7]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert f"(blow-up level {level})" in capsys.readouterr().out
    step1 = json.loads((tmp_path / "extremal.json").read_text())["step1"]
    g0 = family.get("g0", 0.0)
    assert step1["blowup_level"] == pytest.approx((1.0 + g0) * math.pi + math.pi * math.e,
                                                  rel=1e-15)


def test_extremal_closed_form_height_may_not_exist(tmp_path):
    # c' = 30, a' = 1/2: gamma^2 A/2 = 2.64 at gamma = 5, so the closed-form
    # log(1/mu~^2) = gamma^2 - 1 + log1p(x) has x <= -1 and no value.  The
    # report writes null for it; the root and the truncated form exist.
    cfg = _write(tmp_path, "cfg.json", {
        "family": {"kind": "PowerLog", "c_prime": 30, "a_prime": 0.5, "b_prime": 0.5},
        "alpha_ladder": [0.7]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 0
    mt = json.loads((tmp_path / "extremal.json").read_text())["model_testfun"]
    assert mt["log_inv_mu2_closed"] is None
    assert mt["log_inv_mu2"] == pytest.approx(21.91, abs=0.01)
    assert mt["log_inv_mu2_truncated"] == pytest.approx(21.78, abs=0.01)


def test_readme_lists_every_config_key():
    # The README names each top-level key once, in its key list.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = text.split("A scenario config is a JSON object with the optional keys")[1]
    listed = listed.split(".")[0]
    assert set(re.findall(r"`(\w+)`", listed)) == cli.CONFIG_KEYS


@pytest.mark.parametrize("cmd", ["criterion", "extremal"])
def test_rectangle_refused_before_solving(tmp_path, capsys, monkeypatch, cmd):
    solves = []
    for name in ("robin_report", "lambda_g_report", "solve_subcritical"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", {"domain": {"shape": "Rectangle",
                                                   "width": 2.0, "height": 1.0}})
    rc = main([cmd, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "domain" in err and "unit disk" in err
    assert solves == []


@pytest.mark.parametrize("payload,field", [
    ({"family": {"kind": "Tabulated"}}, "family"),
    ({"family": {"kind": "Zero", "g0": 0.5}}, "family"),
], ids=["tabulated", "zero-with-g0"])
def test_criterion_config_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                 payload, field):
    solves = []
    for name in ("robin_report", "lambda_g_report"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"field '{field}'" in capsys.readouterr().err
    assert solves == []


# (c', a', b') = (1, 3, 1/2), with JSON integers where they are whole
POWERLOG_3_HALF = {"kind": "PowerLog", "c_prime": 1, "a_prime": 3, "b_prime": 0.5}


def test_family_fields_may_be_json_integers(tmp_path):
    # "R_prime": 10 reaches the family as an int; it used to be refused with
    # NumPy's "Integers to negative integer powers are not allowed"
    reports = []
    for R in (10, 10.0):
        out = tmp_path / str(R)
        out.mkdir()
        cfg = _write(tmp_path, "cfg.json", {"family": {**POWERLOG_3_HALF, "R_prime": R}})
        assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "criterion.json").read_text())
        reports.append({k: v for k, v in rep.items() if k != "config_hash"})
    assert reports[0] == reports[1]


# A(gamma) of this family carries (log gamma)^-1/2: inf at gamma = 1, nan below
POWERLOG_NO_A_BELOW_1 = {"kind": "PowerLog", "c_prime": 0.5, "a_prime": 1.0, "b_prime": 0.5}


@pytest.mark.parametrize("cmd,payload,field,named", [
    ("bubble", {"N": 1.7}, "N", "1.7"),
    ("extremal", {"N": 1.7}, "N", "1.7"),
    ("bubble", {"N": 0}, "N", "0"),
    ("extremal", {"N": True}, "N", "True"),
    ("bubble", {"N": "1"}, "N", "'1'"),
    ("bubble", {"gamma_ladder": []}, "gamma_ladder", "gamma_ladder"),
    ("bubble", {"gamma_ladder": [3.0, 0.0]}, "gamma_ladder", "> 0"),
    ("extremal", {"alpha_ladder": []}, "alpha_ladder", "alpha_ladder"),
    ("extremal", {"alpha_ladder": [0.0, 0.9]}, "alpha_ladder", "(0, 4 pi)"),
    ("criterion", {"gamma_grdi": [7.0, 20.0, 55.0, 150.0]}, "gamma_grdi", "unknown"),
    # keys of older configs that configure nothing: extremal ascends from one
    # start, criterion checks l on the fixed LOG_GAMMA_GRID, bubble seeds at
    # the disk's Robin maximum 0, and the domain's quadrature order and image
    # layers are fixed by the code
    ("extremal", {"alpha_ladder": [0.7], "starts": ["eigen", "bubble"]}, "starts", "unknown"),
    ("criterion", {"gamma_grid": [7.0, 20.0, 55.0, 150.0]}, "gamma_grid", "unknown"),
    ("bubble", {"gamma_ladder": [3.0, 4.0], "robin_max": 1.5}, "robin_max", "unknown"),
    ("criterion", {"domain": {"quad_order": 64}}, "domain", "unknown key 'quad_order'"),
    ("extremal", {"domain": {"shape": "UnitDisk", "image_layers": 3}}, "domain",
     "unknown key 'image_layers'"),
    ("bubble", {"family": {"kind": "PowerLog", "cprime": -1.0, "a_prime": 1.0}},
     "family", "'cprime'"),
    # test_perturbation.DIPPING: both branches pass, the blend dips to -1.23
    ("criterion", {"family": {"kind": "PowerLog", "c": -0.93, "a": 0.5, "b": 1.6,
                              "g0": -0.3, "c_prime": -0.65, "a_prime": 1.6,
                              "b_prime": 1.4, "R_prime": 2.4}},
     "family", "Hermite blend dips"),
    ("extremal", {"domain": {"shape": "UnitDisk", "radius": 2.0}}, "domain", "'radius'"),
    ("criterion", {"domain": {"shape": "Rectangle", "widht": 3.0}}, "domain", "'widht'"),
    ("bubble", {"gamma_ladder": [3.0, math.nan]}, "gamma_ladder", "NaN or Infinity"),
    ("criterion", {"family": {"kind": "PowerLog", "c_prime": -math.inf, "a_prime": 1.0}},
     "family", "NaN or Infinity"),
    ("extremal", {"model_gamma": -1.0}, "model_gamma", "> 1"),
    ("extremal", {"model_gamma": 0.0}, "model_gamma", "> 1"),
    ("extremal", {"model_gamma": 1.0}, "model_gamma", "> 1"),
    ("extremal", {"model_gamma": 27.0}, "model_gamma", "underflows"),
    ("extremal", {"step1_eps": 0.0}, "step1_eps", "(0, 0.2]"),
    ("extremal", {"step1_eps": 0.3}, "step1_eps", "(0, 0.2]"),
    ("bubble", {"eps0": "0.75"}, "eps0", "'0.75'"),
    ("profiles", {"r_max": "1500"}, "r_max", "'1500'"),
    ("extremal", {"step1_eps": False}, "step1_eps", "False"),
    ("extremal", {"model_gamma": "abc"}, "model_gamma", "'abc'"),
    ("extremal", {"alpha_ladder": [0.7, "0.8"]}, "alpha_ladder", "'0.8'"),
    ("bubble", {"gamma_ladder": ["3"]}, "gamma_ladder", "'3'"),
    ("bubble", {"gamma_ladder": 3.0}, "gamma_ladder", "list of numbers"),
    ("profiles", {"r_max": 10**400}, "r_max", "too large for a double"),
    ("profiles", {"r_max": 1.000001e60}, "r_max", "<= 1e+60"),
    ("profiles", {"r_max": 9.9e103}, "r_max", "<= 1e+60"),
    ("extremal", {"N": 10**400}, "N", "too large for a double"),
    ("bubble", {"gamma_ladder": [10**400]}, "gamma_ladder", "too large for a double"),
    ("criterion", {"domain": {"shape": "Rectangle", "width": "2"}}, "domain", "'2'"),
    ("extremal", {"domain": {"shape": "UnitDisk", "width": "2"}}, "domain", "'2'"),
    ("criterion", {"domain": {"height": True}}, "domain", "True"),
    ("bubble", {"gamma_ladder": [3, 3.0000001, 4]}, "gamma_ladder",
     "3.0 and 3.0000001 would both write bubble_gamma3.csv"),
    ("bubble", {"gamma_ladder": [4.0, 3.0, 4]}, "gamma_ladder", "4.0 and 4.0"),
    ("extremal", {"alpha_ladder": [0.9, 0.9000001]}, "alpha_ladder",
     "0.9 and 0.9000001 would both write extremal_alpha11.3097.csv"),
    ("bubble", {"gamma_ladder": [9]}, "gamma_ladder", "eps0 = 0.75"),
    ("bubble", {"gamma_ladder": [8.0], "eps0": 0.65}, "gamma_ladder", "eps0 = 0.65"),
    ("bubble", {"gamma_ladder": [3, 27]}, "gamma_ladder", "exponent budget"),
    ("bubble", {"gamma_ladder": [0.5]}, "gamma_ladder", "holds no node"),
    ("bubble", {"N": 287}, "N", "N = 287 is too large for gamma = 3"),
    ("bubble", {"N": 10**12, "gamma_ladder": [26.0], "eps0": 0.99}, "N", "below the normal"),
    ("bubble", {"family": POWERLOG_NO_A_BELOW_1, "gamma_ladder": [1.0]}, "gamma_ladder",
     "only for gamma > 1"),
    ("bubble", {"family": POWERLOG_NO_A_BELOW_1, "gamma_ladder": [0.9, 2.0]},
     "gamma_ladder", "gamma = 0.9"),
    # family fields that used to run (a bool is an int to Python) or end in
    # a bare TypeError from a comparison
    ("criterion", {"family": {**POWERLOG_3_HALF, "c_prime": True}}, "family",
     "c_prime must be a finite number (got True)"),
    ("criterion", {"family": {**POWERLOG_3_HALF, "c_prime": "1"}}, "family",
     "c_prime must be a finite number (got '1')"),
    ("criterion", {"family": {**POWERLOG_3_HALF, "c_prime": None}}, "family",
     "c_prime must be a finite number (got None)"),
    ("criterion", {"family": {**POWERLOG_3_HALF, "c_prime": [1]}}, "family",
     "c_prime must be a finite number (got [1])"),
    ("criterion", {"family": {**POWERLOG_3_HALF, "R_prime": "10"}}, "family",
     "R_prime must be a finite number (got '10')"),
], ids=["N-fraction-bubble", "N-fraction-extremal", "N-zero", "N-bool", "N-string",
        "gamma-ladder-empty", "gamma-ladder-zero", "alpha-ladder-empty",
        "alpha-ladder-zero", "top-level-key", "starts", "gamma-grid", "robin-max",
        "domain-quad-order", "domain-image-layers", "family-key", "family-blend-dips",
        "domain-key", "rectangle-key", "gamma-ladder-nan",
        "family-minus-infinity", "model-gamma-negative",
        "model-gamma-zero", "model-gamma-one", "model-gamma-27", "step1-eps-zero", "step1-eps-large",
        "eps0-string", "r-max-string", "step1-eps-bool",
        "model-gamma-string", "alpha-ladder-string", "gamma-ladder-string",
        "gamma-ladder-number", "r-max-huge-int", "r-max-above-ceiling",
        "r-max-nan-integrals",
        "N-huge-int", "gamma-ladder-huge-int", "rectangle-width-string",
        "disk-width-string", "disk-height-bool", "gamma-ladder-same-file",
        "gamma-ladder-duplicate", "alpha-ladder-same-file", "gamma-ladder-window",
        "gamma-ladder-window-eps0", "gamma-ladder-budget", "gamma-ladder-empty-window",
        "N-past-underflow", "N-huge-past-underflow",
        "gamma-ladder-A-at-one", "gamma-ladder-A-below-one", "family-c-prime-bool",
        "family-c-prime-string", "family-c-prime-null", "family-c-prime-list",
        "family-R-prime-string"])
def test_config_refused_before_solving(tmp_path, capsys, monkeypatch, cmd, payload,
                                       field, named):
    solves = []
    for name in ("robin_report", "lambda_g_report", "solve_profile",
                 "solve_subcritical", "ladder_reports", "step1_testfun"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"field '{field}'" in err and named in err
    assert "Error:" not in err  # a ConfigError message, not a bare exception
    assert solves == []


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", [{"family": {"kind": "Zero"}}])
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [26, 27, 1000])
def test_model_gamma_is_refused_where_the_height_bracket_underflows(tmp_path, capsys, gamma):
    # The height bracket reaches log(1/mu~^2) = L_seed + 5 with L_seed about
    # gamma^2 - 1; past -log(smallest normal double) = 708.4 (gamma >= 27),
    # extremal is refused before the alpha ladder runs, where it used to end
    # in RootFailError (27) or OverflowError (1000) after it.
    cfg = _write(tmp_path, "cfg.json", {"alpha_ladder": [0.7], "model_gamma": gamma})
    code = main(["extremal", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    csvs = list(tmp_path.glob("extremal_alpha*.csv"))
    if gamma == 26:
        assert code == 0 and len(csvs) == 1
        mt = json.loads((tmp_path / "extremal.json").read_text())["model_testfun"]
        assert mt["log_inv_mu2"] == pytest.approx(26.0**2 - 1.0, abs=0.1)
    else:
        assert code == 1 and csvs == []
        assert "field 'model_gamma'" in err and "underflows" in err
        assert "Error:" not in err


def _assert_within(got, want, tolerances):
    """Compare a report with a recorded one, walking the keys of `want`.

    A float whose dotted key path (list indices left out) is in
    `tolerances` must match to those pytest.approx bounds; every other
    value, floats included, must match exactly.
    """
    def walk(g, w, path):
        key = ".".join(p for p in path if not isinstance(p, int))
        if isinstance(w, dict):
            for k, v in w.items():
                assert k in g, f"{'.'.join(map(str, path + (k,)))} missing"
                walk(g[k], v, path + (k,))
        elif isinstance(w, list):
            assert len(g) == len(w), key
            for i, (gi, wi) in enumerate(zip(g, w)):
                walk(gi, wi, path + (i,))
        elif isinstance(w, float) and key in tolerances:
            assert g == pytest.approx(w, **tolerances[key]), ".".join(map(str, path))
        else:
            assert g == w and type(g) is type(w), ".".join(map(str, path))

    walk(got, want, ())


# extremal.json at alpha = 0.9 * 4 pi.  The `run` blocks were recorded from
# the conditional-gradient ascent, `step1` and `model_testfun` before Psi_1
# was evaluated in closed form and the Hermite blend by Horner's rule.  The
# ascent must take the same path (iterations, saturated exact); the
# floats may move in their last digits, by at most the stated tolerance
# (about 100x the drift measured when those two rewrites landed).
# `run.gamma` was re-recorded when the Riesz map became two cumulative sums:
# the solve's last bits move the maximiser's peak by 2e-12 relative.
# `model_testfun` was re-recorded when its S became the exact Gamma(2 + kappa)/4
# in place of a nested trapezoid sum (normalized_gap moved by 7.5e-6 relative).
# `step1.J` was re-recorded when its quadrature became composite Gauss-Legendre
# with panels ending at the blend knots of g, in place of adaptive quadrature:
# 6.5e-16 relative (Zero) and 6.9e-10 (PowerLog, whose old value was off by
# that much against a 30-digit reference; the new one is within 4e-16).  The
# Zero `normalized_gap` was re-recorded with the profile solves moved off
# scipy (1.3e-13 relative).  `normalized_gap`, `mu` and `log_inv_mu2` were
# re-recorded when the profiles became variation-of-parameters quadratures:
# B_1 moved from the tail fit's 27.4096 to the exact 27.3718, which moves the
# gap by 9.8e-4 (Zero) and 9.5e-4 (PowerLog) relative.
# They were re-recorded again when ||U||^2 became a Gauss-Legendre sum in
# place of a 6001-node trapezoid (the gap moved by 3.9e-5 relative for Zero
# and 3.6e-5 for PowerLog) and the height root was bisected to adjacent
# doubles in place of Brent's method to 1e-12 (mu moved by 1.8e-15 relative
# and log_inv_mu2 by one ulp).
EXTREMAL_RECORDED = {
    "Zero": ({"kind": "Zero"}, {
        "run": {"J": 9.504416349250366, "gamma": 2.3931493233007206,
                "lambda": 0.4833434601937889, "el_residual": 7.267327531899832e-07,
                "iterations": 70, "saturated": True,
                "termination": "rtol"},
        "step1": {"J": 13.706317334575852},
        "model_testfun": {"normalized_gap": -1.1042166455159526, "mu": 6.080615060469088e-06,
                          "log_inv_mu2": 24.02080941168258, "I_z": 0.0027772142117486152},
    }),
    "PowerLog": ({"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                  "b_prime": 0.682198}, {
        "run": {"J": 9.586747468271152, "gamma": 2.3920245235186464,
                "lambda": 0.4781810309219897, "el_residual": 8.4938289548419e-07,
                "iterations": 69, "saturated": True,
                "termination": "rtol"},
        "step1": {"J": 13.823925505070326},
        "model_testfun": {"normalized_gap": -1.142566884981673, "mu": 6.129216127670548e-06,
                          "log_inv_mu2": 24.004887381922185, "I_z": 0.0035021576343725446},
    }),
}
EXTREMAL_TOLERANCE = {
    "run.J": {"rel": 1e-15, "abs": 0.0}, "run.gamma": {"rel": 1e-15, "abs": 0.0},
    "run.lambda": {"rel": 8e-12, "abs": 0.0}, "run.el_residual": {"abs": 5e-12},
    "step1.J": {"rel": 3e-16, "abs": 0.0},
    **{f"model_testfun.{key}": {"rel": 1e-15, "abs": 0.0}
       for key in ("normalized_gap", "mu", "log_inv_mu2", "I_z")},
}


@pytest.mark.parametrize("name", list(EXTREMAL_RECORDED))
def test_extremal_within_tolerance_of_recorded(tmp_path, name):
    family, want = EXTREMAL_RECORDED[name]
    cfg = _write(tmp_path, "cfg.json", {"family": family, "alpha_ladder": [0.9]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "extremal.json").read_text())
    (run,) = rep["runs"]
    assert run["alpha"] == 0.9 * 4.0 * math.pi
    _assert_within({"run": run, "step1": rep["step1"], "model_testfun": rep["model_testfun"]},
                   want, EXTREMAL_TOLERANCE)


def test_extremal_curve_is_the_run(tmp_path):
    # the curve file holds the run's maximiser: every grid node, u(1) = 0,
    # its peak is the reported gamma and its energy the ball's radius^2
    cfg = _write(tmp_path, "cfg.json", {"alpha_ladder": [0.9]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 0
    (run,) = json.loads((tmp_path / "extremal.json").read_text())["runs"]
    header, *rows = (tmp_path / "extremal_alpha11.3097.csv").read_text().splitlines()
    assert header == "r,u" and len(rows) == 2000
    r, u = np.array([[float(x) for x in row.split(",")] for row in rows]).T
    assert r[-1] == 1.0 and u[-1] == 0.0
    assert float(np.max(u)) == run["gamma"]
    assert variational._energy(variational._stiffness(r), u) == pytest.approx(
        run["alpha"], rel=0.0, abs=1e-6)


def _rung(gamma, sup, lead, gap, A, xi, extra):
    return {"gamma": gamma, "sup_normalized": sup, "leading_sup": lead, "r0_gap": gap,
            "details": {"A": A, "xi": xi, **extra}}


# xi(1, gamma) = 1/(e^(gamma^2) - 1), re-recorded when it became e^-T/(1 - e^-T)
# in place of exp(-log(e^T P(1, T))): 6.6e-16 and 3.5e-16 relative at gamma = 3
# and 5, each now within 1.7e-16 of the 40-digit value (was 5e-16).
XI_LADDER = (0.00012342503594618508, 1.125351873834261e-07, 1.3887943865156895e-11)


def _ladder(expansion, source, A, zeta):
    """bubble.json for the default ladder 3, 4, 5: (sup, leading_sup, r0_gap)
    per expansion rung, (sup, r0_gap) per source rung."""
    return {
        "gammas": [3.0, 4.0, 5.0],
        "expansion": [_rung(g, *e, a, x, {"t_cap": 1.8})
                      for g, e, a, x in zip((3.0, 4.0, 5.0), expansion, A, XI_LADDER)],
        "source": [_rung(g, s[0], None, s[1], a, x, {"zeta": z})
                   for g, s, a, x, z in zip((3.0, 4.0, 5.0), source, A, XI_LADDER, zeta)],
        "expansion_nonincreasing": True,
        "source_nonincreasing": True,
    }


# bubble.json for the default ladder, recorded before the bubble shots' right-hand
# side took the scalar path of eval_psi_N (math.exp and libm pow in place of
# NumPy's array loops).  The flags, gammas and closed-form details must match
# exactly; the source reports' leading_sup is null.  Each residual may move by
# at most its tolerance, about 6-10x the drift measured when the scalar path
# landed: expansion sup 1.8e-10 and source sup 9.7e-12 relative, leading_sup
# 1.1e-12 relative, r0_gap 6.8e-13 (expansion) and 1.8e-16 (source) absolute.
# Three sups were re-recorded when the profiles became variation-of-parameters
# quadratures, which moved S1 and S2 by up to 2.6e-9: the Zero expansion sup
# at gamma = 3 (1.3e-8 relative) and the source sups of Zero at gamma = 3
# (1.3e-10) and PowerLog at gamma = 5 (2.7e-10).  The source sup of Zero at
# gamma = 4 was re-recorded (1.2e-3 relative lower) when the source window
# became t <= (1 - eps0) gamma_min^2 = 2.25, where the gamma = 3 shot ends,
# in place of t <= gamma_min = 3.
BUBBLE_RECORDED = {
    "Zero": ({"kind": "Zero"}, _ladder(
        expansion=[(0.009868067474285546, 0.011684832715588279, 4.113922125440955e-05),
                   (0.005201319923001137, 0.006505698679206147, 2.852313193499195e-08),
                   (0.00327797571125979, 0.0041328318571733375, 2.7521706182222284e-10)],
        source=[(0.17751382686448544, 0.00012340980408660697),
                (0.08509754946721039, 1.1253517452680622e-07),
                (0.05038755176479231, 1.3887419924139958e-11)],
        A=(0.0, 0.0, 0.0), zeta=(0.012345679012345678, 0.00390625, 0.0016))),
    "PowerLog": (EXTREMAL_RECORDED["PowerLog"][0], _ladder(
        expansion=[(0.1598791091835029, 0.011596713262062585, 5.208059875488158e-05),
                   (0.13196854680237108, 0.006430850990611723, 1.4438280563244152e-05),
                   (0.10068523447456569, 0.004076067750578136, 3.2572624458673395e-06)],
        source=[(0.2999574793818911, 0.0001234098040858464),
                (0.27962862153506685, 1.1253517417220217e-07),
                (0.21695734701263988, 1.3888202109731046e-11)],
        A=(0.01965526652224097, 0.004473931525130763, 0.001449886845247858),
        zeta=(0.01965526652224097, 0.004473931525130763, 0.0016))),
}
BUBBLE_TOLERANCE = {
    "expansion.sup_normalized": {"rel": 1e-9, "abs": 0.0},
    "source.sup_normalized": {"rel": 1e-10, "abs": 0.0},
    "expansion.leading_sup": {"rel": 1e-11, "abs": 0.0},
    "expansion.r0_gap": {"rel": 0.0, "abs": 5e-12},
    "source.r0_gap": {"rel": 0.0, "abs": 1.5e-15},
}


@pytest.mark.parametrize("name", list(BUBBLE_RECORDED))
def test_bubble_within_tolerance_of_recorded(tmp_path, name):
    family, want = BUBBLE_RECORDED[name]
    cfg = _write(tmp_path, "cfg.json", {"family": family})
    assert main(["bubble", "--config", cfg, "--out", str(tmp_path)]) == 0
    _assert_within(json.loads((tmp_path / "bubble.json").read_text()), want,
                   BUBBLE_TOLERANCE)


def test_integer_ladder_writes_what_its_float_twin_does(tmp_path, capsys):
    # the ladder is read as floats, so [3, 4, 5] takes every float path that
    # [3.0, 4.0, 5.0] does: every byte written is the same but the config hash
    outs = {}
    for name, ladder in (("int", [3, 4, 5]), ("float", [3.0, 4.0, 5.0])):
        cfg = _write(tmp_path, f"{name}.json", {"gamma_ladder": ladder})
        assert main(["bubble", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        files["bubble.json"], hashes = re.subn(rb'"config_hash": "[0-9a-f]+"', b"",
                                               files["bubble.json"])
        assert hashes == 1
        outs[name] = (files, capsys.readouterr().out)
    assert outs["int"] == outs["float"]
    files = outs["int"][0]
    assert sorted(files) == ["bubble.json"] + [f"bubble_gamma{g}.csv" for g in (3, 4, 5)]
    assert b'"gammas": [\n    3.0,\n    4.0,\n    5.0\n  ]' in files["bubble.json"]


@pytest.mark.parametrize("cmd,glob,budget", [
    ("bubble", "bubble_gamma*.csv", 602),
    ("profiles", "profile_S*.csv", 802),
])
def test_default_curve_files_keep_to_their_row_budget(tmp_path, cmd, glob, budget):
    # a header and every 5th node of the 3001-node shots and 4001-node
    # profiles: a return to full-grid writes (3002 and 4002 lines) fails here
    assert main([cmd, "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob(glob))
    assert len(files) == 3
    for path in files:
        assert len(path.read_bytes().splitlines()) <= budget, path.name


@pytest.mark.parametrize("payload", [
    {"gamma_ladder": [8.7]},
    {"gamma_ladder": [9], "eps0": 0.8},
    {"gamma_ladder": [3, 26.4]},
    {"gamma_ladder": [3.0, 3.00001]},
    {"alpha_ladder": [0.9, 0.90001]},
    {"gamma_ladder": [0.7]},
    {"family": POWERLOG_NO_A_BELOW_1, "gamma_ladder": [1.1, 2.0]},
], ids=["window-edge", "window-larger-eps0", "budget-edge", "gamma-files-differ",
        "alpha-files-differ", "window-floor", "A-above-one"])
def test_ladders_near_the_refusals_still_run(tmp_path, payload):
    cmd = "extremal" if "alpha_ladder" in payload else "bubble"
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("cmd,payload", [
    ("profiles", {}),
    ("extremal", {"alpha_ladder": [0.7]}),
])
def test_missing_out_dir_is_created(tmp_path, cmd, payload):
    cfg = _write(tmp_path, "cfg.json", payload)
    out = tmp_path / "missing" / "nested"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
    assert (out / f"{cmd}.json").exists()
    assert list(out.glob("*.csv"))


@pytest.mark.parametrize("cmd,payload,expected", [
    ("bubble", {"family": {"kind": "Zero"}}, 2),
    ("profiles", {}, 3),
    ("verify", {}, 3),
    ("extremal", {"alpha_ladder": [0.7]}, 3),
])
def test_each_profile_is_solved_once(tmp_path, monkeypatch, cmd, payload, expected):
    # A command solves each profile it reads once and passes it down; no
    # layer below the command solves it again.
    original = profiles_module.solve_profile
    signature = inspect.signature(original)
    solves = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        solves.append((bound.arguments["i"], bound.arguments["r_max"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_profile", counting)
    monkeypatch.setattr(profiles_module, "solve_profile", counting)
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == expected, solves
    assert len(set(solves)) == len(solves), solves


def test_verify(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["all_pass"] is True
    assert rep["seed"] == 3
    assert set(rep) == {"rows", "all_pass", "seed", "config_hash", "version"}


_OTHER_COMMANDS = ["criterion", "profiles", "bubble", "extremal"]


@pytest.mark.parametrize("cmd,flag", [
    *[pytest.param(cmd, ["--seed", "5"], id=f"{cmd}-seed") for cmd in _OTHER_COMMANDS],
    *[pytest.param(cmd, ["--tolerance-scale", "3"], id=f"{cmd}-tolerance-scale")
      for cmd in _OTHER_COMMANDS + ["verify"]],
])
def test_only_verify_takes_seed(tmp_path, capsys, cmd, flag):
    # the other subcommands draw nothing at random; no subcommand scales
    # the verify tolerances
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mtcrit" in capsys.readouterr().out
