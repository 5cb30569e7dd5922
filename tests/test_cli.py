"""End-to-end tests of the command-line front end (mtcrit.cli.main)."""

import argparse
import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcrit import PerturbationFamily, asymptotic_data, bubble, cli, domain, eval_psi_N, numerics
from mtcrit import profiles as profiles_module
from mtcrit import variational
from mtcrit.cli import main
from mtcrit.cmdline import parse_args
from mtcrit.numerics import CHUNK, EXP_BUDGET


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
    # the confidence is l_closed's bar, not its distance to the grid
    assert rep["l_confidence"] == 4.0 * math.exp(-1.0 - rep["M"]) * rep["S"] * domain.MOMENT_RTOL
    assert rep["verdict"] == "ExtremalExists_l"
    out = capsys.readouterr().out
    assert f"l_closed={rep['l_closed']:.6f} (+-{rep['l_confidence']:.2g})" in out


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
    # not spread.  Each verdict is Cor. 2's, and l_closed's bar,
    # 4 e^{-1} S MOMENT_RTOL with S <= 1/2, is at most 7.4e-14.
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "PowerLog", "c_prime": c_prime,
                                                   "a_prime": 0.05, "b_prime": 1.5}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == code
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == verdict
    assert rep["l_grid"] == rep["l_closed"] == math.copysign(0.5, c_prime)
    assert 0.0 < rep["l_confidence"] <= 7.4e-14


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
    # the curve files' geometric grid starts at 1e-6, so r_max must pass it
    cfg = _write(tmp_path, "cfg.json", {"r_max": 1e-6})
    rc = main(["profiles", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "r_max" in capsys.readouterr().err


def test_profiles_rmax_below_floor_refused_before_solving(tmp_path, capsys, monkeypatch):
    # an r_max below the curve files' first geometric node, 1e-6, cannot
    # carry their grid; the command refuses it up front, not after a solve
    solves = []
    monkeypatch.setattr(cli, "solve_profile", lambda *a, **k: solves.append(a))
    cfg = _write(tmp_path, "cfg.json", {"r_max": 5e-7})
    rc = main(["profiles", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "field 'r_max'" in err and "must exceed 1e-06" in err
    assert "Error:" not in err
    assert solves == []


@pytest.mark.parametrize("r_max", [100, 500, 999, 1e60])
def test_profiles_meet_the_verify_bounds_from_the_floor(tmp_path, r_max):
    # r_max sets the extent of the curve files alone: the profiles and their
    # integrals reach e^40 = 2.4e17 whatever it is, so the bounds of verify's
    # rows hold for every r_max (measured: A_check within 3.3e-16 relative,
    # I_S0 within 2.8e-17, I_T0sq equal to 2 pi in doubles)
    cfg = _write(tmp_path, "cfg.json", {"r_max": r_max})
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "profiles.json").read_text())
    ints = rep["integrals"]
    for got, want in zip(ints["A_check"], profiles_module.A_CONSTANTS):
        assert got == pytest.approx(want, rel=1e-13)
    assert abs(ints["I_S0"]) < 1e-14
    assert ints["I_T0sq"] == pytest.approx(2.0 * math.pi, abs=1e-13)
    assert all(c["r_max"] == r_max for c in rep["constants"].values())


@pytest.mark.parametrize("r_max", [100, 1000, 1e6])
def test_profiles_A_check_is_A_at_every_r_max(tmp_path, r_max):
    # at r_max = 100 the integrals used to stop 1.5e-5 short (relative)
    cfg = _write(tmp_path, "cfg.json", {"r_max": r_max})
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "profiles.json").read_text())
    for i, got in enumerate(rep["integrals"]["A_check"]):
        assert got == pytest.approx(rep["constants"][f"S{i}"]["A"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r_max", [1e-3, 1e300])
def test_profiles_r_max_sets_only_the_curve_files(tmp_path, r_max):
    # the constants and integrals are the same at every r_max; the files run
    # from 0 to r_max, finite where r^2 overflows
    reports = []
    for extent in (2000.0, r_max):
        out = tmp_path / str(extent)
        cfg = _write(tmp_path, "cfg.json", {"r_max": extent})
        assert main(["profiles", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "profiles.json").read_text())
        reports.append({k: rep[k] for k in ("integrals", "reference")})
        for i in range(3):
            rows = np.loadtxt(out / f"profile_S{i}.csv", delimiter=",", skiprows=1)
            assert rows[0, 0] == 0.0 and rows[-1, 0] == extent
            assert np.all(np.isfinite(rows))
    assert reports[0] == reports[1]


def test_profiles_at_the_largest_double_run_without_a_warning(tmp_path):
    # geomspace's overflowing intermediate power used to print numpy's
    # RuntimeWarning on stderr
    cfg = _write(tmp_path, "cfg.json", {"r_max": sys.float_info.max})
    proc = _entry_point("profiles", "--config", cfg, "--out", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = np.loadtxt(tmp_path / "profile_S0.csv", delimiter=",", skiprows=1)
    assert rows[-1, 0] == sys.float_info.max and np.all(np.isfinite(rows))


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


def test_extremal_curve_files_hold_the_bytes_of_csv_writer(tmp_path):
    # the default ladder's curve files, written with their common grid
    # formatted once, hold what the standard library's csv.writer writes
    # for each run's rows of %.17g cells
    out = tmp_path / "out"
    assert main(["extremal", "--out", str(out)]) == 0
    names = []
    for frac in (0.7, 0.8, 0.9, 0.95):
        run = variational.solve_subcritical(PerturbationFamily(), 1, frac * 4.0 * math.pi)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["r", "u"])
        writer.writerows(["%.17g" % r, "%.17g" % u]
                         for r, u in zip(run.r.tolist(), run.u.tolist()))
        names.append(cli._EXTREMAL_CSV.format(run.alpha))
        assert (out / names[-1]).read_bytes() == buf.getvalue().encode()
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(names)


def test_extremal_refuses_rungs_on_different_grids(tmp_path, monkeypatch, capsys):
    # the ladder's files share one formatted grid column, so a rung on a grid
    # of the same size but other nodes must stop the command, not write the
    # first rung's r beside its u
    def solve(fam, N, alpha, n_grid=64):
        run = variational.solve_subcritical(fam, N, alpha, n_grid)
        if alpha > 0.9 * 4.0 * math.pi:
            run.r = run.r ** 2
        return run

    monkeypatch.setattr(cli, "solve_subcritical", solve)
    out = tmp_path / "out"
    assert main(["extremal", "--out", str(out)]) == 1
    assert "do not share one grid" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


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


@pytest.mark.parametrize("cmd", ["criterion", "extremal", "bubble"])
def test_rectangle_refused_before_solving(tmp_path, capsys, monkeypatch, cmd):
    # bubble's shots are radial on the unit disk, as criterion's and
    # extremal's solvers are: each refuses a rectangle through
    # domain._disk_only before its first solve and before any file is written
    solves = []
    for name in ("robin_report", "lambda_g_report", "solve_subcritical",
                 "solve_profile", "ladder_reports"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", {"domain": {"shape": "Rectangle",
                                                   "width": 2.0, "height": 1.0}})
    rc = main([cmd, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"field 'domain': {cmd} serves the unit disk only, not a Rectangle\n" in err
    assert solves == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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
    # 1/eps^2 overflows from 7.5e-155 down, and the norm of the test
    # function with it; eps^2 must be a normal double
    ("extremal", {"step1_eps": 1e-160}, "step1_eps", ">= 1.4916681462400413e-154"),
    ("extremal", {"step1_eps": 1e-300}, "step1_eps", ">= 1.4916681462400413e-154"),
    ("bubble", {"eps0": "0.75"}, "eps0", "'0.75'"),
    ("profiles", {"r_max": "1500"}, "r_max", "'1500'"),
    ("extremal", {"step1_eps": False}, "step1_eps", "False"),
    ("extremal", {"model_gamma": "abc"}, "model_gamma", "'abc'"),
    ("extremal", {"alpha_ladder": [0.7, "0.8"]}, "alpha_ladder", "'0.8'"),
    ("bubble", {"gamma_ladder": ["3"]}, "gamma_ladder", "'3'"),
    ("bubble", {"gamma_ladder": 3.0}, "gamma_ladder", "list of numbers"),
    ("profiles", {"r_max": 10**400}, "r_max", "too large for a double"),
    ("profiles", {"r_max": 1e-6}, "r_max", "must exceed 1e-06"),
    ("profiles", {"r_max": -2000}, "r_max", "must exceed 1e-06"),
    ("profiles", {"r_max": 1.0000000000001e-06}, "r_max", "too close to 1e-06"),
    ("extremal", {"N": 10**400}, "N", "too large for a double"),
    ("bubble", {"gamma_ladder": [10**400]}, "gamma_ladder", "too large for a double"),
    ("criterion", {"domain": {"shape": "Rectangle", "width": "2"}}, "domain", "'2'"),
    ("extremal", {"domain": {"shape": "UnitDisk", "width": "2"}}, "domain", "'2'"),
    ("criterion", {"domain": {"height": True}}, "domain", "True"),
    ("criterion", {"domain": {"shape": "UnitDisk", "width": 3.0}}, "domain",
     "a unit disk takes no side (got width = 3.0)"),
    ("bubble", {"gamma_ladder": [3, 3.0000001, 4]}, "gamma_ladder",
     "3.0 and 3.0000001 would both write bubble_gamma3.csv"),
    ("bubble", {"gamma_ladder": [4.0, 3.0, 4]}, "gamma_ladder", "4.0 and 4.0"),
    ("extremal", {"alpha_ladder": [0.9, 0.9000001]}, "alpha_ladder",
     "0.9 and 0.9000001 would both write extremal_alpha11.3097.csv"),
    # windows with no node at y >= 0.25, where the sups are taken
    ("bubble", {"gamma_ladder": [0.5, 3.0]}, "gamma_ladder", "eps0 = 0.75"),
    ("bubble", {"gamma_ladder": [0.8], "eps0": 0.9}, "gamma_ladder", "eps0 = 0.9"),
    ("bubble", {"gamma_ladder": [3, 27]}, "gamma_ladder", "exponent budget"),
    ("bubble", {"gamma_ladder": [0.5]}, "gamma_ladder", "holds no node"),
    # (1 - eps0) gamma^2 underflows to 0.0: no grid to look for a node on
    ("bubble", {"gamma_ladder": [5e-324]}, "gamma_ladder", "holds no node"),
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
        "step1-eps-1e-160", "step1-eps-1e-300",
        "eps0-string", "r-max-string", "step1-eps-bool",
        "model-gamma-string", "alpha-ladder-string", "gamma-ladder-string",
        "gamma-ladder-number", "r-max-huge-int", "r-max-at-the-grid-start",
        "r-max-negative", "r-max-crowds-the-grid",
        "N-huge-int", "gamma-ladder-huge-int", "rectangle-width-string",
        "disk-width-string", "disk-height-bool", "disk-width-three",
        "gamma-ladder-same-file",
        "gamma-ladder-duplicate", "alpha-ladder-same-file", "gamma-ladder-window",
        "gamma-ladder-window-eps0", "gamma-ladder-budget", "gamma-ladder-empty-window",
        "gamma-ladder-subnormal",
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
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_FAM0, _DISK = PerturbationFamily(), domain.DomainModel()
# field -> (subcommand, config, a call of the API function whose own check
# refuses the field's value): the command line states no condition itself
_OWNED_REFUSALS = {
    "N": ("bubble", {"N": 0}, lambda: eval_psi_N(_FAM0, 0, 1.0)),
    "eps0": ("bubble", {"eps0": 0.5}, lambda: bubble.shoot_bubble(_FAM0, 1, 3.0, eps0=0.5)),
    "gamma_ladder": ("bubble", {"gamma_ladder": [3.0, -1.0]},
                     lambda: bubble.check_ladder(_FAM0, 1, [3.0, -1.0], 0.75)),
    "alpha_ladder": ("extremal", {"alpha_ladder": [0.7, 1.5]},
                     lambda: variational.solve_subcritical(_FAM0, 1, 1.5 * 4.0 * math.pi)),
    "step1_eps": ("extremal", {"step1_eps": 0.3},
                  lambda: variational.step1_testfun(_DISK, _FAM0, 0.3)),
    "model_gamma": ("extremal", {"model_gamma": 1.0},
                    lambda: variational.model_testfun_energy(_DISK, _FAM0,
                                                             asymptotic_data(_FAM0), {}, 1.0)),
}


@pytest.mark.parametrize("key", sorted(_OWNED_REFUSALS))
def test_each_condition_is_the_api_check_that_owns_it(tmp_path, capsys, monkeypatch, key):
    cmd, payload, api_call = _OWNED_REFUSALS[key]
    with pytest.raises(ValueError) as refused:
        api_call()
    solves = []
    for name in ("robin_report", "lambda_g_report", "solve_profile", "solve_subcritical",
                 "ladder_reports", "step1_testfun", "model_testfun_energy"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: field '{key}': {refused.value}\n"
    assert solves == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("fraction", [1.5, -0.2, 0, 2, 3.7])
def test_alpha_refusal_names_the_configured_fraction(tmp_path, capsys, fraction):
    # the check sees alpha = 4 pi * fraction and names the fraction back
    cfg = _write(tmp_path, "cfg.json", {"alpha_ladder": [fraction]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"(got {4.0 * math.pi * fraction!r} = {fraction:g} * 4 pi)\n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", [{"family": {"kind": "Zero"}}])
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_a_run_that_fails_late_writes_and_prints_nothing(tmp_path, monkeypatch, capsys):
    # the model test function is the last solve of `extremal`, after the four
    # rungs and the truncated logarithm: none of their files or lines come out
    def fail(*args, **kwargs):
        raise variational.RootFailError("height equation has no root in the bracket")

    monkeypatch.setattr(cli, "model_testfun_energy", fail)
    assert main(["extremal", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: RootFailError: height equation has no root in the bracket\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    # an --out that does not exist is not made
    assert main(["extremal", "--out", str(tmp_path / "new")]) == 1
    assert list(tmp_path.iterdir()) == []


def test_a_report_with_a_non_finite_value_is_not_written(tmp_path):
    # the report is serialised before its file is opened: whole or absent
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_report(str(tmp_path), "extremal.json", {"step1": {"norm_sq": math.inf}}, {})
    assert list(tmp_path.iterdir()) == []


def _near(bounds, typical, low=None):
    """Floats biased to the bounds of a field: each bound and one ulp either
    side of it, subnormals and zero, the field's typical values, and now and
    then a finite double, at least `low` if given."""
    edges = [5e-324, 1e-310, -5e-324, 0.0, *typical]
    for b in bounds:
        edges += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    return st.sampled_from(edges) | st.floats(min_value=low, allow_nan=False,
                                              allow_infinity=False)


def _ladder(values):
    return st.lists(values, min_size=1, max_size=2)


# the Zero family's height bracket passes the least normal double at about
# gamma = sqrt(_MAX_LOG_INV_MU2 - _HEIGHT_BRACKET + 1)
_MODEL_GAMMA_TOP = math.sqrt(variational._MAX_LOG_INV_MU2 - variational._HEIGHT_BRACKET + 1.0)
# the disk, given or by default, and the rectangle that every radial
# subcommand refuses
_DOMAINS = st.sampled_from([{}, {"shape": "UnitDisk"},
                            {"shape": "Rectangle", "width": 2.0, "height": 1.0}])
_SWEEP_FIELDS = {
    # the domain, and families on the corollary's border column a' = 2,
    # b' > 0, whose l_closed is the Zero family's, so every verdict is
    # ExtremalExists_l.  Elsewhere in the admissible set a stalled Lambda_g
    # ascent can still end Inconclusive (exit 2).
    "criterion": {"domain": _DOMAINS,
                  "family": st.fixed_dictionaries({
                      "kind": st.just("PowerLog"), "a_prime": st.just(2.0),
                      "b_prime": st.floats(0.01, 0.5), "c_prime": st.floats(-6.0, -0.5)})},
    "extremal": {"step1_eps": _near([variational.STEP1_EPS_MIN, 0.2], [0.005, 7.5e-155]),
                 "model_gamma": _near([1.0, _MODEL_GAMMA_TOP], [5.0]),
                 "alpha_ladder": _ladder(_near([0.0, 1.0], [0.7, 0.95])),
                 "domain": _DOMAINS,
                 "N": st.sampled_from([1, 2])},
    # below about 0.86 the Zero family's N = 2 shot blows down, which no
    # check refuses before the solve yet: the ladders' free draws start at
    # 0.9, and their edges at 1 - 1 ulp pass the shot
    "bubble": {"gamma_ladder": _ladder(_near([1.0, math.sqrt(EXP_BUDGET)], [3.0, 5.0], 0.9)),
               "eps0": _near([math.sqrt(1.0 / math.e), 1.0], [0.75]),
               "domain": _DOMAINS,
               "N": st.sampled_from([1, 2])},
    "profiles": {"r_max": _near([1e-6], [2000.0, 1e60, 1.7e308, sys.float_info.max])},
}


@st.composite
def _sweep_configs(draw):
    cmd = draw(st.sampled_from(sorted(_SWEEP_FIELDS)))
    fields = _SWEEP_FIELDS[cmd]
    keys = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    return cmd, {key: draw(fields[key]) for key in keys}


def _no_constant(name):
    raise ValueError(f"non-finite {name} in a report")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=160, derandomize=True, deadline=None, database=None)
@given(_sweep_configs())
def test_config_sweep_runs_or_is_refused_before_solving(case):
    # Each config either runs to exit 0 with a finite report, or is refused
    # with exit 1 naming a config field before the first solve and before
    # any file is written; a rectangle domain is always refused.  The spies
    # record each solve and call through.
    cmd, cfg = case
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        mp.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        spy(cli, "solve_profile")
        spy(bubble, "shoot_bubble")
        spy(variational, "_ascend")
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([cmd, "--config", str(path), "--out", out])
        reports = sorted(Path(out).glob(f"{cmd}.json"))
        if code == 0:
            assert len(reports) == 1 and calls
            assert cfg.get("domain", {}).get("shape") != "Rectangle", cfg
            json.loads(reports[0].read_text(), parse_constant=_no_constant)
        else:
            assert code == 1, err.getvalue()
            # a refusal may name a default that the drawn fields make fail
            assert any(f"field '{key}'" in err.getvalue() for key in cli.CONFIG_KEYS), \
                err.getvalue()
            assert calls == [], (calls, err.getvalue())
            assert [p.name for p in Path(out).iterdir()] == ["cfg.json"]


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
# `normalized_gap`, `mu` and `log_inv_mu2` were re-recorded when the profiles
# came to reach oo in place of their log asymptote past r = 2000, where ||U||^2
# reads S_i' out to 1/mu~ = 1.6e5: the gap moved by 7.6e-4 (Zero) and 7.3e-4
# (PowerLog) relative, mu by 5.8e-9 and log_inv_mu2 by 4.8e-10.
# The `run` blocks were re-recorded when the ascent took an Anderson step;
# EXTREMAL_FRANK_WOLFE keeps the plain ascent's runs, against which J may
# only rise, by at most 1e-11 relative, the iterations must be fewer and
# the Euler-Lagrange residual must fall.  gamma moved by 7.4e-7 (Zero) and
# 8.5e-7 (PowerLog) relative and lambda by 1.2e-6 and 1.3e-6: the plain
# ascent's maximiser was the less converged one.
# `step1.J` and the Zero `normalized_gap` were re-recorded when the
# Gauss-Legendre rules became correctly rounded literals in place of
# leggauss, and the PowerLog `run` block when the blend's 3x3 system came to
# be solved by its exact inverse in place of np.linalg.solve.  The replaced
# values: step1.J 13.706317334575852 (Zero, 3.9e-16 relative) and
# 13.823925505070326 (PowerLog, 3.9e-16), Zero normalized_gap
# -1.1050505898883995 (1.3e-13), and PowerLog J 9.586747468281626 (1.9e-16),
# gamma 2.3920265790032396 (1.3e-15), lambda 0.47818038719001743 (2.1e-15)
# and el_residual 1.6034166063111846e-08 (1.2e-14 absolute).
EXTREMAL_RECORDED = {
    "Zero": ({"kind": "Zero"}, {
        "run": {"J": 9.504416349257959, "gamma": 2.393151084978575,
                "lambda": 0.48334290233197164, "el_residual": 5.42518653926928e-09,
                "iterations": 15, "saturated": True,
                "termination": "rtol"},
        "step1": {"J": 13.706317334575857},
        "model_testfun": {"normalized_gap": -1.1050505898885383, "mu": 6.080615095405954e-06,
                          "log_inv_mu2": 24.020809400191354, "I_z": 0.0027772142117486152},
    }),
    "PowerLog": ({"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                  "b_prime": 0.682198}, {
        "run": {"J": 9.586747468281628, "gamma": 2.3920265790032427,
                "lambda": 0.47818038719001643, "el_residual": 1.603415450331182e-08,
                "iterations": 14, "saturated": True,
                "termination": "rtol"},
        "step1": {"J": 13.823925505070331},
        "model_testfun": {"normalized_gap": -1.1434014196096034, "mu": 6.129216163339681e-06,
                          "log_inv_mu2": 24.004887370283132, "I_z": 0.0035021576343725446},
    }),
}
EXTREMAL_FRANK_WOLFE = {
    "Zero": {"J": 9.504416349250366, "iterations": 70, "el_residual": 7.267317376516364e-07},
    "PowerLog": {"J": 9.586747468271156, "iterations": 69, "el_residual": 8.493828785304586e-07},
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
    fw = EXTREMAL_FRANK_WOLFE[name]
    assert fw["J"] <= run["J"] <= fw["J"] * (1.0 + 1e-11)
    assert run["iterations"] < fw["iterations"] and run["el_residual"] < fw["el_residual"]


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
# in place of t <= gamma_min = 3.  The Zero expansion sups at gamma = 4 and 5
# were re-recorded when the profiles became Legendre series on panels in
# log r, in place of cubic Hermite interpolation on 4000 nodes (1.2e-9 and
# 1.4e-9 relative; S1 moved by up to 1.2e-10, the old interpolation error),
# and so was the Zero source sup at gamma = 5, which moved by 1.0e-10
# relative, 1.8e-10 from the value recorded before.
BUBBLE_RECORDED = {
    "Zero": ({"kind": "Zero"}, _ladder(
        expansion=[(0.009868067474285546, 0.011684832715588279, 4.113922125440955e-05),
                   (0.0052013199138797326, 0.006505698679206147, 2.852313193499195e-08),
                   (0.0032779757066078, 0.0041328318571733375, 2.7521706182222284e-10)],
        source=[(0.17751382686448544, 0.00012340980408660697),
                (0.08509754946721039, 1.1253517452680622e-07),
                (0.05038755177366736, 1.3887419924139958e-11)],
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


def test_profiles_build_the_curve_grid_once_and_write_once(tmp_path, monkeypatch):
    # the grid that checks r_max is the three curve files' grid, and one
    # write_csv call formats its r column once for all three
    grids, writes = [], []
    real_grid, real_write = profiles_module.csv_grid, cli.write_csv
    for owner in (cli, profiles_module):
        monkeypatch.setattr(owner, "csv_grid", lambda r: grids.append(r) or real_grid(r))
    monkeypatch.setattr(cli, "write_csv", lambda out, names, *args, **kw:
                        writes.append((out, list(names))) or real_write(out, names, *args, **kw))
    assert main(["profiles", "--out", str(tmp_path)]) == 0
    assert grids == [2000.0]
    assert writes == [(str(tmp_path), [f"profile_S{i}.csv" for i in range(3)])]


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
        solves.append(bound.arguments["i"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_profile", counting)
    monkeypatch.setattr(profiles_module, "solve_profile", counting)
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == expected, solves
    assert len(set(solves)) == len(solves), solves


@pytest.mark.parametrize("payload", [{"gamma_ladder": [9]},
                                     {"gamma_ladder": [8.0], "eps0": 0.65}])
def test_bubble_reads_the_profiles_past_the_old_r_max(tmp_path, payload):
    # the expansion windows of these ladders read S1 and S2 out to
    # y = r/mu = 3287 and 7769, past r = 2000, where the profiles used to end
    # and the ladders were refused; the profiles now reach oo
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["bubble", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "bubble.json").read_text())
    sups = [r["sup_normalized"] for key in ("expansion", "source") for r in rep[key]]
    assert len(sups) == 2 and all(math.isfinite(v) and v > 0.0 for v in sups)


def test_default_extremal_writes_every_bracket_constant(tmp_path):
    # at model_gamma = 5, 1/mu~ = 1.6e5 lies past r = 2000, where the profiles
    # used to end and the report wrote null for H~_0, H~_1 and H~_2
    assert main(["extremal", "--out", str(tmp_path)]) == 0
    H = json.loads((tmp_path / "extremal.json").read_text())["model_testfun"]["H_tilde"]
    assert len(H) == 4 and all(type(h) is float and math.isfinite(h) for h in H)


def test_a_bubble_run_evaluates_the_sources_on_the_panels_and_the_checks_alone(
        tmp_path, monkeypatch):
    # Work pinned with no timing noise: the default ladder solves S1 and S2,
    # each from its source at the panels' quadrature nodes, reads the
    # sources again only at the source checks' nodes, and integrates an ODE
    # only for its three shots.
    real_solve, real_rhs, real_shot = (profiles_module.solve_profile, profiles_module._rhs,
                                       bubble.solve_ivp)
    panel_nodes = real_solve(1).metadata()["quadrature_nodes"]
    solving, nodes, shots = [], {"solve": 0, "check": 0}, []

    def solve(i):
        solving.append(i)
        try:
            return real_solve(i)
        finally:
            solving.pop()

    def rhs(i, T, w, S0):
        nodes["solve" if solving else "check"] += np.size(T)
        return real_rhs(i, T, w, S0)

    def no_ode(accel, t_span, y0, **kwargs):
        raise AssertionError("a profile was integrated as an ODE")

    def shot(accel, t_span, y0, **kwargs):
        shots.append(y0)
        return real_shot(accel, t_span, y0, **kwargs)

    monkeypatch.setattr(cli, "solve_profile", solve)
    monkeypatch.setattr(profiles_module, "_rhs", rhs)
    monkeypatch.setattr(profiles_module, "solve_ivp", no_ode)
    monkeypatch.setattr(bubble, "solve_ivp", shot)
    assert main(["bubble", "--out", str(tmp_path)]) == 0
    assert nodes["solve"] == 2 * panel_nodes
    # S0, S1 and S2's Laplacians at each rung's source window
    cap = bubble._ladder_window([3.0, 4.0, 5.0], 0.75)[1]
    windows = 0
    for g in (3.0, 4.0, 5.0):
        y = bubble._shot_grid(g, 0.75)[1:]
        windows += np.count_nonzero((np.log1p(y * y) <= cap) & (y >= bubble._Y_FLOOR))
    assert nodes["check"] == 3 * windows
    # each shot starts from its series seed (B, B'), two floats
    assert len(shots) == 3 and all(len(y0) == 2 and {type(v) for v in y0} == {float}
                                   for y0 in shots)


def test_verify(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["all_pass"] is True
    assert rep["seed"] == 3
    assert set(rep) == {"rows", "all_pass", "seed", "config_hash", "version"}


def test_verify_fails_profiles_off_by_a_part_in_1e10(tmp_path, monkeypatch, capsys):
    # The profile rows hold the profiles to their measured accuracy (A_check
    # within 2.8e-16 relative, S0 within 1.75e-13 of its closed form), so
    # profiles scaled by 1 + 1e-10 fail where bounds of 5e-3 and 1e-7 passed
    # them.  A_0 stays, its integral being 8 I_S0 = 0 in doubles, and so does
    # S1, held to the ODE integrator's 1e-8.
    real = cli.solve_profile
    monkeypatch.setattr(cli, "solve_profile", lambda i: profiles_module.linear_combination(
        [(1.0 + 1e-10, real(i))]))
    assert main(["verify", "--out", str(tmp_path)]) == 1
    failed = ["NoteSi A_1", "NoteSi A_2", "S0 quadrature vs explicit"]
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert [r["name"] for r in rep["rows"] if not r["pass"]] == failed
    out = capsys.readouterr().out
    assert out.count(" FAIL ") == len(failed)
    assert all(re.search(rf"^{re.escape(name)} +FAIL ", out, re.M) for name in failed)


def test_an_extremal_run_sums_q_prime_at_the_norm_nodes(tmp_path, monkeypatch):
    # Work pinned with no timing noise: the model test function takes q' at
    # its (150 + 40 + 1) * 20 = 3820 norm nodes, from F on the 8 nodes of
    # each of the 3819 panels between them and of the 20 unit panels past
    # them, at most CHUNK nodes a call.
    real = variational._q_prime
    radii, nodes = [], []

    class Counting:
        def __init__(self, data):
            self.data = data

        def F(self, t):
            nodes.append(np.size(t))
            return self.data.F(t)

    def q_prime(data, rho):
        radii.append(rho.size)
        return real(Counting(data), rho)

    monkeypatch.setattr(variational, "_q_prime", q_prime)
    assert main(["extremal", "--out", str(tmp_path)]) == 0
    assert radii == [3820]
    assert sum(nodes) == 8 * 3839 == 30712
    assert max(nodes) <= CHUNK


@pytest.mark.parametrize("cmd", ["criterion", "profiles", "bubble", "extremal", "verify"])
def test_no_subcommand_searches_the_disk(tmp_path, monkeypatch, cmd):
    # every subcommand reads the disk's series, and verify holds it to its
    # closed forms: no Robin search, pole quadrature or Green function runs
    calls = {}

    def spy(name):
        real = getattr(domain, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(domain, name, counting)

    for name in ("minimize", "integrate_around_pole", "green"):
        spy(name)
    assert main([cmd, "--out", str(tmp_path)]) == 0
    assert calls == {}


@pytest.mark.parametrize("moved,field,shift", [
    ("Robin max disk", "M", 1e-11),
    ("Robin max disk", "K", 1e-5),
    ("Green S integral disk", "S", 1e-9),
])
def test_verify_fails_a_disk_report_off_its_closed_forms(tmp_path, capsys, monkeypatch,
                                                         moved, field, shift):
    # each shift is ten times its row's bound: M within 1e-12 of 0, K within
    # 1e-6 of the centre and S within 1e-10 of Gamma(3) / 4
    real = cli.robin_report

    def shifted(dom, F):
        rep = real(dom, F)
        if field == "K":
            (x, y), = rep.K
            rep.K = [(x + shift, y)]
        else:
            setattr(rep, field, getattr(rep, field) + shift)
        return rep

    monkeypatch.setattr(cli, "robin_report", shifted)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert [r["name"] for r in rep["rows"] if not r["pass"]] == [moved]
    assert re.search(rf"^{re.escape(moved)} +FAIL ", capsys.readouterr().out, re.M)


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
    assert capsys.readouterr().out == "mtcrit 1.0.0\n"


# -- the command line, held to the argparse parser it replaced -----------------


def _argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser that mtcrit's command line was read with before
    it was parsed directly: the reference of the direct parser."""
    p = argparse.ArgumentParser(
        prog="mtcrit",
        description="Existence criterion toolkit for perturbed "
                    "Moser-Trudinger extremals")
    p.add_argument("--version", action="version", version="mtcrit 1.0.0")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("criterion", "existence verdict for a scenario"),
        ("profiles", "solve the correction profiles"),
        ("bubble", "bubble gamma ladder with expansion checks"),
        ("extremal", "subcritical solver + test functions"),
        ("verify", "run the invariant suite"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", default=None, help="JSON scenario file")
        sp.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    return p


def _read_with_reference(argv):
    ns = _argparse_reference().parse_args(argv)
    return ns.command, ns.config, ns.out, getattr(ns, "seed", None)


def _read_directly(argv):
    command, options = parse_args(argv, cli._COMMANDS)
    return command, options["config"], options["out"], options.get("seed")


def _exit(read, argv, capsys):
    """(exit code, stdout, stderr) of a read of argv that exits."""
    with pytest.raises(SystemExit) as exc:
        read(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


_COMMAND_NAMES = _OTHER_COMMANDS + ["verify"]
_VALID_ARGV = [
    *[[cmd] for cmd in _COMMAND_NAMES],
    *[[cmd, "--config", "a.json", "--out", "res"] for cmd in _COMMAND_NAMES],
    *[[cmd, "--out=res", "--config=a.json"] for cmd in _COMMAND_NAMES],
    ["criterion", "--out", "a", "--config", "c.json", "--out", "b"],
    ["verify", "--seed", "1", "--seed=2"],
    ["verify", "--seed", "-3"],
    ["verify", "--seed", "1_000"],
    ["verify", "--seed", " 7 ", "--out", "res"],
    ["profiles", "--out", "-3"],
    ["profiles", "--out", "-.5"],
    ["bubble", "--out", "a b"],
    ["extremal", "--out", "-"],
    ["extremal", "--out="],
    ["criterion", "--config=--out"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=" ".join)
def test_command_line_reads_as_argparse_read_it(argv):
    assert _read_directly(argv) == _read_with_reference(argv)


_INVALID_ARGV = [
    ([], "the following arguments are required: command"),
    (["--bogus"], "the following arguments are required: command"),
    (["foo"], "argument command: invalid choice: 'foo'"),
    (["-", "criterion"], "argument command: invalid choice: '-'"),
    *[([cmd, "--seed", "5"], "unrecognized arguments: --seed 5") for cmd in _OTHER_COMMANDS],
    *[([cmd, "--seed=5"], "unrecognized arguments: --seed=5") for cmd in _OTHER_COMMANDS],
    (["criterion", "--tolerance-scale", "3"], "unrecognized arguments: --tolerance-scale 3"),
    (["criterion", "--out"], "argument --out: expected one argument"),
    (["verify", "--seed"], "argument --seed: expected one argument"),
    (["criterion", "--out", "--config", "x"], "argument --out: expected one argument"),
    (["profiles", "--config", "-x"], "argument --config: expected one argument"),
    (["verify", "--seed", "-1_000"], "argument --seed: expected one argument"),
    (["verify", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["verify", "--seed", "abc", "-h"], "argument --seed: invalid int value: 'abc'"),
    (["verify", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["criterion", "extra"], "unrecognized arguments: extra"),
    (["bubble", "--out", "res", "x", "--config", "c.json", "y"], "unrecognized arguments: x y"),
    (["--bogus", "criterion"], "unrecognized arguments: --bogus"),
    (["criterion", "--version"], "unrecognized arguments: --version"),
    (["criterion", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (["--version=x"], "argument --version: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize("argv,fragment", _INVALID_ARGV, ids=[" ".join(a) or "(none)"
                                                              for a, _ in _INVALID_ARGV])
def test_usage_errors_read_as_argparse_read_them(capsys, argv, fragment):
    # exit 2 with a usage line and "mtcrit[ COMMAND]: error: ..." on stderr
    ref_code, _, ref_err = _exit(_read_with_reference, argv, capsys)
    code, out, err = _exit(_read_directly, argv, capsys)
    assert (code, out) == (ref_code, "") == (2, "")
    assert fragment in ref_err and fragment in err
    ref_lines, lines = ref_err.splitlines(), err.splitlines()
    assert lines[0] == ref_lines[0] and lines[0].startswith("usage: mtcrit ")
    assert lines[-1].split(": error: ")[0] == ref_lines[-1].split(": error: ")[0]


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--version"], ["--bogus", "-h"],
                                  *[[cmd, "-h"] for cmd in _COMMAND_NAMES],
                                  ["verify", "--seed", "3", "--bogus", "--help"]], ids=" ".join)
def test_help_and_version_print_what_argparse_printed(capsys, argv):
    assert _exit(_read_directly, argv, capsys) == _exit(_read_with_reference, argv, capsys)


@pytest.mark.parametrize("argv,reference,unrecognized", [
    (["criterion", "--conf", "x"], ("criterion", "x", ".", None), "--conf x"),
    (["verify", "--se", "4"], ("verify", None, ".", 4), "--se 4"),
    (["profiles", "--c=a.json"], ("profiles", "a.json", ".", None), "--c=a.json"),
    # argparse read -hx as -h grouped with a flag -x, and refused it
    (["criterion", "-hx"], None, "-hx"),
], ids=["--conf", "--se", "--c=", "-hx"])
def test_the_declared_difference_no_option_is_abbreviated(capsys, argv, reference,
                                                          unrecognized):
    # argparse read a prefix of an option as that option; the direct parser
    # reads it as no option at all
    if reference is None:
        assert _exit(_read_with_reference, argv, capsys)[0] == 2
    else:
        assert _read_with_reference(argv) == reference
    code, _, err = _exit(_read_directly, argv, capsys)
    assert code == 2 and f"unrecognized arguments: {unrecognized}" in err


_SRC = Path(__file__).resolve().parents[1] / "src"


def _entry_point(*args, cwd=None):
    """`python -m mtcrit.cli ARGS`, the program as a console script runs it."""
    return subprocess.run([sys.executable, "-m", "mtcrit.cli", *args],
                          env=dict(os.environ, PYTHONPATH=str(_SRC)), cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=False)


def test_entry_point_prints_the_version():
    proc = _entry_point("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mtcrit 1.0.0\n", "")


def test_entry_point_lists_every_subcommand():
    proc = _entry_point("-h")
    assert proc.returncode == 0
    listed = re.findall(r"^    (\w+) +(.+)$", proc.stdout, flags=re.M)
    assert listed == [("criterion", "existence verdict for a scenario"),
                      ("profiles", "solve the correction profiles"),
                      ("bubble", "bubble gamma ladder with expansion checks"),
                      ("extremal", "subcritical solver + test functions"),
                      ("verify", "run the invariant suite")]


def test_entry_point_lists_a_subcommands_options():
    proc = _entry_point("bubble", "-h")
    assert proc.returncode == 0
    assert "--config CONFIG" in proc.stdout and "--out OUT" in proc.stdout
    assert "--seed" not in proc.stdout


def test_entry_point_without_arguments_is_a_usage_error():
    proc = _entry_point()
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the following arguments are required: command" in proc.stderr


def test_entry_point_runs_a_subcommand(tmp_path):
    proc = _entry_point("criterion", "--out", "res", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict: ExtremalExists_l")
    assert json.loads((tmp_path / "res" / "criterion.json").read_text())["verdict"] \
        == "ExtremalExists_l"


_LAPACK = ("solve", "eigvalsh", "eigh", "eig", "lstsq", "inv")


def test_no_lapack_call_at_run_time(tmp_path, monkeypatch):
    # After `import mtcrit.cli`, a process's first LAPACK call raises its
    # peak resident memory: leggauss's eigvalsh by about 0.7 MB and the
    # blend's 3x3 np.linalg.solve by about 0.3 MB more.  Each of these
    # np.linalg functions raises while a PowerLog criterion, extremal and
    # bubble, a verify and a rectangle's robin_report run, with the rules
    # rebuilt; np.linalg.norm of a vector calls no LAPACK and stays.
    called = []
    for name in _LAPACK:
        def refuse(*args, name=name, **kwargs):
            called.append(name)
            raise AssertionError(f"np.linalg.{name} called")

        monkeypatch.setattr(np.linalg, name, refuse)
    numerics._legendre_rule.cache_clear()
    try:
        family = EXTREMAL_RECORDED["PowerLog"][0]
        for cmd in ("criterion", "extremal", "bubble"):
            cfg = _write(tmp_path, f"{cmd}.json", {"family": family})
            assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 0, cmd
        assert main(["verify", "--out", str(tmp_path)]) == 0
        rect = domain.DomainModel(shape="Rectangle", width=2.0, height=1.0)
        domain.robin_report(rect, asymptotic_data(PerturbationFamily()).F)
    finally:
        numerics._legendre_rule.cache_clear()
    assert called == []
