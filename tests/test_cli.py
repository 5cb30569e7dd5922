"""End-to-end tests of the command-line front end (mtcrit.cli.main)."""

import inspect
import json
import math

import pytest

from mtcrit import cli
from mtcrit import profiles as profiles_module
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
    # Slow decay a' = 1 with c' < 0: the closed form is exactly -1/2, while
    # the grid extrapolant keeps a visible 1/log(gamma) remainder.  The
    # report must carry the grid value, not a copy of the closed form.
    cfg = _write(tmp_path, "cfg.json", {
        "family": {"kind": "PowerLog", "c_prime": -1.0, "a_prime": 1.0, "b_prime": 0.0}})
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["l_closed"] == pytest.approx(-0.5, abs=1e-12)
    assert rep["l_grid"] == pytest.approx(-0.51009, abs=1e-5)
    assert rep["l_confidence"] >= abs(rep["l_closed"] - rep["l_grid"])
    assert rep["verdict"] == "NoExtremal_Truncations"
    out = capsys.readouterr().out
    assert f"l_grid={rep['l_grid']:.6f} (+-{rep['l_confidence']:.2g})" in out


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


def test_profiles_rmax_below_integral_bound_refused_before_solving(tmp_path, capsys,
                                                                  monkeypatch):
    # profile_integrals needs r_max >= 1000; the command must refuse such a
    # radius up front, not after solving all three profile ODEs.
    solves = []
    monkeypatch.setattr(cli, "solve_profile", lambda *a, **k: solves.append(a))
    cfg = _write(tmp_path, "cfg.json", {"r_max": 500})
    rc = main(["profiles", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "r_max" in err and "1000" in err
    assert "ValueError" not in err
    assert solves == []


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


def test_extremal_empty_starts(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"family": {"kind": "Zero"}, "starts": []})
    rc = main(["extremal", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "starts" in capsys.readouterr().err


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
    ({"gamma_grid": [7.0, 20.0, 55.0]}, "gamma_grid"),
    ({"gamma_grid": [7.0, 20.0, 20.0, 55.0, 150.0]}, "gamma_grid"),
    ({"gamma_grid": [1.0, 7.0, 20.0, 55.0]}, "gamma_grid"),
], ids=["tabulated", "zero-with-g0", "three-values", "repeated", "gamma-1"])
def test_criterion_config_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                 payload, field):
    solves = []
    for name in ("robin_report", "lambda_g_report"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: solves.append(_n))
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["criterion", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"field '{field}'" in capsys.readouterr().err
    assert solves == []


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
    ("bubble", {"family": {"kind": "PowerLog", "cprime": -1.0, "a_prime": 1.0}},
     "family", "'cprime'"),
    ("extremal", {"domain": {"shape": "UnitDisk", "radius": 2.0}}, "domain", "'radius'"),
    ("criterion", {"domain": {"shape": "Rectangle", "widht": 3.0}}, "domain", "'widht'"),
], ids=["N-fraction-bubble", "N-fraction-extremal", "N-zero", "N-bool", "N-string",
        "gamma-ladder-empty", "gamma-ladder-zero", "alpha-ladder-empty",
        "alpha-ladder-zero", "top-level-key", "family-key", "domain-key",
        "rectangle-key"])
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


# extremal.json at alpha = 0.9 * 4 pi, recorded before Psi_1 was evaluated in
# closed form and the Hermite blend by Horner's rule.  The ascent must take
# the same path (start, iterations, saturated exact); the floats may move in
# their last digits, by at most the stated tolerance (about 100x the drift
# measured when those two rewrites landed).
EXTREMAL_RECORDED = {
    "Zero": ({"kind": "Zero"}, {
        "run": {"J": 9.504416349231679, "gamma": 2.3931477978342195,
                "lambda": 0.4833439433139619, "el_residual": 1.3521311665251593e-06,
                "start": "eigen", "iterations": 127, "saturated": True},
        "step1_J": 13.70631733457586,
        "model_testfun": {"normalized_gap": -1.1031703715039232, "mu": 6.0807003660391904e-06,
                          "log_inv_mu2": 24.020781353675, "I_z": 0.002777207706990744},
    }),
    "PowerLog": ({"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                  "b_prime": 0.682198}, {
        "run": {"J": 9.586747468252343, "gamma": 2.3920231322531276,
                "lambda": 0.4781814668785175, "el_residual": 1.4206786957103141e-06,
                "start": "flat", "iterations": 127, "saturated": True},
        "step1_J": 13.823925495572142,
        "model_testfun": {"normalized_gap": -1.141519713931089, "mu": 6.1293018691968325e-06,
                          "log_inv_mu2": 24.004859404143367, "I_z": 0.0035021511296146734},
    }),
}
RUN_TOLERANCE = {"J": {"rel": 1e-15, "abs": 0.0}, "gamma": {"rel": 1e-15, "abs": 0.0},
                 "lambda": {"rel": 8e-12, "abs": 0.0}, "el_residual": {"abs": 5e-12}}


@pytest.mark.parametrize("name", list(EXTREMAL_RECORDED))
def test_extremal_within_tolerance_of_recorded(tmp_path, name):
    family, want = EXTREMAL_RECORDED[name]
    cfg = _write(tmp_path, "cfg.json", {"family": family, "alpha_ladder": [0.9]})
    assert main(["extremal", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "extremal.json").read_text())
    (run,) = rep["runs"]
    assert run["alpha"] == 0.9 * 4.0 * math.pi
    for key in ("start", "iterations", "saturated"):
        assert run[key] == want["run"][key], key
    for key, tol in RUN_TOLERANCE.items():
        assert run[key] == pytest.approx(want["run"][key], **tol), key
    assert rep["step1"]["J"] == pytest.approx(want["step1_J"], rel=3e-16, abs=0.0)
    for key, value in want["model_testfun"].items():
        assert rep["model_testfun"][key] == pytest.approx(value, rel=1e-15, abs=0.0), key


@pytest.mark.parametrize("cmd,payload", [
    ("profiles", {}),
    ("extremal", {"alpha_ladder": [0.7], "starts": ["flat"]}),
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
    ("extremal", {"alpha_ladder": [0.7], "starts": ["flat"]}, 3),
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


def test_tolerance_scale_validation(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path), "--tolerance-scale", "0"])
    assert rc == 1
    assert "tolerance-scale" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mtcrit" in capsys.readouterr().out
