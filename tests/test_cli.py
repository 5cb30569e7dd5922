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
    # test_perturbation.DIPPING: both branches pass, the blend dips to -1.23
    ("criterion", {"family": {"kind": "PowerLog", "c": -0.93, "a": 0.5, "b": 1.6,
                              "g0": -0.3, "c_prime": -0.65, "a_prime": 1.6,
                              "b_prime": 1.4, "R_prime": 2.4}},
     "family", "Hermite blend dips"),
    ("extremal", {"domain": {"shape": "UnitDisk", "radius": 2.0}}, "domain", "'radius'"),
    ("criterion", {"domain": {"shape": "Rectangle", "widht": 3.0}}, "domain", "'widht'"),
    ("criterion", {"gamma_grid": [7.0, 20.0, math.nan, 55.0, 150.0]}, "gamma_grid",
     "NaN or Infinity"),
    ("bubble", {"gamma_ladder": [3.0, math.nan]}, "gamma_ladder", "NaN or Infinity"),
    ("bubble", {"robin_max": math.inf}, "robin_max", "NaN or Infinity"),
    ("criterion", {"family": {"kind": "PowerLog", "c_prime": -math.inf, "a_prime": 1.0}},
     "family", "NaN or Infinity"),
    ("extremal", {"model_gamma": -1.0}, "model_gamma", "> 1"),
    ("extremal", {"model_gamma": 0.0}, "model_gamma", "> 1"),
    ("extremal", {"model_gamma": 1.0}, "model_gamma", "> 1"),
    ("extremal", {"step1_eps": 0.0}, "step1_eps", "(0, 0.2]"),
    ("extremal", {"step1_eps": 0.3}, "step1_eps", "(0, 0.2]"),
], ids=["N-fraction-bubble", "N-fraction-extremal", "N-zero", "N-bool", "N-string",
        "gamma-ladder-empty", "gamma-ladder-zero", "alpha-ladder-empty",
        "alpha-ladder-zero", "top-level-key", "family-key", "family-blend-dips",
        "domain-key", "rectangle-key", "gamma-grid-nan", "gamma-ladder-nan",
        "robin-max-infinity", "family-minus-infinity", "model-gamma-negative",
        "model-gamma-zero", "model-gamma-one", "step1-eps-zero", "step1-eps-large"])
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
        "step1": {"J": 13.70631733457586},
        "model_testfun": {"normalized_gap": -1.1031703715039232, "mu": 6.0807003660391904e-06,
                          "log_inv_mu2": 24.020781353675, "I_z": 0.002777207706990744},
    }),
    "PowerLog": ({"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                  "b_prime": 0.682198}, {
        "run": {"J": 9.586747468252343, "gamma": 2.3920231322531276,
                "lambda": 0.4781814668785175, "el_residual": 1.4206786957103141e-06,
                "start": "flat", "iterations": 127, "saturated": True},
        "step1": {"J": 13.823925495572142},
        "model_testfun": {"normalized_gap": -1.141519713931089, "mu": 6.1293018691968325e-06,
                          "log_inv_mu2": 24.004859404143367, "I_z": 0.0035021511296146734},
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


def _rung(gamma, sup, lead, gap, A, xi, extra):
    return {"gamma": gamma, "sup_normalized": sup, "leading_sup": lead, "r0_gap": gap,
            "details": {"A": A, "xi": xi, **extra}}


XI_LADDER = (0.000123425035946185, 1.125351873834261e-07, 1.388794386515689e-11)


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
BUBBLE_RECORDED = {
    "Zero": ({"kind": "Zero"}, _ladder(
        expansion=[(0.009868067341776041, 0.011684832715588279, 4.113922125440955e-05),
                   (0.005201319923001137, 0.006505698679206147, 2.852313193499195e-08),
                   (0.00327797571125979, 0.0041328318571733375, 2.7521706182222284e-10)],
        source=[(0.1775138268408696, 0.00012340980408660697),
                (0.08519640150337586, 1.1253517452680622e-07),
                (0.05038755176479231, 1.3887419924139958e-11)],
        A=(0.0, 0.0, 0.0), zeta=(0.012345679012345678, 0.00390625, 0.0016))),
    "PowerLog": (EXTREMAL_RECORDED["PowerLog"][0], _ladder(
        expansion=[(0.1598791091835029, 0.011596713262062585, 5.208059875488158e-05),
                   (0.13196854680237108, 0.006430850990611723, 1.4438280563244152e-05),
                   (0.10068523447456569, 0.004076067750578136, 3.2572624458673395e-06)],
        source=[(0.2999574793818911, 0.0001234098040858464),
                (0.27962862153506685, 1.1253517417220217e-07),
                (0.21695734707206782, 1.3888202109731046e-11)],
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


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--tolerance-scale", "3"]],
                         ids=["seed", "tolerance-scale"])
@pytest.mark.parametrize("cmd", ["criterion", "profiles", "bubble", "extremal"])
def test_only_verify_takes_seed_and_tolerance_scale(tmp_path, capsys, cmd, flag):
    # the other subcommands draw nothing at random and check no tolerance
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mtcrit" in capsys.readouterr().out
