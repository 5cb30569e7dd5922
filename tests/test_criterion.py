"""Tests for the existence-criterion limit and verdict assembly."""

import csv
import json
import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from mtcrit import (
    LOG_GAMMA_GRID,
    AsymptoticData,
    Cor2Class,
    DomainModel,
    FamilyKind,
    PerturbationFamily,
    Verdict,
    asymptotic_data,
    classify,
    closed_form_l,
    cor2_classifier,
    limit_l,
    ratio_curve_csv,
    ratio_value,
    robin_report,
)
from mtcrit.cli import main
from mtcrit.domain import MOMENT_RTOL
from mtcrit.variational import lambda_g_report

M0, S0 = 0.0, 0.5
L_ZERO = 0.5 * (1.0 + 2.0 / math.e)


def test_closed_form_zero_family(fam0):
    assert closed_form_l(fam0, M0, S0) == pytest.approx(L_ZERO, abs=1e-12)


def test_grid_limit_matches_closed_form(data0):
    # g = 0: gamma^-4 and gamma^-3 B are the same piece, so every grid value
    # is the limit and the extrapolants do not spread.
    l, conf = limit_l(data0, M0, S0)
    assert l == pytest.approx(L_ZERO, abs=1e-12)
    assert conf == 0.0


def test_ratio_value_zero_family(data0):
    # For g = 0: A = 0, B = 1/gamma, so at gamma = e^k the ratio is
    # (gamma^-4 + 4 S e^{-1} gamma^-4) / (gamma^-4 + gamma^-4) for every k.
    g = 10.0
    expected = (g**-4 + 4.0 * S0 * math.exp(-1.0) / g**4) / (g**-4 + 1.0 / g**4)
    assert ratio_value(data0, M0, S0, math.log(g)) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("family", [
    {"kind": "PowerLog", "c_prime": -0.7, "a_prime": 0.25, "b_prime": 0.8},
    {"kind": "PowerLog", "c": -0.5, "a": 1.0, "b": 0.5, "g0": 0.3,
     "c_prime": 1.2, "a_prime": 2.5, "b_prime": 1.0},
])
def test_ratio_value_matches_the_gamma_form(family):
    # Where nothing underflows, the scaled pieces give the ratio of A(gamma)
    # and B(gamma) summed at gamma = e^k.
    data = asymptotic_data(PerturbationFamily.from_json(family))
    for k in (2.0, 5.0, 20.0):
        g = math.exp(k)
        A, B = float(data.A(g)), float(data.B(g))
        want = ((g**-4 + 0.5 * A + 4.0 * B * S0 * math.exp(-1.0 - M0) / g**3)
                / (g**-4 + abs(A) + abs(B) / g**3))
        assert ratio_value(data, M0, S0, k) == pytest.approx(want, rel=1e-12)


def test_threshold_root():
    # On the border a' = 2, b' = 0 the limit crosses zero at
    # c'* = -(1 + 2/e); locate the root of the closed form in c'.
    def l_of_cp(cp):
        fam = PerturbationFamily(kind=FamilyKind.POWER_LOG,
                                 c_prime=cp, a_prime=2.0, b_prime=0.0)
        return closed_form_l(fam, M0, S0)

    root = brentq(l_of_cp, -5.0, -0.1, xtol=1e-12)
    assert root == pytest.approx(-(1.0 + 2.0 / math.e), abs=1e-3)


@pytest.mark.parametrize("c", [-0.8, -0.5, 0.5])
def test_tied_B_pieces_are_merged(c):
    # a = 1, b = 0: both B pieces decay like 1/gamma, so |B| ~ |1 + g0 + c|/gamma,
    # not (|1 + g0| + |c|)/gamma.
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=c, a=1.0, b=0.0)
    tied = 1.0 + c
    want = (1.0 + 4.0 * S0 * math.exp(-1.0 - M0) * tied) / (1.0 + abs(tied))
    assert closed_form_l(fam, M0, S0) == pytest.approx(want, rel=1e-15)
    l, _ = limit_l(asymptotic_data(fam), M0, S0)
    assert l == pytest.approx(want, abs=1e-12)


def test_negative_limit_family():
    # Slow decay a' = 1 with c' < 0 dominates everything: l = -1/2.
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG,
                             c_prime=-1.0, a_prime=1.0, b_prime=0.0)
    assert closed_form_l(fam, M0, S0) == pytest.approx(-0.5, abs=1e-12)
    rep = classify(M0, S0, lambda_g=2.17, l_closed=-0.5)
    assert rep.verdict is Verdict.NO_EXTREMAL
    assert "truncated" in rep.diagnostics["note"]


def test_classify_branches():
    level = math.pi * math.e
    # l_closed's error bar, propagated from S: 4 e^{-1} S MOMENT_RTOL at M = 0
    bar = 4.0 * math.exp(-1.0) * 0.5 * MOMENT_RTOL
    assert bar <= 7.4e-14
    # l decisively positive.
    rep = classify(0.0, 0.5, 2.0, 0.8, diagnostics={"kept": 1})
    assert rep.verdict is Verdict.EXISTS_L
    assert rep.l_confidence == bar and rep.diagnostics == {"kept": 1}
    # l negative but Lambda_g above the level.
    assert classify(0.0, 0.5, level + 0.1, -0.5).verdict is Verdict.EXISTS_LAMBDA
    # l negative and Lambda_g below the level.
    assert classify(0.0, 0.5, 2.0, -0.5).verdict is Verdict.NO_EXTREMAL
    # l within its error bar and Lambda_g below: undecided.
    for l_closed in (0.0, bar, -bar):
        assert classify(0.0, 0.5, 2.0, l_closed).verdict is Verdict.INCONCLUSIVE
    # just past the bar, either way
    assert classify(0.0, 0.5, 2.0, 2.0 * bar).verdict is Verdict.EXISTS_L
    assert classify(0.0, 0.5, 2.0, -2.0 * bar).verdict is Verdict.NO_EXTREMAL


def _disk_verdict(fam):
    """The verdict of `mtcrit criterion` on the unit disk, in-process."""
    dom = DomainModel()
    rep = robin_report(dom, asymptotic_data(fam).F)
    lam = lambda_g_report(fam, dom)
    return classify(rep.M, rep.S, lam["lambda_g"], closed_form_l(fam, rep.M, rep.S),
                    lambda_gap=lam["gap"])


BORDER_B = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5)
BORDER_C = (-0.5, -1.0, -1.5, -2.0, -3.0, -4.0, -6.0)


def test_border_column_exists_by_l():
    # a' = 2, b' > 0: the A piece 2c' gamma^-4 (log gamma)^-b' decays faster
    # than gamma^-4 by a log factor, so l is the Zero family's at every point.
    # Their grid extrapolants at b' = 0.01 from c' = -2 down, b' = 0.05 from
    # -4 and b' = 0.1 at -6 are far off l, and no verdict reads them.
    for bp in BORDER_B:
        for cp in BORDER_C:
            fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=cp, a_prime=2.0,
                                     b_prime=bp)
            rep = _disk_verdict(fam)
            assert rep.verdict is Verdict.EXISTS_L, (cp, bp)
            assert rep.l_closed == pytest.approx(L_ZERO, abs=1e-12)
            assert rep.l_confidence <= 7.4e-14


def test_a_far_grid_extrapolant_leaves_the_verdict_and_its_bar():
    # l_grid reads 0.112 against l_closed = 0.489; the bar stays l_closed's
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=1.0, a=0.5, b=0.5,
                             c_prime=-1.0, a_prime=1.5, b_prime=0.6)
    rep = _disk_verdict(fam)
    assert rep.verdict is Verdict.EXISTS_L
    assert rep.l_closed == pytest.approx(0.489037, abs=1e-6)
    assert rep.l_confidence < 1e-12
    l_grid, _ = limit_l(asymptotic_data(fam), rep.M, rep.S)
    assert abs(l_grid - rep.l_closed) > 0.3


def test_cor2_classifier():
    assert cor2_classifier(3.0, 0.0, -1.0) is Cor2Class.EXISTS
    assert cor2_classifier(1.0, 0.0, 2.0) is Cor2Class.EXISTS
    assert cor2_classifier(1.0, 0.0, -1.0) is Cor2Class.NOT_EXISTS
    assert cor2_classifier(2.0, 0.0, -1.0) is Cor2Class.BORDER
    with pytest.raises(ValueError):
        cor2_classifier(2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        cor2_classifier(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cor2_classifier(0.0, -1.0, 1.0)


def test_cor2_agrees_with_sign_of_l():
    # Exists branch with c' < 0, a' > 2: l reduces to the zero-family value.
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG,
                             c_prime=-1.0, a_prime=3.0, b_prime=0.0)
    assert cor2_classifier(3.0, 0.0, -1.0) is Cor2Class.EXISTS
    assert closed_form_l(fam, M0, S0) > 0.0



def test_cli_decides_a_family_whose_grid_has_the_other_sign(tmp_path, capsys):
    # (c', a', b') = (-4, 2, 0.05): at the grid's last point, log gamma =
    # 65536, (log gamma)^-0.05 is still 0.574, so l_grid reads -0.0752
    # against the limit l_closed = +0.8679, and Lambda_g sits far below the
    # level.  The report keeps l_grid as a diagnostic.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"kind": "PowerLog", "c_prime": -4.0,
                                          "a_prime": 2.0, "b_prime": 0.05}}))
    assert main(["criterion", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "criterion.json").read_text())
    assert rep["verdict"] == "ExtremalExists_l"
    assert rep["l_closed"] == pytest.approx(L_ZERO, abs=1e-12)
    assert rep["l_grid"] == pytest.approx(-0.0752157, abs=1e-7)
    assert rep["lambda_g"] < 0.5 * rep["pi_e_level"]
    assert rep["l_confidence"] == 4.0 * math.exp(-1.0 - rep["M"]) * rep["S"] * MOMENT_RTOL
    assert sorted(rep["diagnostics"]) == ["lambda_1", "log_gamma_grid"]
    assert capsys.readouterr().out == (f"verdict: ExtremalExists_l  l_closed=0.867879 "
                                       f"(+-7.4e-14)  Lambda_g={rep['lambda_g']:.6f}\n")


def test_no_limit_on_oscillation():
    # A grid that does not settle is no error: limit_l returns its spread,
    # however wide.  Here an A piece e^{-(4 - 1e-4)k} overtakes gamma^-4
    # only across the last grid points.
    data = AsymptoticData(A_pieces=((-1.0, 4.0 - 1e-4, 0.0),),
                          B_pieces=((1.0, 1.0, 0.0),), kappa=1.0)
    l, conf = limit_l(data, M0, S0)
    assert math.isfinite(l) and conf > 0.25


def test_ratio_curve_csv(tmp_path, data0):
    path = tmp_path / "curve.csv"
    ratio_curve_csv(str(path), data0, M0, S0)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["log_gamma", "ratio"]
    assert len(rows) == 1 + len(LOG_GAMMA_GRID) == 12
    assert [float(r[0]) for r in rows[1:]] == list(LOG_GAMMA_GRID)
    assert all(float(r[1]) == pytest.approx(L_ZERO, abs=1e-15) for r in rows[1:])


def _scan_families():
    """The c = 0 scan a' x c' x b' (4800 families) and 400 random admissible
    families with g0, c != 0."""
    scan = [PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=cp, a_prime=ap,
                               b_prime=bp)
            for ap in np.linspace(0.05, 4.0, 40).tolist()
            for cp in np.linspace(-0.95, 2.0, 30).tolist()
            for bp in (0.1, 0.5, 1.0, 1.5)]
    rng = random.Random(7)
    drawn = []
    while len(drawn) < 400:
        draw = dict(c=rng.uniform(-0.9, 2.0), a=rng.uniform(0.0, 2.5),
                    b=rng.uniform(0.1, 2.0), g0=rng.uniform(-0.5, 1.0),
                    c_prime=rng.uniform(-0.9, 2.0), a_prime=rng.uniform(0.1, 4.0),
                    b_prime=rng.uniform(0.1, 1.5))
        try:
            drawn.append(PerturbationFamily(kind=FamilyKind.POWER_LOG, **draw))
        except ValueError:  # not admissible
            continue
    return scan, drawn


def test_grid_decides_every_scan_family():
    # A check of the exponent bookkeeping: on both sets, where every b' is at
    # least 0.1, the grid extrapolant has the closed form's sign, and that
    # sign is never 0.  On the c = 0 scan it is Cor. 2's.
    scan, drawn = _scan_families()
    for fam in scan + drawn:
        l_closed = closed_form_l(fam, M0, S0)
        l, _ = limit_l(asymptotic_data(fam), M0, S0)
        assert np.sign(l) == np.sign(l_closed) != 0.0, fam
        if fam.c == 0.0:
            cor2 = cor2_classifier(fam.a_prime, fam.b_prime, fam.c_prime)
            assert (l_closed > 0.0) == (cor2 is Cor2Class.EXISTS), fam
