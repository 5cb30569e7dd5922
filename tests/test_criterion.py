"""Tests for the existence-criterion limit and verdict assembly."""

import csv
import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from mtcrit import (
    LOG_GAMMA_GRID,
    AsymptoticData,
    Cor2Class,
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
)

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
    data = asymptotic_data(fam)
    l, conf = limit_l(data, M0, S0)
    rep = classify(M0, S0, lambda_g=2.17, l=l, l_confidence=conf, l_closed=-0.5)
    assert rep.verdict is Verdict.NO_EXTREMAL
    assert "truncated" in rep.diagnostics["note"]


def test_classify_branches():
    level = math.pi * math.e
    # l decisively positive.
    assert classify(0.0, 0.5, 2.0, 0.8, 1e-9, l_closed=0.8).verdict is Verdict.EXISTS_L
    # l negative but Lambda_g above the level.
    assert classify(0.0, 0.5, level + 0.1, -0.5, 1e-9,
                    l_closed=-0.5).verdict is Verdict.EXISTS_LAMBDA
    # l negative and Lambda_g below the level.
    assert classify(0.0, 0.5, 2.0, -0.5, 1e-9, l_closed=-0.5).verdict is Verdict.NO_EXTREMAL
    # l within its own confidence band and Lambda_g below: undecided.
    assert classify(0.0, 0.5, 2.0, 0.0, 0.1, l_closed=0.0).verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("l,conf,named", [(0.3, 0.1, True), (0.3, 0.5, False),
                                           (0.3, 0.3, False)])
def test_classify_names_a_grid_that_disagrees_with_the_closed_form(l, conf, named):
    # l_closed = 0.5: the grid is 0.2 off it; beyond its spread, the
    # widened confidence comes with a named reason
    rep = classify(0.0, 0.5, 2.0, l, conf, l_closed=0.5, diagnostics={"kept": 1})
    assert rep.l_confidence == max(conf, 0.2 if named else 0.0)
    assert ("l_grid_disagrees" in rep.diagnostics) == named
    assert rep.diagnostics["kept"] == 1
    if named:
        assert rep.diagnostics["l_grid_disagrees"] == "|l_closed - l_grid| = 0.2 > spread 0.1"


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



def test_no_limit_on_oscillation():
    # A grid that does not settle is no error: limit_l returns its spread,
    # however wide, and classify widens l_confidence by it.  Here an A piece
    # e^{-(4 - 1e-4)k} overtakes gamma^-4 only across the last grid points.
    data = AsymptoticData(A_pieces=((-1.0, 4.0 - 1e-4, 0.0),),
                          B_pieces=((1.0, 1.0, 0.0),), kappa=1.0)
    l, conf = limit_l(data, M0, S0)
    assert math.isfinite(l) and conf > 0.25
    rep = classify(M0, S0, lambda_g=2.17, l=l, l_confidence=conf, l_closed=0.0)
    assert rep.l_confidence == max(conf, abs(l))
    assert rep.verdict is Verdict.INCONCLUSIVE


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
    # With the Lambda_g route off, the grid check of l leaves no family of
    # either set undecided, and its sign is the closed form's.  On the c = 0
    # scan the verdict is Cor. 2's.
    scan, drawn = _scan_families()
    for fam in scan + drawn:
        l_closed = closed_form_l(fam, M0, S0)
        l, conf = limit_l(asymptotic_data(fam), M0, S0)
        rep = classify(M0, S0, lambda_g=0.0, l=l, l_confidence=conf, l_closed=l_closed)
        assert rep.verdict is not Verdict.INCONCLUSIVE, fam
        assert np.sign(l) == np.sign(l_closed), fam
        if fam.c == 0.0:
            cor2 = cor2_classifier(fam.a_prime, fam.b_prime, fam.c_prime)
            assert (rep.verdict is Verdict.EXISTS_L) == (cor2 is Cor2Class.EXISTS), fam
