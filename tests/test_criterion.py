"""Tests for the existence-criterion limit and verdict assembly."""

import csv
import math

import pytest
from scipy.optimize import brentq

from mtcrit import (
    Cor2Class,
    FamilyKind,
    NoLimitError,
    PerturbationFamily,
    Verdict,
    ZeroDenominatorError,
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
    l, conf = limit_l(data0, M0, S0)
    assert l == pytest.approx(L_ZERO, abs=1e-6)
    assert conf < 1e-6


def test_ratio_value_zero_family(data0):
    # For g = 0: A = 0, B = 1/gamma, so the ratio is exactly
    # (1 + 2 gamma^-4 S e^{-1} * 4 / (2 gamma^-4)) ... evaluate directly.
    g = 10.0
    expected = (g**-4 + 4.0 * S0 * math.exp(-1.0) / g**4) / (g**-4 + 1.0 / g**4)
    assert ratio_value(data0, M0, S0, g) == pytest.approx(expected, rel=1e-14)


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



def test_limit_grid_validation(data0):
    with pytest.raises(ValueError):
        limit_l(data0, M0, S0, gamma_grid=(2.0, 3.0))


def test_no_limit_on_oscillation(fam0):
    class Osc:
        A = staticmethod(lambda g: 0.0)
        B = staticmethod(lambda g: math.cos(10.0 * math.log(g)))

    with pytest.raises(NoLimitError):
        limit_l(Osc(), M0, S0)


def test_zero_denominator():
    class Tiny:
        A = staticmethod(lambda g: 0.0)
        B = staticmethod(lambda g: 0.0)

    with pytest.raises(ZeroDenominatorError):
        ratio_value(Tiny(), M0, S0, 1e100)


def test_ratio_curve_csv(tmp_path, data0):
    path = tmp_path / "curve.csv"
    ratio_curve_csv(str(path), data0, M0, S0)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "ratio"]
    assert len(rows) == 8
    gammas = [float(r[0]) for r in rows[1:]]
    assert gammas == sorted(gammas)
