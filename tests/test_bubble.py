"""Tests for the bubble shooter and its expansion checks."""

import math

import numpy as np
import pytest

from mtcrit import perturbation
from mtcrit import (
    BlowDownError,
    PerturbationFamily,
    eval_psi_N,
    lambda_from_level,
    phi_N,
    shoot_bubble,
    verify_expansion,
)
from mtcrit.bubble import _ladder_window, check_ladder


def test_lambda_from_level():
    assert lambda_from_level(5.0, 0.0) == pytest.approx(4.0 / (25.0 * math.e))
    with pytest.raises(ValueError):
        lambda_from_level(0.0, 0.0)


def test_shoot_basic(fam0):
    sol = shoot_bubble(fam0, 1, 5.0, lambda_from_level(5.0, 0.0))
    assert sol.values[0] == pytest.approx(5.0)
    assert sol.derivs[0] == 0.0
    # Monotone decreasing profile out to the concentration radius (the
    # first step from the series seed is O(y0^2) and may round to zero).
    assert np.all(np.diff(sol.values) <= 0)
    assert sol.values[-1] < sol.values[0]
    assert np.all(sol.values > 0)
    # t at rho equals (1 - eps0) gamma^2.
    assert sol.t(sol.rho) == pytest.approx((1.0 - sol.eps0) * 25.0, rel=1e-12)


def test_scaling_relation(fam0):
    # For g = 0, H = 1 and the mu-scaling reads
    # lam * mu^2 * gamma^2 * phi_0(gamma^2) = 4.
    g = 4.0
    lam = lambda_from_level(g, 0.0)
    sol = shoot_bubble(fam0, 1, g, lam)
    resid = abs(sol.lam * sol.mu**2 * g * g * phi_N(0, g * g) / 4.0 - 1.0)
    assert resid < 1e-12


def test_source_matches_at_origin(fam0):
    g = 5.0
    sol = shoot_bubble(fam0, 1, g, lambda_from_level(g, 0.0))
    _, psi_p0 = eval_psi_N(fam0, 1, g)
    lhs = 0.5 * sol.lam * psi_p0
    rhs = 4.0 / (sol.mu**2 * g)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_eps0_and_lambda_validation(fam0):
    with pytest.raises(ValueError):
        shoot_bubble(fam0, 1, 4.0, 0.1, eps0=0.3)
    with pytest.raises(ValueError):
        shoot_bubble(fam0, 1, 4.0, 0.1, eps0=1.0)
    with pytest.raises(ValueError):
        shoot_bubble(fam0, 1, 4.0, -1.0)


def test_blow_down(fam0):
    # The rescaled equation is multiplier-invariant, so force the failure
    # by integrating far past the radius where B ~ gamma - t/gamma hits 0.
    g = 2.0
    y_zero = math.sqrt(math.expm1(g * g))
    with pytest.raises(BlowDownError):
        shoot_bubble(fam0, 1, g, lambda_from_level(g, 0.0), y_extra=20.0 * y_zero)


def test_ladder_trends(ladder0):
    exp_sups = [r.sup_normalized for r in ladder0["expansion"]]
    src_sups = [r.sup_normalized for r in ladder0["source"]]
    assert all(np.isfinite(exp_sups)) and all(np.isfinite(src_sups))
    assert ladder0["expansion_nonincreasing"]
    assert ladder0["source_nonincreasing"]
    # The leading-order residual is itself bounded on the common window.
    for rep in ladder0["expansion"]:
        assert np.isfinite(rep.leading_sup)
        assert rep.r0_gap < 1e-4


def test_to_csv_roundtrip(tmp_path, fam0):
    sol = shoot_bubble(fam0, 1, 3.0, lambda_from_level(3.0, 0.0))
    path = tmp_path / "bubble.csv"
    sol.to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,B,dB_dr,t"
    assert len(rows) == len(sol.y_grid) + 1


def test_powerlog_family_shoots():
    fam = PerturbationFamily(kind="PowerLog", c=0.01, a=3.0, b=0.0)
    g = 5.0
    sol = shoot_bubble(fam, 1, g, lambda_from_level(g, 0.0))
    assert sol.values[0] == pytest.approx(g)
    assert np.all(sol.values > 0)


def test_powerlog_shot_takes_the_scalar_path(monkeypatch):
    # numerics.solve_ivp (Dormand-Prince on Python floats) passes B to the
    # right-hand side as a float: each call must pick its branch by plain
    # comparisons, never by the array masks.
    def no_masks(*args, **kwargs):
        raise AssertionError("the mask path of eval_g was taken")

    monkeypatch.setattr(perturbation, "_eval_power_log", no_masks)
    fam = PerturbationFamily(kind="PowerLog", c=-0.3, a=0.4, b=0.7, g0=0.2,
                             c_prime=1.5, a_prime=0.5, b_prime=1.2, R_prime=3.0)
    # past rho the shot sweeps B from gamma > R' down through the blend
    # into the near-zero branch, below 1/R'
    sol = shoot_bubble(fam, 1, 4.0, lambda_from_level(4.0, 0.0), y_extra=1000.0)
    assert sol.values[0] == 4.0 and sol.values[-1] < 1.0 / fam.R_prime


@pytest.mark.parametrize("gamma,eps0,refused", [
    (8.722451639024623, 0.75, False), (8.722451639024625, 0.75, True),
    (7.962472532402823, 0.7, False), (7.962472532402824, 0.7, True),
])
def test_check_ladder_refuses_what_verify_expansion_refuses(fam0, profiles, gamma, eps0,
                                                            refused):
    # each pair straddles, by one float, the largest gamma whose expansion
    # window fits in the profiles' grid (r_max = 2000): check_ladder reads
    # the reach off the shot's own grid, so it refuses exactly the ladders
    # on which verify_expansion raises
    r_max = profiles[1].grid[-1]
    cap, reach = _ladder_window([gamma], eps0)
    sol = shoot_bubble(fam0, 1, gamma, lambda_from_level(gamma, 0.0), eps0=eps0)
    assert reach == np.max(sol.y_grid[np.log1p(sol.y_grid ** 2) <= cap])
    assert (reach > r_max) == refused
    if not refused:
        check_ladder([gamma], eps0, r_max)
        verify_expansion(sol, profiles, t_cap=cap)
    else:
        with pytest.raises(ValueError, match="eps0"):
            check_ladder([gamma], eps0, r_max)
        with pytest.raises(ValueError, match="grid mismatch"):
            verify_expansion(sol, profiles, t_cap=cap)


def test_check_ladder_refuses_gamma_past_the_budget():
    top = math.sqrt(700.0)
    check_ladder([3.0, top], 0.75, 2000.0)
    with pytest.raises(ValueError, match="exponent budget"):
        check_ladder([3.0, math.nextafter(top, 30.0)], 0.75, 2000.0)
