"""Correction profiles: the variation-of-parameters solves, the ODE
check, asymptotic constants, integrals."""

import math

import mpmath as mp
import numpy as np
import pytest

from mtcrit import laplacian_profile, s0_explicit, solve_profile
from mtcrit import profiles as profiles_module
from mtcrit.numerics import CubicHermite
from mtcrit.profiles import A_CONSTANTS, B0_CONSTANT, RadialProfile, _rhs, ode_profile


def test_s0_explicit_values():
    # S0(0) = 0; S0 decays like -(A0/4pi) log r^2 + B0 = -log r^2 + B0
    assert s0_explicit(0.0) == 0.0
    r = 1e4
    # o(1) correction decays like log(r^2)/r^2 ~ 4e-6 here
    assert s0_explicit(r) == pytest.approx(-math.log(r * r) + B0_CONSTANT, abs=1e-5)


def test_s0_ode_matches_explicit(profiles):
    r = np.geomspace(1e-4, 100.0, 2000)
    gap = np.max(np.abs(profiles[0](r) - s0_explicit(r)))
    assert gap < 1e-7


def test_s0_explicit_solves_ode_high_precision():
    """Residual of S'' + S'/r + 8 e^{-2T0} S0 = -RHS0 via mpmath.

    Double-precision finite differences lose ~4 eps |S| / h^2 ~ 1e-6 to
    cancellation, so the 1e-8 check needs extended precision.
    """
    mp.mp.dps = 40

    def S0(r):
        r2 = r * r
        T = mp.log1p(r2)
        return (-T + 2 * r2 / (1 + r2) - T * T / 2
                + (1 - r2) / (1 + r2) * mp.polylog(2, -r2))

    for r in (0.3, 1.0, 2.7, 10.0, 40.0):
        r = mp.mpf(r)
        d1 = mp.diff(S0, r)
        d2 = mp.diff(S0, r, 2)
        T = mp.log1p(r * r)
        w = mp.e**(-2 * T)
        resid = d2 + d1 / r + 8 * w * S0(r) + 4 * w * (T * T - T)
        assert abs(resid) < 1e-8


def _s2_closed(r):
    """S2(r) = r^2/(2(1+r^2)) - log(1+r^2)/2, so A2 = 2 pi and B2 = 1/2."""
    return r * r / (2 * (1 + r * r)) - np.log1p(r * r) / 2


def test_s2_closed_form_solves_ode():
    """Residual of S'' + S'/r + 8 e^{-2T0} S = -4 e^{-2T0} T0 via mpmath."""
    mp.mp.dps = 40

    def S2(r):
        return r * r / (2 * (1 + r * r)) - mp.log1p(r * r) / 2

    for r in (0.3, 1.0, 2.7, 10.0, 40.0):
        r = mp.mpf(r)
        T = mp.log1p(r * r)
        w = mp.e**(-2 * T)
        resid = mp.diff(S2, r, 2) + mp.diff(S2, r) / r + 8 * w * S2(r) + 4 * w * T
        assert abs(resid) < 1e-20


def test_s2_ode_matches_closed_form(profiles):
    # measured: 1.3e-11 on the profile, 2.2e-16 relative on A, 1.4e-15 on B
    P = profiles[2]
    r = np.geomspace(1e-3, 1500.0, 4000)
    assert np.max(np.abs(P(r) - _s2_closed(r))) < 2e-9
    assert P.A == pytest.approx(2.0 * math.pi, rel=6e-9)
    assert P.B == pytest.approx(0.5, abs=4e-8)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_profile_constants(profiles, i):
    P = profiles[i]
    assert P.A == pytest.approx(A_CONSTANTS[i], rel=5e-3)
    if i == 0:
        assert P.B == pytest.approx(B0_CONSTANT, abs=1e-3)
    if i == 2:
        # S2 has the explicit intercept 1/2 (its source is the A_2 mode)
        assert P.B == pytest.approx(0.5, abs=1e-6)


# B1 to 30 digits, from an mpmath quadrature of Q(oo) = -int_0^oo phi2 RHS_1 s ds
B1_REFERENCE = 27.3718139537433772041777503022


@pytest.mark.parametrize("i,B", [(0, B0_CONSTANT), (1, B1_REFERENCE), (2, 0.5)])
def test_profile_constants_are_exact(profiles, i, B):
    # A_i = 2 pi P(oo) and B_i = Q(oo) come from the variation-of-parameters
    # sums themselves, with no fit to the tail (measured: A within 1.4e-15
    # relative, B within 1.5e-14)
    P = profiles[i]
    assert P.A == pytest.approx(A_CONSTANTS[i], rel=1e-12, abs=0.0)
    assert P.B == pytest.approx(B, rel=1e-12, abs=0.0)


def test_solve_profile_runs_no_ode(monkeypatch):
    def no_ode(*args, **kwargs):
        raise AssertionError("solve_profile called the ODE integrator")

    monkeypatch.setattr(profiles_module, "solve_ivp", no_ode)
    P = solve_profile(1)
    assert P.A == pytest.approx(A_CONSTANTS[1], rel=1e-12)
    with pytest.raises(AssertionError):
        ode_profile(1, np.array([1e-6, 1.0]))


def test_ode_profile_matches_the_quadrature(profiles):
    # the `verify` row "S1 quadrature vs ODE" (measured: 1.5e-9)
    r = np.geomspace(1e-3, 1000.0, 400)
    for i in (1, 2):
        S, dS = ode_profile(i, r)
        assert np.max(np.abs(profiles[i](r) - S)) < 1e-8
        assert np.max(np.abs(profiles[i].derivative(r) - dS)) < 1e-8


def test_ode_profile_refuses_radii_before_its_start():
    # the ODE starts at _R0 = 1e-6; S1(1e-7) used to be the first step's
    # cubic extrapolated backwards (-4.55e-30, where S1 ~ 7e-40 there)
    with pytest.raises(ValueError, match="not within"):
        ode_profile(1, [1e-7, 1e-6, 1.0])


def test_profile_evaluators_give_floats_for_numbers_with_no_axes(profiles):
    # the one scalar rule: a number with no axes takes the float path, on
    # either side of r_max, and gives a Python float; libm and NumPy may
    # round the logs and exponentials apart by an ulp
    P = profiles[1]
    r = np.array([0.0, 0.7, 4.0, 1999.0, 2000.0, 2500.0, 1e6])
    for f in (P, P.derivative, lambda x: laplacian_profile(1, x, P)):
        arr = f(r)
        for k, x in enumerate(r):
            for num in (float(x), np.float64(x), np.array(x)):
                got = f(num)
                assert type(got) is float
                assert got == pytest.approx(arr[k], rel=1e-13, abs=0.0)


def test_profile_initial_conditions(profiles):
    for P in profiles.values():
        assert abs(P(0.0)) < 1e-10
        assert abs(P.derivative(1e-6)) < 1e-5


def test_profile_tail_is_logarithmic(profiles):
    P = profiles[1]
    r_max = P.grid[-1]
    # beyond the grid the log asymptote continues the stored values
    inside = P(r_max * 0.999999)
    outside = P(r_max * 1.000001)
    # the switch-over jump is S1's o(1) remainder at r_max (measured: 8.4e-3)
    assert outside == pytest.approx(inside, abs=0.05)
    far = P(10.0 * r_max)
    predicted = P.A / (4.0 * math.pi) * math.log(1.0 / (10.0 * r_max) ** 2) + P.B
    assert far == pytest.approx(predicted, rel=1e-12)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_laplacian_profile_consistency(profiles, i):
    # Delta S_i = RHS_i + 8 e^{-2T0} S_i must match a finite-difference
    # Laplacian of the interpolant at moderate radii.  S'' is the central
    # difference of the interpolant's slope: a second difference of values
    # loses about eps |S| / h^2 to rounding, 3e-6 at r = 4 and h = 1e-5,
    # more than the abs bound.  (measured worst case: 1.1e-5 relative)
    P = profiles[i]
    for r in (0.5, 1.5, 4.0):
        h = 1e-4
        d2 = (P.derivative(r + h) - P.derivative(r - h)) / (2.0 * h)
        d1 = P.derivative(r)
        fd = -(d2 + d1 / r)  # -Laplacian convention
        val = laplacian_profile(i, np.array([r]), P)[0]
        assert val == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_laplacian_profile_requires_profile():
    # The profile is passed in; laplacian_profile never solves one itself.
    with pytest.raises(TypeError):
        laplacian_profile(1, np.array([1.0]))


def test_rhs_signs():
    # RHS0 = 4 e^{-2T0}(T^2 - T) is negative for small r (T < 1), positive later
    assert float(_rhs(0, np.array([0.5]))[0]) < 0.0
    assert float(_rhs(0, np.array([5.0]))[0]) > 0.0
    assert float(_rhs(2, np.array([1.0]))[0]) > 0.0


def test_profile_integrals_identities(integrals):
    assert abs(integrals["I_S0"]) < 1e-6
    assert integrals["I_T0sq"] == pytest.approx(2.0 * math.pi, abs=1e-6)
    for got, want in zip(integrals["A_check"], A_CONSTANTS):
        assert got == pytest.approx(want, rel=5e-3)


def test_A_check_integrates_past_r_max(integrals):
    # the Laplacian integrals carry the tail past r_max that I_S0 and I_T0sq
    # carry (measured: 5.3e-10 relative on A_1, at most 2e-11 on A_0 and A_2;
    # 1.4e-3 on A_1 without the tail)
    for got, want in zip(integrals["A_check"], A_CONSTANTS):
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def test_solve_profile_refuses_r_max_below_the_floor():
    with pytest.raises(ValueError, match="r_max must be at least 100"):
        solve_profile(0, r_max=profiles_module.R_MAX_FLOOR * (1.0 - 1e-12))


def test_solve_profile_refuses_r_max_above_the_ceiling():
    with pytest.raises(ValueError, match="at most 1e\\+60"):
        solve_profile(0, r_max=profiles_module.R_MAX_CEILING * (1.0 + 1e-12))


def test_solve_profile_rejects_bad_index():
    with pytest.raises((ValueError, KeyError)):
        solve_profile(5)


def test_csv_round_trip(tmp_path, profiles):
    path = tmp_path / "s0.csv"
    profiles[0].to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,S,dS_dr"
    # every 5th of the 4001 nodes, the last one among them
    assert len(profiles[0].grid) == 4001 and len(rows) == 1 + 801


@pytest.mark.parametrize("r_max", [100.0, 2000.0, 4000.0])
def test_csv_rebuilds_the_profile_by_hermite_interpolation(tmp_path, r_max):
    # measured: at most 7.8e-8 absolute up to r_max = 4000 (S1 the largest);
    # the error grows with r_max, to 1.9e-7 at 1e6
    for i in range(3):
        P = solve_profile(i, r_max=r_max)
        path = tmp_path / f"s{i}.csv"
        P.to_csv(str(path))
        r, S, dS_dr = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        rebuilt = CubicHermite(r, S, dS_dr)(P.grid)
        assert np.max(np.abs(rebuilt - P.values)) < 1e-7, i


@pytest.mark.parametrize("cut", [0, 2], ids=["on-stride", "off-stride"])
def test_csv_rows_are_the_full_files_rows(tmp_path, monkeypatch, profiles, cut):
    # the kept rows are the bytes of the stride-1 file at nodes 0, 5, 10, ...
    # and at the last node, also where (n - 1) % 5 != 0
    P = profiles[1]
    n = len(P.grid) - cut
    P = RadialProfile(grid=P.grid[:n], values=P.values[:n], derivs=P.derivs[:n], A=P.A, B=P.B)
    P.to_csv(str(tmp_path / "kept.csv"))
    monkeypatch.setattr(profiles_module, "HERMITE_STRIDE", 1)
    P.to_csv(str(tmp_path / "full.csv"))
    full = (tmp_path / "full.csv").read_bytes().split(b"\r\n")
    kept = (tmp_path / "kept.csv").read_bytes().split(b"\r\n")
    assert len(full) == n + 2
    assert kept == full[:1] + [full[1 + i] for i in range(n)
                               if i % 5 == 0 or i == n - 1] + [b""]
