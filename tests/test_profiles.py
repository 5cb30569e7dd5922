"""Correction profiles: the variation-of-parameters solves, the ODE
check, asymptotic constants, integrals."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from mtcrit import profile_integrals, s0_explicit, solve_profile
from mtcrit import profiles as profiles_module
from mtcrit.profiles import (A_CONSTANTS, B0_CONSTANT, R_MAX, _float_or_array, _rhs, _t0,
                             csv_grid, linear_combination, ode_profile, profile_csv,
                             source_laplacians)


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
    # measured: 6.8e-14 on the profile, 1.4e-16 relative on A, 5.6e-17 on B
    P = profiles[2]
    r = np.geomspace(1e-3, 1500.0, 4000)
    assert np.max(np.abs(P(r) - _s2_closed(r))) < 1e-12
    assert P.A == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert P.B == pytest.approx(0.5, abs=1e-15)


def test_s0_and_s2_match_their_closed_forms_to_the_end_of_the_doubles(profiles):
    # the panels reach r = 2.4e17 and P, Q are constant past them, so S is
    # exact on [0, oo) with no interpolation grid and no tail fit (measured,
    # relative to 1 + |S|: 1.6e-13 for S0, 6.5e-14 for S2 and 1.0e-13 for S2')
    r = np.geomspace(1e-6, 1e15, 20000)
    for P, S in ((profiles[0], s0_explicit(r)), (profiles[2], _s2_closed(r))):
        assert np.max(np.abs(P(r) - S) / (1.0 + np.abs(S))) < 1e-12
    dS2 = r / (1.0 + r * r) ** 2 - r / (1.0 + r * r)
    assert np.max(np.abs(profiles[2].derivative(r) - dS2) / (1.0 + np.abs(dS2))) < 1e-12


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
    # sums themselves, with no fit to the tail (measured: A within 2.5e-16
    # relative, B within 3.6e-15)
    P = profiles[i]
    assert P.A == pytest.approx(A_CONSTANTS[i], rel=1e-13, abs=0.0)
    assert P.B == pytest.approx(B, rel=0.0, abs=1e-14)


def test_quadrature_nodes_are_the_panels():
    # 116 panels of width 1/2 in y = log r over [-18, 40], 12 nodes each
    meta = solve_profile(1).metadata()
    assert meta["gl_order"] == 12 and meta["quadrature_nodes"] == 116 * 12
    assert set(meta) == {"A", "B", "gl_order", "quadrature_nodes"}


def test_solve_profile_evaluates_its_source_on_the_panel_nodes_alone(monkeypatch):
    nodes = []
    real = profiles_module._rhs

    def counting(i, T, w, S0):
        nodes.append(np.size(T))
        return real(i, T, w, S0)

    monkeypatch.setattr(profiles_module, "_rhs", counting)
    for i in range(3):
        nodes.clear()
        P = solve_profile(i)
        assert nodes == [P.metadata()["quadrature_nodes"]]


def test_profile_integrals_evaluate_each_node_once(monkeypatch, profiles):
    # T0, e^{-2T0} and the explicit S0 (one dilogarithm) once per panel
    # node, shared by I_S0, I_T0sq and the three Laplacians
    t0_nodes, dilogs = [], []
    real_t0, real_li2 = profiles_module._t0, profiles_module.li2_neg
    monkeypatch.setattr(profiles_module, "_t0", lambda xp, r: t0_nodes.append(np.size(r))
                        or real_t0(xp, r))
    monkeypatch.setattr(profiles_module, "li2_neg", lambda x: dilogs.append(np.size(x))
                        or real_li2(x))
    got = profile_integrals(profiles)
    nodes = profiles[1].metadata()["quadrature_nodes"]
    assert t0_nodes == [nodes] and dilogs == [nodes]
    monkeypatch.undo()
    assert got == profile_integrals(profiles)


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
    # the one scalar rule: a number with no axes takes the float path, before,
    # inside and past the panels, and gives a Python float; libm and NumPy
    # may round the logs and exponentials apart by an ulp
    P = profiles[1]
    r = np.array([0.0, 1e-9, 0.7, 4.0, 1999.0, 2000.0, 2500.0, 1e6, 1e18])

    def laplacian(x):
        xp, x = _float_or_array(x)
        return source_laplacians(x, *_t0(xp, x), P, profiles[2])[1][1]

    for f in (P, P.derivative, laplacian):
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
    # past the panels' end e^40 = 2.4e17, P and Q are P(oo) = A / 2 pi and
    # Q(oo) = B, and S = phi2 P(oo) - phi1 Q(oo) is the log asymptote up to
    # its O(log r / r^2) remainder, below an ulp there
    P = profiles[1]
    end = math.exp(40.0)
    assert P(end * (1.0 + 1e-12)) == pytest.approx(P(end * (1.0 - 1e-12)), rel=1e-13, abs=0.0)
    for r in (1e18, 1e30, 1e100, 1e300):
        predicted = -P.A / (2.0 * math.pi) * math.log(r) + P.B
        assert P(r) == pytest.approx(predicted, rel=1e-15, abs=0.0)
        assert P.derivative(r) == pytest.approx(-P.A / (2.0 * math.pi) / r, rel=1e-15, abs=0.0)
    # r^2 overflows from 1.3e154 on; S and S' stay finite to the largest double
    S, dS = P(np.array([1e200, 1.7e308])), P.derivative(np.array([1e200, 1.7e308]))
    assert np.all(np.isfinite(S)) and np.all(np.isfinite(dS))


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
        nodes = np.array([r])
        _, laplacians = source_laplacians(nodes, *_t0(np, nodes), profiles[1], profiles[2],
                                          S0=profiles[0])
        assert laplacians[i][0] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_linear_combination_is_the_sum_of_its_profiles(profiles):
    # the model test function's brackets S0/5^3 + S1/5^5 - 0.37 S2/5, read as
    # one profile (measured: within 5.2e-14 of the largest term from r = 1e-6
    # on, and within 2.4e-35 below it, where each S_i ~ r^4)
    terms = [(5.0**-3, profiles[0]), (5.0**-5, profiles[1]), (-0.37 / 5.0, profiles[2])]
    S = linear_combination(terms)
    r = np.concatenate([[0.0], np.geomspace(1e-9, 1e20, 3000)])
    for got, parts in ((S(r), [c * P(r) for c, P in terms]),
                       (S.derivative(r), [c * P.derivative(r) for c, P in terms])):
        scale = np.max(np.abs(parts), axis=0)
        assert np.all(np.abs(got - np.sum(parts, axis=0)) <= 1e-13 * scale + 1e-30)
    assert S.A == pytest.approx(sum(c * P.A for c, P in terms), rel=1e-15, abs=0.0)
    assert S.B == pytest.approx(sum(c * P.B for c, P in terms), rel=1e-15, abs=0.0)
    assert S(3.0) == S(np.array([3.0]))[0]


def _whole_gather(P, r):
    """S and S' at an array r with every node's coefficient rows gathered at
    once, as coefs[:, :, k], and the Clenshaw sums run on that gather with
    the same roundings: the form that RadialProfile._evaluate must equal
    bit for bit while it gathers one step's rows at a time."""
    pm = profiles_module
    r = np.maximum(r, pm._R_LOW)
    y = np.log(r)
    u = (y - pm._Y_LOW) / pm._PANEL_WIDTH
    k = np.clip(np.floor(u) + 1, 0, pm._PANELS + 1).astype(np.intp)
    x = np.clip(2.0 * (u - (k - 1)) - 1.0, -1.0, 1.0)
    d = P.coefs[:, :, k]
    b1, b2, ax_b1 = np.zeros((3, 2) + x.shape)
    for m, a, b in pm._CLENSHAW_STEPS:
        np.multiply(a * x, b1, out=ax_b1)
        ax_b1 += d[m]
        b2 *= b
        ax_b1 -= b2
        b1, b2, ax_b1 = ax_b1, b1, b2
    Pv, Qv = P.starts[:, k] + 0.5 * pm._PANEL_WIDTH * (d[0] + x * b1 - 0.5 * b2)
    phi1, phi2, dphi1, dphi2 = pm._kernel(np, r, y)
    return phi2 * Pv - phi1 * Qv, dphi2 * Pv - dphi1 * Qv


def test_profiles_gather_their_coefficients_one_step_at_a_time(profiles):
    # bit for bit the whole gather, on nodes before, inside and past the
    # window (k = 0 and k = _PANELS + 1 are the constant panels), as 1-D and
    # 2-D arrays, for solved profiles and a linear combination of them; 3820
    # nodes, as many as model_testfun_energy evaluates its profiles at
    S = linear_combination([(5.0**-3, profiles[0]), (5.0**-5, profiles[1]),
                            (-0.37 / 5.0, profiles[2])])
    r = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-9, 1e20, 3814),
                        [1e40, 1e200, 1e300]])
    for P in [*profiles.values(), S]:
        assert P.coefs.flags.c_contiguous
        assert np.shares_memory(P.coefs.reshape(profiles_module._ORDER + 1, -1), P.coefs)
        for nodes in (r, r.reshape(20, -1)):
            got, want = P._evaluate(nodes), _whole_gather(P, nodes)
            assert all(g.shape == nodes.shape for g in got)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the per-step gather holds no (_ORDER + 1, 2, n) array: on these 3820
    # nodes, a peak of 645 kB against the whole gather's 1439 kB
    peaks = []
    for evaluate in (S._evaluate, lambda nodes: _whole_gather(S, nodes)):
        evaluate(r)
        tracemalloc.start()
        evaluate(r)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1]


def test_rhs_signs():
    # RHS0 = 4 e^{-2T0}(T^2 - T) is negative for small r (T < 1), positive later
    def rhs(i, r):
        return float(_rhs(i, *_t0(np, np.array([r])), None)[0])

    assert rhs(0, 0.5) < 0.0
    assert rhs(0, 5.0) > 0.0
    assert rhs(2, 1.0) > 0.0


def test_profile_integrals_identities(integrals):
    assert abs(integrals["I_S0"]) < 1e-6
    assert integrals["I_T0sq"] == pytest.approx(2.0 * math.pi, abs=1e-6)
    for got, want in zip(integrals["A_check"], A_CONSTANTS):
        assert got == pytest.approx(want, rel=5e-3)


def test_A_check_integrates_past_r_max(integrals):
    # the Laplacian integrals run on the profiles' panels out to e^40, where
    # the integrands are below 1e-24 (measured: within 3.3e-16 relative)
    for got, want in zip(integrals["A_check"], A_CONSTANTS):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r_max,named", [
    (1e-6, "must exceed 1e-06"), (0.0, "must exceed"), (-5.0, "must exceed"),
    (math.nextafter(1e-6, 1.0), "too close to 1e-06"), (1e-6 * (1.0 + 1e-13), "too close"),
])
def test_csv_grid_refuses_r_max_that_cannot_carry_it(r_max, named):
    with pytest.raises(ValueError, match=named):
        csv_grid(r_max)


@pytest.mark.parametrize("r_max", [1e-6 * (1.0 + 1e-9), 1e-3, 2000.0, 1.7e308])
def test_csv_grid_runs_from_0_to_r_max(r_max):
    grid = csv_grid(r_max)
    assert grid[0] == 0.0 and grid[1] == 1e-6 and grid[-1] == r_max
    assert grid.size == 4001 and np.all(np.diff(grid) > 0.0)


def test_solve_profile_rejects_bad_index():
    with pytest.raises((ValueError, KeyError)):
        solve_profile(5)


def test_csv_round_trip(tmp_path, profiles):
    path = tmp_path / "s0.csv"
    profile_csv([str(path)], [profiles[0]], csv_grid(R_MAX))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,S,dS_dr"
    # every 5th of the 4001 nodes of csv_grid(2000), the last one among them
    assert len(rows) == 1 + 801
    assert [float(x) for x in rows[-1].split(",")] == [
        2000.0, profiles[0](2000.0), profiles[0].derivative(2000.0)]


@pytest.mark.parametrize("r_max", [100.0, 2000.0, 4000.0])
def test_csv_rebuilds_the_profile_by_hermite_interpolation(tmp_path, profiles, r_max):
    # measured: at most 7.8e-8 absolute up to r_max = 4000 (S1 the largest);
    # the error grows with r_max, to 1.9e-7 at 1e6
    grid = csv_grid(r_max)
    paths = [tmp_path / f"s{i}.csv" for i in range(3)]
    profile_csv(list(map(str, paths)), [profiles[i] for i in range(3)], grid)
    for i, path in enumerate(paths):
        r, S, dS_dr = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        rebuilt = CubicHermiteSpline(r, S, dS_dr)(grid)
        assert np.max(np.abs(rebuilt - profiles[i](grid))) < 1e-7, i


def test_one_call_writes_each_profile_file_as_it_would_alone(tmp_path, profiles):
    grid = csv_grid(R_MAX)
    together = [tmp_path / f"together{i}.csv" for i in range(3)]
    profile_csv(list(map(str, together)), [profiles[i] for i in range(3)], grid)
    for i, path in enumerate(together):
        alone = tmp_path / f"alone{i}.csv"
        profile_csv([str(alone)], [profiles[i]], grid)
        assert path.read_bytes() == alone.read_bytes(), i


@pytest.mark.parametrize("cut", [0, 2], ids=["on-stride", "off-stride"])
def test_csv_rows_are_the_full_files_rows(tmp_path, monkeypatch, profiles, cut):
    # the kept rows are the bytes of the stride-1 file at nodes 0, 5, 10, ...
    # and at the last node, also where (n - 1) % 5 != 0
    P = profiles[1]
    monkeypatch.setattr(profiles_module, "_CSV_NODES", 4000 - cut)
    n = 4001 - cut
    grid = csv_grid(R_MAX)
    profile_csv([str(tmp_path / "kept.csv")], [P], grid)
    monkeypatch.setattr(profiles_module, "HERMITE_STRIDE", 1)
    profile_csv([str(tmp_path / "full.csv")], [P], grid)
    full = (tmp_path / "full.csv").read_bytes().split(b"\r\n")
    kept = (tmp_path / "kept.csv").read_bytes().split(b"\r\n")
    assert len(full) == n + 2
    assert kept == full[:1] + [full[1 + i] for i in range(n)
                               if i % 5 == 0 or i == n - 1] + [b""]
