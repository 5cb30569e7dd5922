"""Tests for the constrained-maximization solvers and test functions."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import mtcrit.variational as variational
from mtcrit import (
    FamilyKind,
    PerturbationFamily,
    asymptotic_data,
    eval_g,
    eval_psi_N,
    lambda_g_report,
    model_testfun_energy,
    perturbation,
    robin_report,
    solve_subcritical,
    step1_testfun,
)
from mtcrit.domain import DomainModel, Shape
from mtcrit.perturbation import AsymptoticData
from mtcrit.variational import _energy, _load_weights, _project, _start, _stiffness, make_grid

# Infinity-branch-only PowerLog family of the disk-verdict benchmark.
POWER_LOG = PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.256171,
                               a_prime=2.593292, b_prime=0.682198)


def test_functional_at_zero_is_area(fam0):
    # the discrete functional that _ascend forms from solve_subcritical's integrand
    r = make_grid()
    J = float(np.dot(_load_weights(r), eval_psi_N(fam0, 1, np.zeros_like(r))[0]))
    assert J == pytest.approx(math.pi, rel=1e-10)


def test_start_saturates_ball():
    # Every ascent starts on the sphere E(u) = alpha, nonnegative and zero at r = 1.
    r = make_grid()
    k = _stiffness(r)
    for alpha in (0.5, 0.9 * 4.0 * math.pi, 4.0 * math.pi):
        u0 = _start(r, k, alpha)
        assert _energy(k, u0) == pytest.approx(alpha, rel=1e-12)
        assert np.all(u0 >= 0.0) and u0[-1] == 0.0


@given(n_grid=st.integers(min_value=50, max_value=4000),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.floats(min_value=-8.0, max_value=8.0),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(max_examples=60, deadline=None)
def test_riesz_solve_matches_scipy(n_grid, seed, scale, bad):
    # The cumulative-sum Riesz solve against scipy's banded Cholesky solve
    # of the same tridiagonal K (boundary node dropped), with scipy's
    # finiteness check on b.
    k = _stiffness(make_grid(n_grid))
    ab = np.zeros((2, n_grid - 1))
    ab[1] = k
    ab[1, 1:] += k[:-1]
    ab[0, 1:] = -k[:-1]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n_grid - 1) * 10.0**scale
    x, want = variational.solveh_banded(k, b), scipy.linalg.solveh_banded(ab, b)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
    # an integer load, and an integer u in the energy, count as their float
    # copies, as scipy promotes them
    bi = rng.integers(-5, 6, n_grid - 1)
    assert np.array_equal(variational.solveh_banded(k, bi),
                          variational.solveh_banded(k, bi.astype(float)))
    assert _energy(k, np.append(bi, 0)) == _energy(k, np.append(bi, 0.0))
    b[rng.integers(n_grid - 1)] = bad
    with pytest.raises(ValueError):
        scipy.linalg.solveh_banded(ab, b)
    with pytest.raises(ValueError):
        variational.solveh_banded(k, b)


def test_project_shrinks_energy():
    r = make_grid(400)
    k = _stiffness(r)
    u = 3.0 * (1.0 - r * r)
    alpha = 1.0
    v = _project(u, k, alpha)
    assert _energy(k, v) == pytest.approx(alpha, rel=1e-12)
    # Already-feasible input is returned unchanged.
    w = _project(v, k, 10.0)
    assert np.array_equal(w, v)


def test_gradient_consistency(fam0):
    # Directional finite-difference check of the discrete functional.
    r = make_grid(400)
    w = _load_weights(r)
    rng = np.random.default_rng(7)
    u = 0.5 * (1.0 - r * r)
    d = rng.standard_normal(r.size)
    d[-1] = 0.0

    def value(vec):
        return float(np.dot(w, eval_psi_N(fam0, 1, vec)[0]))

    _, psi_p = eval_psi_N(fam0, 1, u)
    grad = w * psi_p
    h = 1e-6
    fd = (value(u + h * d) - value(u - h * d)) / (2.0 * h)
    assert fd == pytest.approx(float(np.dot(grad, d)), rel=1e-4)


def test_solve_subcritical_basic(fam0):
    run = solve_subcritical(fam0, 1, 0.9 * 4.0 * math.pi)
    assert run.saturated
    assert run.el_residual < 1e-4
    assert run.J_value > math.pi
    assert run.gamma > 0 and run.lam > 0
    assert run.iterations > 0


def test_alpha_validation(fam0):
    with pytest.raises(ValueError):
        solve_subcritical(fam0, 1, 4.0 * math.pi)
    with pytest.raises(ValueError):
        solve_subcritical(fam0, 1, 0.0)


def test_lambda_g_zero_family(lambda_g0):
    # For g = 0 the maximizer is the first eigenfunction scaled to the
    # ball boundary: Lambda_0 = 4 pi / lambda_1.
    target = 4.0 * math.pi / 5.783185962946783
    assert lambda_g0["lambda_g"] == pytest.approx(target, rel=0.01)
    assert lambda_g0["lambda_g"] < math.pi * math.e
    assert lambda_g0["gap"] < 0.05


@pytest.mark.parametrize("n_grid", [1000, 2000, 4000])
def test_lambda_g_gap_bounds_the_error(fam0, n_grid):
    # The half-grid difference bounds the O(n^-2) discretisation error of
    # Lambda_0 = 4 pi / j01^2.
    rep = lambda_g_report(fam0, n_grid=n_grid)
    err = abs(rep["lambda_g"] - 4.0 * math.pi / 5.783185962946783)
    assert err <= rep["gap"] < 10.0 * err


def test_lambda_g_gap_is_inf_unless_converged(monkeypatch):
    monkeypatch.setattr(variational, "_MAX_ITER", 3)
    rep = lambda_g_report(POWER_LOG, n_grid=400)
    assert math.isfinite(rep["lambda_g"]) and rep["gap"] == math.inf


def test_grid_too_small_refused(fam0):
    # every grid an ascent runs on needs 3 nodes: n_grid for the subcritical
    # solve, n_grid and n_grid // 2 for Lambda_g
    for n_grid in (1, 2):
        with pytest.raises(ValueError, match="n_grid"):
            solve_subcritical(fam0, 1, 0.5, n_grid=n_grid)
    for n_grid in (3, 5):
        with pytest.raises(ValueError, match="n_grid"):
            lambda_g_report(fam0, n_grid=n_grid)
    assert solve_subcritical(fam0, 1, 0.5, n_grid=3).termination == "rtol"
    assert lambda_g_report(fam0, n_grid=6)["termination"] == ["rtol", "rtol"]


RECT = DomainModel(shape=Shape.RECTANGLE, width=2.0, height=1.0)


def test_lambda_g_non_disk(fam0):
    with pytest.raises(ValueError):
        lambda_g_report(fam0, RECT)


@pytest.mark.parametrize("name", ["lambda_g_report", "step1_testfun", "model_testfun_energy"])
def test_radial_functions_refuse_a_rectangle(monkeypatch, fam0, data0, name):
    # each refuses up front, through domain._disk_only: no ascent, no
    # quadrature rule and no height seed is computed
    seen = []
    for spied in ("_ascend", "gauss_legendre", "height_seed"):
        monkeypatch.setattr(variational, spied, lambda *a, _n=spied, **k: seen.append(_n))
    call = {"lambda_g_report": lambda: lambda_g_report(fam0, RECT),
            "step1_testfun": lambda: step1_testfun(RECT, fam0, 0.01),
            "model_testfun_energy": lambda: model_testfun_energy(RECT, fam0, data0, {}, 5.0)}[name]
    with pytest.raises(ValueError, match=f"^{name} serves the unit disk only, not a Rectangle$"):
        call()
    assert seen == []


def test_step1_testfun(disk, fam0):
    out = step1_testfun(disk, fam0, 0.005)
    assert out["f_norm_sq"] == 4.0 * math.pi
    e2 = 0.005**2
    expected = 4.0 * math.pi * (math.log1p(1.0 / e2) - 1.0 / (1.0 + e2))
    assert out["norm_sq"] == pytest.approx(expected, rel=1e-14)
    assert out["J"] > math.pi + math.pi * math.e - 0.3
    with pytest.raises(ValueError):
        step1_testfun(disk, fam0, 0.5)
    with pytest.raises(ValueError):
        step1_testfun(RECT, fam0, 0.01)


def test_step1_eps_whose_square_is_subnormal_is_refused(disk, fam0):
    # from eps = 7.5e-155 down 1/eps^2 overflows and norm_sq was inf, with J
    # the value of f = 0; eps^2 must be a normal double
    assert variational.STEP1_EPS_MIN**2 >= sys.float_info.min
    assert math.nextafter(variational.STEP1_EPS_MIN, 0.0)**2 < sys.float_info.min
    out = step1_testfun(disk, fam0, 1.5e-154)
    assert math.isfinite(out["norm_sq"]) and math.isfinite(out["J"])
    for eps in (1.49e-154, 1e-160, 1e-300):
        with pytest.raises(ValueError, match="eps\\^2 is a normal double"):
            step1_testfun(disk, fam0, eps)


def test_model_testfun_sanity(disk, fam0, data0, profiles):
    out = model_testfun_energy(disk, fam0, data0, profiles, 4.0)
    assert out["norm_sq"] == pytest.approx(4.0 * math.pi, rel=1e-4)
    assert out["S_int"] == pytest.approx(0.5, abs=1e-4)
    assert out["mu"] > 0.0
    # For g = 0 the profile brackets vanish against the stored asymptotes.
    assert abs(out["H_tilde"][0]) < 1e-3
    rel = abs(out["log_inv_mu2_truncated"] - out["log_inv_mu2_closed"])
    assert rel / abs(out["log_inv_mu2_closed"]) < 2e-3


def test_bracket_constants_past_the_old_grid_are_numbers(disk, fam0, data0, profiles):
    # At gamma = 5, 1/mu~ = 1.6e5 lies past r_max = 2000, where the profiles
    # used to end in their own log asymptote and the report wrote null for
    # each bracket constant.  The profiles now reach oo, so H~_i is S_i's
    # o(1) remainder at 1/mu~ (measured: 2.2e-8, 1.5e-6 and 7.4e-11), held
    # here to the closed forms of S0 and S2 in 40 digits.  B_i - S_i(1/mu~)
    # and L = 24.02 cancel to these remainders, so each is good to a few ulp
    # of L (measured: 2.9e-15 and 5.5e-15 absolute).
    out = model_testfun_energy(disk, fam0, data0, profiles, 5.0)
    H = out["H_tilde"]
    assert all(type(h) is float and 0.0 < h < 1e-5 for h in H)
    mpmath.mp.dps = 40
    L = mpmath.mpf(out["log_inv_mu2"])
    z2 = mpmath.exp(L)  # (1/mu~)^2
    T = mpmath.log1p(z2)
    S0 = -T + 2 * z2 / (1 + z2) - T * T / 2 + (1 - z2) / (1 + z2) * mpmath.polylog(2, -z2)
    assert H[1] == pytest.approx(float(mpmath.pi ** 2 / 6 + 2 - S0 - L), rel=0.0, abs=1e-14)
    assert H[3] == pytest.approx(float(1 / (1 + z2) + mpmath.log1p(1 / z2)), rel=0.0,
                                 abs=1e-14)
    assert H[0] == pytest.approx(3.697387993779522e-11, rel=1e-12, abs=0.0)
    # at gamma = 2, 1/mu~ = 6.2 (recorded with the height root bisected to
    # adjacent doubles, and again on the panel profiles: moved by at most
    # 2.4e-10 relative; and again with correctly rounded Gauss-Legendre
    # weights: H~_1 and H~_3 moved from 0.6203235948111301 and
    # 0.05159053280232584, by 1.4e-15 and 8.6e-15 relative)
    near = model_testfun_energy(disk, fam0, data0, profiles, 2.0)["H_tilde"]
    assert near == [0.02596232812862712, 0.6203235948111292, 2.2500000156214286,
                    0.051590532802325395]


@pytest.mark.parametrize("gamma", [3.0, 5.0])
def test_model_testfun_reports_python_floats(disk, profiles, gamma):
    out = model_testfun_energy(disk, POWER_LOG, asymptotic_data(POWER_LOG), profiles, gamma)
    assert type(out["log_inv_mu2"]) is float


# (c', a', b') = (1, 3, 1/2), the PowerLog family of the gap table below
POWER_LOG_3_HALF = PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.0, a_prime=3.0,
                                      b_prime=0.5)
HEIGHT_FAMILIES = {"Zero": PerturbationFamily(), "PowerLog": POWER_LOG_3_HALF}


@pytest.mark.parametrize("fam", [
    PerturbationFamily(),
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c=-0.5, a=0.5, b=0.5),
], ids=["Zero", "PowerLog-kappa-half"])
def test_concentration_integral_is_the_disk_report_S(disk, fam):
    # the closed form and the disk's series are two forms of one S, at
    # kappa = 1 and, with c != 0, at kappa = a = 1/2
    data = asymptotic_data(fam)
    assert data.kappa == (1.0 if fam.c == 0.0 else 0.5)
    assert variational._concentration_integral(data) == pytest.approx(
        robin_report(disk, data.F).S, rel=1e-13)


def _q_prime_closed(data, rho):
    """-Gamma(kappa + 1, 2 log(1/rho)) / (2 rho), by scipy's regularised
    upper incomplete gamma."""
    k = data.kappa
    upper = math.gamma(k + 1.0) * scipy.special.gammaincc(k + 1.0, -2.0 * np.log(rho))
    return -upper / (2.0 * rho)


@pytest.mark.parametrize("kappa", [1.0, 0.25, 0.4])
def test_green_source_matches_the_incomplete_gamma(kappa):
    # q'(rho) = -Gamma(kappa + 1, 2 log(1/rho)) / (2 rho) and q(0) = Gamma(2 + kappa)/4
    # (measured: 1.5e-14 for each kappa; the cubic Hermite table the panel
    # sums replaced was off by 3.6e-6 for kappa < 1)
    data = AsymptoticData(A_pieces=(), B_pieces=((1.0, 1.0, 0.0),), kappa=kappa)
    assert variational._concentration_integral(data) == math.gamma(2.0 + kappa) / 4.0
    rho = np.geomspace(1e-30, 1.0, 301)[:-1]
    got = variational._q_prime(data, rho)
    with mpmath.workdps(30):
        want = [float(-mpmath.gammainc(kappa + 1.0, 2.0 * mpmath.log(1.0 / mpmath.mpf(r)))
                      / (2.0 * mpmath.mpf(r))) for r in rho]
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


# (c, a, b, c', a', b') = (0.5, 0.3, 1/2, 1, 1, 1/2): kappa = a = 0.3
POWER_LOG_KAPPA_03 = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.5, a=0.3, b=0.5,
                                        c_prime=1.0, a_prime=1.0, b_prime=0.5)


@pytest.mark.parametrize("gamma", [3.0, 5.0, 15.0])
def test_model_gap_at_kappa_below_one_is_the_incomplete_gamma_gap(monkeypatch, disk, profiles,
                                                                  gamma):
    # q' enters ||U||^2 at the norm's own nodes, so the gap is the one that
    # q' in closed form gives (measured: bit-identical; the cubic Hermite
    # table moved it by 5.6e-7 relative at gamma = 3 and 1.4e-5 at 15)
    fam = POWER_LOG_KAPPA_03
    data = asymptotic_data(fam)
    assert data.kappa == 0.3
    got = model_testfun_energy(disk, fam, data, profiles, gamma)["normalized_gap"]
    monkeypatch.setattr(variational, "_q_prime", _q_prime_closed)
    want = model_testfun_energy(disk, fam, data, profiles, gamma)["normalized_gap"]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", HEIGHT_FAMILIES)
@pytest.mark.parametrize("gamma", [1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 26.0])
def test_bisected_root_puts_U0_at_gamma(monkeypatch, disk, profiles, name, gamma):
    fam = HEIGHT_FAMILIES[name]
    data = asymptotic_data(fam)
    heights = []
    bisect = variational._bisect

    def spy(f, lo, hi):
        heights.append(f)
        return bisect(f, lo, hi)

    monkeypatch.setattr(variational, "_bisect", spy)
    L = model_testfun_energy(disk, fam, data, profiles, gamma)["log_inv_mu2"]
    assert type(L) is float
    # U(0) - gamma at the root, by the height function that was bisected
    (height,) = heights
    assert abs(height(L)) <= 1e-14 * gamma


def test_the_model_reads_its_height_data_once(monkeypatch, disk, fam0, data0, profiles):
    # height_seed hands A(gamma), B(gamma) and S to the model, which used to
    # evaluate each of them a second time
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    for owner, name in ((AsymptoticData, "A"), (AsymptoticData, "B"),
                        (variational, "_concentration_integral")):
        spy(owner, name)
    model_testfun_energy(disk, fam0, data0, profiles, 5.0)
    assert sorted(calls) == ["A", "B", "_concentration_integral"]


@pytest.mark.parametrize("fam", [PerturbationFamily(), POWER_LOG], ids=["Zero", "PowerLog"])
@pytest.mark.parametrize("gamma", [1.0, 0.5, 0.0, -2.0])
def test_height_seed_refuses_gamma_at_most_one(disk, fam, gamma):
    # A and B carry log(gamma): a family with log pieces used to seed the
    # height at x = -inf (gamma = 1) or NaN (below); the model refuses it
    # before it reads a profile
    message = "^" + re.escape(f"gamma must be > 1, since A and B carry log(gamma) "
                              f"(got {gamma!r})") + "$"
    data = asymptotic_data(fam)
    with pytest.raises(ValueError, match=message):
        variational.height_seed(data, gamma)
    with pytest.raises(ValueError, match=message):
        model_testfun_energy(disk, fam, data, {}, gamma)


def test_the_model_builds_its_bracket_profile_once(monkeypatch, disk, fam0, data0, profiles):
    # one profile S0/gamma^3 + S1/gamma^5 + (A/gamma) S2 serves both the
    # height function and the slope in ||U||^2
    calls = []
    combine = variational.linear_combination

    def counted(terms):
        calls.append(terms)
        return combine(terms)

    monkeypatch.setattr(variational, "linear_combination", counted)
    model_testfun_energy(disk, fam0, data0, profiles, 4.0)
    assert len(calls) == 1


def test_bisection_ends_on_adjacent_doubles():
    root = variational._bisect(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert type(root) is float
    # cos x - x falls through 0 between root and one of its neighbours
    lo, hi = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    assert math.cos(lo) - lo >= 0.0 >= math.cos(hi) - hi
    assert variational._bisect(lambda x: x - 0.25, 0.0, 1.0) == 0.25
    assert variational._bisect(lambda x: 0.25 - x, 0.0, 1.0) == 0.25


def test_height_bracket_without_a_sign_change_raises(monkeypatch, disk, fam0, data0, profiles):
    # at gamma = 5 the root lies 0.051 above L_seed
    monkeypatch.setattr(variational, "_HEIGHT_BRACKET", 1e-3)
    with pytest.raises(variational.RootFailError, match="no root in the bracket"):
        model_testfun_energy(disk, fam0, data0, profiles, 5.0)
    with pytest.raises(variational.RootFailError):
        variational._bisect(lambda x: x * x + 1.0, -1.0, 1.0)


GAP_GAMMAS = [3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0]
# the converged normalized gap at gamma = 5, 10, 15, 20, 25, re-recorded when
# the profiles came to reach oo; on profiles that ended in their log asymptote
# past r = 2000 they were -1.10422, -0.27289, -0.12098, -0.06795, -0.04343
# (Zero) and -1.12423, -0.27489, -0.12153, -0.06817, -0.04354 (PowerLog)
GAP_CONVERGED = {"Zero": [-1.10505, -0.27319, -0.12119, -0.06812, -0.04358],
                 "PowerLog": [-1.12506, -0.27519, -0.12173, -0.06834, -0.04369]}


def _gaps(disk, fam, profiles):
    data = asymptotic_data(fam)
    return [model_testfun_energy(disk, fam, data, profiles, g)["normalized_gap"]
            for g in GAP_GAMMAS]


@pytest.mark.parametrize("name", HEIGHT_FAMILIES)
def test_model_gap_converges_along_gamma(monkeypatch, disk, profiles, name):
    # the paper's expansion ||U||^2 = 4 pi (1 + I(gamma) + o(zeta)): the gap
    # falls toward 0, where 6001 trapezoid nodes turned it up past gamma ~ 15
    fam = HEIGHT_FAMILIES[name]
    gaps = _gaps(disk, fam, profiles)
    magnitudes = [abs(v) for v in gaps]
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    at = [gaps[GAP_GAMMAS.index(g)] for g in (5.0, 10.0, 15.0, 20.0, 25.0)]
    assert at == pytest.approx(GAP_CONVERGED[name], abs=1e-4)
    # the same rule with 4 times the panels, which also refines q': its
    # panels run between the norm's nodes (measured: at most 8.7e-11)
    for const in ("_NORM_PANELS", "_NORM_TAIL_PANELS"):
        monkeypatch.setattr(variational, const, 4 * getattr(variational, const))
    assert _gaps(disk, fam, profiles) == pytest.approx(gaps, rel=0.0, abs=1e-9)


def test_level_trend(fam0):
    # J(alpha) increases in alpha and stays below the concentration bound.
    vals = [solve_subcritical(fam0, 1, f * 4.0 * math.pi, n_grid=800).J_value
            for f in (0.5, 0.7, 0.9)]
    assert vals == sorted(vals)
    assert all(v - math.pi < math.pi * math.e + 0.6 for v in vals)


# Golden values of the Anderson-accelerated ascent at the default grid,
# pinned float for float: `J`, iterations and Lambda_g are compared with
# `==`.  Beside them stand the values of the plain conditional-gradient
# (Frank-Wolfe) ascent it replaced (`J_fw`, `iterations_fw`, `lam_g_fw`,
# `el_fw`), which were held by the same rule against the projected
# Barzilai-Borwein ascent before it: `J` may only rise and by at most 1e-11
# relative, the iterations must be fewer, Lambda_g must agree to 1e-15
# relative and the Euler-Lagrange residual must fall.  `ladder` pins
# (alpha / 4 pi, J, iterations, J_fw, iterations_fw, el_fw) of every rung of
# the default extremal ladder.  PowerLog's rungs at 0.8, 0.9 and 0.95 were
# re-recorded when the blend's 3x3 system came to be solved by its exact
# inverse in place of np.linalg.solve: `POWER_LOG_LU_LADDER` keeps the
# replaced values, which `test_lu_blend_gives_the_replaced_goldens` still
# reproduces with the LU solve patched back in.
POWER_LOG_LADDER = [
    (0.7, 6.387320915376412, 10, 6.387320915375908, 30, 4.3944153673869143e-07),
    (0.8, 7.6126393861237105, 12, 7.612639386122465, 42, 4.851272407829381e-07),
    (0.9, 9.586747468281628, 14, 9.586747468271156, 69, 8.493828785304586e-07),
    (0.95, 11.19354697825013, 16, 11.193546978224674, 112, 8.807998989877934e-07)]


@pytest.mark.parametrize("fam,lam_g,lam_g_fw,ladder", [
    (PerturbationFamily(), 2.172916383320414, 2.1729163833204135,
     [(0.7, 6.340744301058274, 10, 6.340744301057761, 30, 4.462957331150667e-07),
      (0.8, 7.552026584082037, 12, 7.552026584080762, 42, 4.933447096368075e-07),
      (0.9, 9.504416349257959, 15, 9.504416349250366, 70, 7.267317376516364e-07),
      (0.95, 11.0946358932794, 16, 11.094635893251752, 112, 9.209085562187425e-07)]),
    (POWER_LOG, 2.213910110129713, 2.2139101101297127, POWER_LOG_LADDER),
], ids=["Zero", "PowerLog"])
def test_ascent_golden_values(fam, lam_g, lam_g_fw, ladder):
    rep = lambda_g_report(fam)
    assert rep["lambda_g"] == lam_g
    assert rep["lambda_g"] == pytest.approx(lam_g_fw, rel=1e-15, abs=0.0)
    assert set(rep) == {"lambda_g", "gap", "termination"}
    for frac, J, iterations, J_fw, iterations_fw, el_fw in ladder:
        run = solve_subcritical(fam, 1, frac * 4.0 * math.pi)
        assert (run.J_value, run.iterations) == (J, iterations), frac
        assert J_fw <= run.J_value <= J_fw * (1.0 + 1e-11)
        assert run.iterations < iterations_fw
        assert run.el_residual < el_fw


def test_lambda_g_golden_value_through_the_near_zero_branch():
    # c != 0 and g0 != 0 (BLENDED[1], R' = 3): the ascent's u runs from 0 at
    # the boundary through the near-zero branch (u <= 1/R') into the blend
    # (up to about 1.56); pinned as above, and the gap beside the
    # Frank-Wolfe ascent's 9.726014985389497e-06.  Re-recorded with the
    # blend's exact inverse: the LU-solved blend gave 5.846282615734376 and
    # gap 9.726014987165854e-06 (1.2e-15 relative and 8.9e-16 absolute
    # away); test_lu_blend_gives_the_replaced_goldens holds that Lambda_g
    # to the Frank-Wolfe ascent's, which was run on the LU-solved blend
    rep = lambda_g_report(BLENDED[1])
    assert rep == {"lambda_g": 5.846282615734383, "gap": 9.726014986277676e-06,
                   "termination": ["rtol", "rtol"]}
    assert rep["gap"] == pytest.approx(9.726014985389497e-06, rel=0.0, abs=2e-15)


# (alpha / 4 pi, J, iterations) of PowerLog's default ladder with the blend's
# 3x3 system solved by np.linalg.solve, as recorded before the exact inverse
POWER_LOG_LU_LADDER = [(0.7, 6.387320915376412, 10), (0.8, 7.61263938612371, 11),
                       (0.9, 9.586747468281626, 14), (0.95, 11.193546978250126, 16)]


def _rebuilt(fam: PerturbationFamily) -> PerturbationFamily:
    """fam built again from its fields, so that its blend is solved anew."""
    return PerturbationFamily(**{name: getattr(fam, name) for name, _ in fam._FIELDS})


def test_lu_blend_gives_the_replaced_goldens(monkeypatch):
    # With the LU solve patched back into the blend, the ascents give the
    # replaced golden values float for float, so the exact inverse alone
    # moved them; Lambda_g of BLENDED[1] then agrees with the Frank-Wolfe
    # ascent's 5.846282615734376 (gap 9.726014985389497e-06) to 1e-15, as
    # before.  The exact inverse moved each J by at most 3.2e-16 relative.
    system = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    monkeypatch.setattr(perturbation, "_blend_tail", lambda *r: tuple(
        float(c) for c in np.linalg.solve(system, np.array(r))))
    rep = lambda_g_report(_rebuilt(BLENDED[1]))
    assert rep == {"lambda_g": 5.846282615734376, "gap": 9.726014987165854e-06,
                   "termination": ["rtol", "rtol"]}
    assert rep["lambda_g"] == pytest.approx(5.846282615734376, rel=1e-15, abs=0.0)
    assert rep["gap"] == pytest.approx(9.726014985389497e-06, rel=0.0, abs=2e-15)
    fam = _rebuilt(POWER_LOG)
    assert lambda_g_report(fam)["lambda_g"] == 2.213910110129713
    new = {frac: J for frac, J, *_ in POWER_LOG_LADDER}
    for frac, J, iterations in POWER_LOG_LU_LADDER:
        run = solve_subcritical(fam, 1, frac * 4.0 * math.pi)
        assert (run.J_value, run.iterations) == (J, iterations), frac
        assert new[frac] == pytest.approx(J, rel=4e-16, abs=0.0)


def test_ascent_termination_reasons(monkeypatch, fam0):
    # "rtol" ends every ascent of the default ladder
    # (test_convex_runs_take_full_steps); here the other two are forced.
    r = make_grid(400)
    alpha = 0.5 * 4.0 * math.pi

    def integrand(u):
        return eval_psi_N(fam0, 1, u)

    seen = []

    def never_rises(u):
        seen.append(u)
        psi, psi_p = integrand(u)
        return (psi if len(seen) == 1 else np.zeros_like(psi)), psi_p

    *_, it, why = variational._ascend(never_rises, r, alpha)
    assert (it, why, len(seen)) == (1, "no_ascent_step", 41)

    monkeypatch.setattr(variational, "_MAX_ITER", 3)
    *_, it, why = variational._ascend(integrand, r, alpha)
    assert (it, why) == (3, "max_iter")
    run = solve_subcritical(fam0, 1, alpha, n_grid=400)
    assert (run.iterations, run.termination) == (3, "max_iter")
    assert run.to_json()["termination"] == "max_iter"


@pytest.mark.parametrize("fam", [PerturbationFamily(), POWER_LOG], ids=["Zero", "PowerLog"])
def test_convex_runs_take_full_steps(monkeypatch, fam):
    # J is convex along these families' steps, so no conditional-gradient
    # step needs a halving: each iteration (one Riesz solve) makes at most
    # one Anderson trial (projected onto the sphere) and at most one plain
    # trial, which is then the full step s = 1; every ascent ends on "rtol".
    events = []
    project, solve = variational._project, variational.solveh_banded

    def spied_project(u, k, alpha, sphere=False):
        events.append("anderson" if sphere else "plain")
        return project(u, k, alpha, sphere=sphere)

    def spied_solve(k, b):
        events.append("solve")
        return solve(k, b)

    monkeypatch.setattr(variational, "_project", spied_project)
    monkeypatch.setattr(variational, "solveh_banded", spied_solve)
    for frac in (0.7, 0.8, 0.9, 0.95):  # the extremal default ladder
        events.clear()
        run = solve_subcritical(fam, 1, frac * 4.0 * math.pi)
        assert run.termination == "rtol"
        start, *iterations = " ".join(events).split("solve")
        assert start.split() == ["plain"] and len(iterations) == run.iterations
        for trials in iterations:
            trials = trials.split()
            assert trials.count("anderson") <= 1 and trials.count("plain") <= 1, (frac, trials)
        # no Gram system on the default grid is singular: every iteration
        # after the first tries one Anderson candidate
        assert events.count("anderson") == run.iterations - 1


def test_each_ascent_builds_its_discretisation_once(monkeypatch, fam0):
    # _ascend builds the stiffness and the lumped weights of its grid once;
    # solve_subcritical builds the stiffness once more, for E(u) and K u
    stiffness = _count_calls(monkeypatch, "_stiffness")
    weights = _count_calls(monkeypatch, "_load_weights")
    solve_subcritical(fam0, 1, 0.8 * 4.0 * math.pi, n_grid=400)
    assert len(stiffness) <= 2 and len(weights) == 1
    stiffness.clear()
    weights.clear()
    lambda_g_report(fam0, n_grid=400)
    assert len(stiffness) == 2 and len(weights) == 2


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(variational, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(variational, name, counted)
    return calls


@pytest.mark.parametrize("fam", [PerturbationFamily(), POWER_LOG], ids=["Zero", "PowerLog"])
def test_one_evaluation_per_trial(monkeypatch, fam):
    # Every line-search trial is one projection and at most one evaluation;
    # the gradient at an accepted point is never recomputed.
    psi = _count_calls(monkeypatch, "eval_psi_N")
    g = _count_calls(monkeypatch, "eval_g")
    proj = _count_calls(monkeypatch, "_project")
    solve_subcritical(fam, 1, 0.8 * 4.0 * math.pi, n_grid=400)
    assert 0 < len(psi) <= len(proj) + 1
    psi.clear()
    proj.clear()
    lambda_g_report(fam, n_grid=400)
    assert psi == []
    assert 0 < len(g) <= len(proj) + 1  # plus the scalar g(0)


BLENDED = [
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.5, a=1.0, b=0.0,
                       c_prime=-0.25, a_prime=2.0, b_prime=0.0, R_prime=10.0),
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c=-0.3, a=0.4, b=0.7, g0=0.2,
                       c_prime=1.5, a_prime=0.5, b_prime=1.2, R_prime=3.0),
]


@pytest.mark.parametrize("fam", BLENDED)
def test_hermite_blend_needs_no_solve(monkeypatch, fam):
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called while evaluating g")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    t = np.geomspace(1.0 / fam.R_prime, fam.R_prime, 101)[1:-1]
    g, dg = eval_g(fam, t)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(dg))
    eval_g(fam, float(t[50]))


@pytest.mark.parametrize("fam", BLENDED)
def test_hermite_blend_is_c1_at_knots(fam):
    # Each knot belongs to its branch; the next float inward is in the blend.
    for knot, inward in ((1.0 / fam.R_prime, math.inf), (fam.R_prime, 0.0)):
        branch_g, branch_dg = eval_g(fam, knot)
        blend_g, blend_dg = eval_g(fam, math.nextafter(knot, inward))
        assert blend_g == pytest.approx(branch_g, rel=1e-9)
        assert blend_dg == pytest.approx(branch_dg, rel=1e-9)


def _frank_wolfe_reference(integrand, r, alpha):
    """The plain conditional-gradient ascent that the Anderson step
    accelerates: `_ascend` as it was before, with the same start, Riesz
    solve, line search and exits.  Returns (J, iterations, termination)."""
    k = _stiffness(r)
    w = _load_weights(r)

    def value_grad(u):
        phi, phi_p = integrand(u)
        return float(np.dot(w, phi)), w * phi_p

    u = _project(_start(r, k, alpha), k, alpha)
    J, G = value_grad(u)
    d = np.zeros_like(u)
    stall = 0
    for it in range(1, variational._MAX_ITER + 1):
        d[:-1] = variational.solveh_banded(k, G[:-1])
        step = d * math.sqrt(alpha / max(_energy(k, d), 1e-300))
        step -= u
        s = 1.0
        for _ in range(40):
            u_try = u + step if s == 1.0 else u + s * step
            u_try = _project(np.maximum(u_try, 0.0, out=u_try), k, alpha)
            J_try, G_try = value_grad(u_try)
            if J_try > J:
                break
            if s == 1.0 and J - J_try <= variational._RTOL * abs(J):
                return J, it, "rtol"
            s *= 0.5
        else:
            return J, it, "no_ascent_step"
        rel = (J_try - J) / max(abs(J_try), 1e-300)
        u, J, G = u_try, J_try, G_try
        stall = stall + 1 if rel < variational._RTOL else 0
        if stall >= 3:
            return J, it, "rtol"
    return J, it, "max_iter"


def _counted(fam, N):
    calls = []

    def integrand(u):
        calls.append(1)
        return eval_psi_N(fam, N, u)

    return integrand, calls


SWEEP_FAMILIES = {"Zero": PerturbationFamily(), "PowerLog": POWER_LOG,
                  "Blended0": BLENDED[0], "Blended1": BLENDED[1]}


@pytest.mark.parametrize("n_grid", [3, 4, 6, 2000])
@pytest.mark.parametrize("name", SWEEP_FAMILIES)
def test_anderson_ascent_against_the_frank_wolfe_reference(name, n_grid):
    # Every run of both ascents ends on "rtol", and the accelerated one finds
    # J at least the reference's to roundoff.  On the default grid it takes
    # no more integrand evaluations in any run.  On 3 to 6 nodes the ball's
    # sphere leaves 1 to 4 free directions and the reference ends in 6 to 24
    # iterations; there a run may take a few more evaluations (up to 6 more,
    # candidates tried early and at roundoff that do not raise J).
    fam = SWEEP_FAMILIES[name]
    r = make_grid(n_grid)
    for N in (1, 2, 3):
        for frac in (0.5, 0.95, 0.99):
            alpha = frac * 4.0 * math.pi
            integrand, calls = _counted(fam, N)
            _, J, _, _, why = variational._ascend(integrand, r, alpha)
            ref_integrand, ref_calls = _counted(fam, N)
            J_ref, _, why_ref = _frank_wolfe_reference(ref_integrand, r, alpha)
            case = (N, frac, J, J_ref, len(calls), len(ref_calls))
            assert why == why_ref == "rtol", case
            assert J >= J_ref * (1.0 - 1e-13), case
            if n_grid == 2000:
                assert len(calls) <= len(ref_calls), case


def test_singular_gram_system_takes_the_plain_step(monkeypatch, fam0):
    # On 3 nodes three changes lie in a 2-D space: a Gram system comes out
    # exactly singular, that iteration tries no candidate, and the run ends
    # on "rtol" at the reference's J
    r, alpha = make_grid(3), 0.5 * 4.0 * math.pi
    solve = variational._solve_small
    singular, anderson = [], []

    def spied_solve(a, b):
        gamma = solve(a, b)
        singular.append(gamma is None)
        return gamma

    project = variational._project

    def spied_project(u, k, alpha, sphere=False):
        anderson.append(sphere)
        return project(u, k, alpha, sphere=sphere)

    monkeypatch.setattr(variational, "_solve_small", spied_solve)
    monkeypatch.setattr(variational, "_project", spied_project)
    _, J, _, _, why = variational._ascend(lambda u: eval_psi_N(fam0, 1, u), r, alpha)
    J_ref, _, _ = _frank_wolfe_reference(lambda u: eval_psi_N(fam0, 1, u), r, alpha)
    assert why == "rtol" and J >= J_ref * (1.0 - 1e-13)
    assert any(singular) and anderson.count(True) == singular.count(False)
    # with every system singular the ascent is the reference, bit for bit
    monkeypatch.setattr(variational, "_solve_small", lambda a, b: None)
    r = make_grid(400)
    for N, frac in ((1, 0.5), (2, 0.95), (3, 0.99)):
        alpha = frac * 4.0 * math.pi
        integrand, calls = _counted(POWER_LOG, N)
        _, J, _, it, why = variational._ascend(integrand, r, alpha)
        ref_integrand, ref_calls = _counted(POWER_LOG, N)
        J_ref, it_ref, why_ref = _frank_wolfe_reference(ref_integrand, r, alpha)
        assert (J, it, why, len(calls)) == (J_ref, it_ref, why_ref, len(ref_calls))


def test_solve_small_against_lapack():
    # Gaussian elimination on Python floats of a symmetric positive definite
    # system, against LAPACK; a system with a pivot that is not positive
    # (singular, indefinite or NaN) or a non-finite solution has none
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        rows = rng.standard_normal((m, 50))
        a = np.array([[float(np.dot(x, y)) for y in rows] for x in rows])
        b = rng.standard_normal(m)
        x = variational._solve_small(a.tolist(), b.tolist())
        assert all(type(v) is float for v in x)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)
    assert variational._solve_small([[4.0, 2.0], [2.0, 5.0]], [2.0, 1.0]) == [0.5, 0.0]
    for a, b in (([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]),
                 ([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]),
                 ([[0.0]], [1.0]),
                 ([[math.nan]], [1.0]),
                 ([[1e-300, 0.0], [0.0, 1.0]], [1e10, 1.0])):
        assert variational._solve_small(a, b) is None
