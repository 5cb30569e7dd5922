"""The kernels of mtcrit.numerics against their oracles: scipy for the
integrator, Nelder-Mead, Gauss-Legendre and the Hermite spline; mpmath
for the dilogarithm.  scipy and mpmath are test dependencies only."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from mtcrit import bubble, numerics, profiles
from mtcrit.domain import DomainModel, robin, robin_report
from mtcrit.perturbation import PerturbationFamily

EPS = np.finfo(float).eps


# -- Dormand-Prince against scipy's RK45 --------------------------------------


def _scipy_rk45(fun, t_span, y0, t_eval, rtol, atol):
    return scipy.integrate.solve_ivp(fun, t_span, y0, method="RK45", t_eval=t_eval,
                                     rtol=rtol, atol=atol)


def _both(monkeypatch, module, run):
    """run() once with the module's own integrator and once with scipy's
    RK45 bound in its place; returns both results and both solver outputs."""
    outs = {}
    for name, solver in (("ours", numerics.solve_ivp), ("scipy", _scipy_rk45)):
        seen = []

        def recording(*args, solver=solver, seen=seen, **kwargs):
            seen.append(solver(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(module, "solve_ivp", recording)
        outs[name] = (run(), seen)
    return outs


@pytest.mark.parametrize("i", [1, 2])
def test_profile_ode_takes_scipys_steps(monkeypatch, i):
    # ode_profile for S1 and S2 on a profile grid: the same evaluation count
    # (so the same accepted and rejected steps), values within 1e-12 of the
    # largest |S| (measured: 1.5e-15).
    r = np.geomspace(1e-6, profiles.R_MAX, 4000)
    outs = _both(monkeypatch, profiles, lambda: profiles.ode_profile(i, r))
    ((S, dS), (sol,)), ((ref, dref), (ref_sol,)) = outs["ours"], outs["scipy"]
    assert sol.nfev == ref_sol.nfev
    assert sol.success and ref_sol.success
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(dS - dref)) <= 1e-12 * np.max(np.abs(dref))


@pytest.mark.parametrize("gamma", [3.0, 5.0])
def test_bubble_shot_takes_scipys_steps(monkeypatch, gamma):
    fam = PerturbationFamily.from_json({"kind": "PowerLog", "c_prime": 1.256171,
                                        "a_prime": 2.593292, "b_prime": 0.682198})
    outs = _both(monkeypatch, bubble, lambda: bubble.shoot_bubble(fam, 1, gamma))
    (ours, (sol,)), (ref, (ref_sol,)) = outs["ours"], outs["scipy"]
    assert sol.nfev == ref_sol.nfev
    np.testing.assert_allclose(ours.values, ref.values, rtol=1e-13, atol=0.0)


def test_dense_output_and_evaluation_count_on_a_linear_system():
    # y'' = -y from (1, 0): t_eval on step ends and inside steps alike
    def fun(t, y):
        return [y[1], -y[0]]

    t_eval = np.linspace(0.0, 10.0, 57)
    ours = numerics.solve_ivp(fun, (0.0, 10.0), [1.0, 0.0], t_eval, 1e-8, 1e-10)
    ref = _scipy_rk45(fun, (0.0, 10.0), [1.0, 0.0], t_eval, 1e-8, 1e-10)
    assert ours.nfev == ref.nfev and ours.success
    np.testing.assert_allclose(ours.y, ref.y, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(ours.y[0] - np.cos(t_eval))) < 1e-7


def test_failed_integration_says_so():
    # a right-hand side that turns NaN past t = 0.5 rejects every step from
    # there until the step size passes below the spacing of the doubles, as
    # in scipy; the points before the failure are reported.  The evaluation
    # counts differ here: y' = -y makes the error estimate a sum that cancels
    # to 1e-8 of its terms, whose order (BLAS in scipy) moves the step sizes
    # by 1e-9 relative and with them the number of halvings down to 0.5.
    def fun(t, y):
        return [math.nan if t > 0.5 else -y[0]]

    t_eval = [0.1, 0.3, 0.9]
    ours = numerics.solve_ivp(fun, (0.0, 1.0), [1.0], t_eval, 1e-6, 1e-9)
    ref = _scipy_rk45(fun, (0.0, 1.0), [1.0], t_eval, 1e-6, 1e-9)
    assert not ours.success and ref.status == -1
    assert ours.message == ref.message
    np.testing.assert_allclose(ours.y, ref.y, rtol=1e-12, atol=0.0)
    # NaN from the start fails at once (scipy's RK45 would never end)
    bad = numerics.solve_ivp(lambda t, y: [math.nan], (0.0, 1.0), [1.0], t_eval, 1e-6, 1e-9)
    assert not bad.success and bad.y.shape == (1, 0)


# -- Nelder-Mead against scipy --------------------------------------------------


@pytest.mark.parametrize("shape,width,height", [("Rectangle", 2.0, 1.0),
                                                ("Rectangle", 1.0, 1.0),
                                                ("UnitDisk", 1.0, 1.0)])
def test_robin_search_matches_scipy_nelder_mead(shape, width, height):
    dom = DomainModel(shape=shape, width=width, height=height)

    def f(q):
        return -robin(dom, q)

    ours = numerics.minimize(f, dom.centre(), xatol=1e-10, fatol=1e-12, maxiter=400)
    ref = scipy.optimize.minimize(f, dom.centre(), method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    assert ours.nfev == ref.nfev and ours.nit == ref.nit and ours.success == ref.success
    assert np.max(np.abs(ours.x - ref.x)) <= 1e-12
    assert ours.fun == pytest.approx(ref.fun, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("x0,maxiter", [([-1.2, 1.0], 400), ([0.0, 0.0], 400),
                                        ([-1.2, 1.0], 30)])
def test_nelder_mead_on_rosenbrock_matches_scipy(x0, maxiter):
    def rosen(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    ours = numerics.minimize(rosen, x0, xatol=1e-8, fatol=1e-10, maxiter=maxiter)
    ref = scipy.optimize.minimize(rosen, x0, method="Nelder-Mead",
                                  options={"xatol": 1e-8, "fatol": 1e-10,
                                           "maxiter": maxiter})
    assert ours.nfev == ref.nfev and ours.nit == ref.nit
    assert ours.success == ref.success == (maxiter == 400)
    assert np.max(np.abs(ours.x - ref.x)) <= 1e-12


# -- Gauss-Legendre -------------------------------------------------------------


def _gauss_legendre_integral(f, edges, order):
    nodes, weights = numerics.gauss_legendre(edges, order)
    assert nodes.shape == weights.shape == (len(edges) - 1, order)
    return float(np.sum(weights * f(nodes)))


def test_gauss_legendre_is_exact_on_polynomials():
    # order n integrates degree 2n - 1 exactly on each panel
    for n in (2, 4, 7):
        coef = np.arange(1.0, 2 * n + 1.0)

        def poly(x, coef=coef):
            return np.polynomial.polynomial.polyval(x, coef)

        exact = np.polynomial.polynomial.polyval(
            2.0, np.polynomial.polynomial.polyint(coef)) - np.polynomial.polynomial.polyval(
            -1.0, np.polynomial.polynomial.polyint(coef))
        got = _gauss_legendre_integral(poly, [-1.0, 0.5, 2.0], n)
        assert got == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("f,edges", [
    (np.exp, np.linspace(0.0, 3.0, 33)),
    (lambda x: 1.0 / (1.0 + x * x), np.linspace(-5.0, 5.0, 33)),
    # a pole at x = -1: panels grow geometrically away from it
    (lambda x: np.log1p(x) ** 2 / (1.0 + x) ** 2, np.append(0.0, np.geomspace(1e-3, 100.0, 32))),
])
def test_gauss_legendre_matches_quad(f, edges):
    # 32 panels of 8 nodes on analytic integrands: within 1e-13 relative,
    # quad's own requested accuracy
    ref, err = scipy.integrate.quad(f, edges[0], edges[-1], epsabs=0.0, epsrel=1e-13,
                                    limit=200)
    got = _gauss_legendre_integral(f, edges, 8)
    assert got == pytest.approx(ref, rel=1e-13)


def test_gauss_legendre_builds_each_rule_once(monkeypatch, disk, data0):
    # robin_report asks for the 48-node rule twice and solve_profile for the
    # 8-node rule twice, on every call; each is built once and kept
    built = []

    def spy(order):
        built.append(order)
        return leggauss(order)

    monkeypatch.setattr(numerics, "leggauss", spy)
    numerics._legendre_rule.cache_clear()
    try:
        for _ in range(2):
            robin_report(disk, data0.F)
            profiles.solve_profile(1)
        assert sorted(built) == [8, 48]
        for order in built:
            nodes, weights = numerics._legendre_rule(order)
            assert not nodes.flags.writeable and not weights.flags.writeable
    finally:
        numerics._legendre_rule.cache_clear()


# -- dilogarithm ----------------------------------------------------------------


@given(x=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e12), st.floats(0.0, 1e-10)))
@example(x=0.0)
@example(x=1.0)
@example(x=math.nextafter(1.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_li2_matches_mpmath(x):
    # within 4 eps relative of Li2(-x) (measured: 3.3e-16 over [1e-8, 1e8]),
    # on floats and on arrays (math and NumPy logs may differ by an ulp)
    ours = numerics.li2_neg(x)
    on_array = numerics.li2_neg(np.array([x]))[0]
    with mpmath.workdps(30):
        ref = float(mpmath.polylog(2, -mpmath.mpf(x)))
    assert abs(ours - ref) <= 4.0 * EPS * abs(ref)
    assert abs(on_array - ref) <= 4.0 * EPS * abs(ref)


def test_li2_is_the_spence_integral():
    # profiles' S0 used scipy's spence(1 + x) = int_1^{1+x} log t/(1-t) dt.
    # Rounding 1 + x moves spence by up to (1 + x) log(1 + x)/x eps/2, which
    # dominates for small x; the bound is 4 eps times that plus |Li2|
    x = np.geomspace(1e-6, 1e6, 301)
    ref = scipy.special.spence(1.0 + x)
    bound = 4.0 * EPS * (np.abs(ref) + (1.0 + x) * np.log1p(x) / x)
    assert np.all(np.abs(numerics.li2_neg(x) - ref) <= bound)


# -- cubic Hermite --------------------------------------------------------------


def test_hermite_matches_scipy_spline():
    # values and slopes within 2 ulp of the largest |value| and |slope|
    # (measured: bit-identical, with the same operations in the same order)
    rng = np.random.default_rng(5)
    x = np.unique(np.concatenate([[0.0], np.geomspace(1e-6, 2000.0, 4000)]))
    y, dy = np.sin(x) * np.log1p(x), np.cos(x) * np.log1p(x) + np.sin(x) / (1.0 + x)
    ours = numerics.CubicHermite(x, y, dy)
    ref = scipy.interpolate.CubicHermiteSpline(x, y, dy)
    r = np.concatenate([rng.uniform(0.0, 2000.0, 5000), x, [-1.0, 2001.0]])
    assert np.max(np.abs(ours(r) - ref(r))) <= 2 * EPS * np.max(np.abs(y))
    slope = ref.derivative()(r)
    assert np.max(np.abs(ours.derivative(r) - slope)) <= 2 * EPS * np.max(np.abs(slope))
