"""The kernels of mtcrit.numerics, and the integrator of mtcrit.ode, against
their oracles: scipy for the integrator, Nelder-Mead and Gauss-Legendre;
mpmath for the dilogarithm.  scipy and mpmath are test dependencies only."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcrit import bubble, cli, numerics, ode, profiles, variational
from mtcrit.domain import DomainModel, robin
from mtcrit.perturbation import PerturbationFamily

EPS = np.finfo(float).eps


# -- Dormand-Prince against scipy's RK45 --------------------------------------


def _first_order(accel):
    """u'' = accel(t, u, u') as the system (u, u')' = (u', accel) that the
    references integrate."""
    def fun(t, y):
        return [y[1], accel(t, y[0], y[1])]

    return fun


def _scipy_rk45(accel, t_span, y0, t_eval, rtol, atol):
    return scipy.integrate.solve_ivp(_first_order(accel), t_span, y0, method="RK45",
                                     t_eval=t_eval, rtol=rtol, atol=atol)


def _both(monkeypatch, module, run):
    """run() once with the module's own integrator and once with scipy's
    RK45 bound in its place; returns both results and both solver outputs."""
    outs = {}
    for name, solver in (("ours", ode.solve_ivp), ("scipy", _scipy_rk45)):
        seen = []

        def recording(*args, solver=solver, seen=seen, **kwargs):
            seen.append(solver(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(module, "solve_ivp", recording)
        outs[name] = (run(), seen)
    return outs


@pytest.mark.parametrize("i", [0, 1, 2])
def test_profile_ode_takes_scipys_steps(monkeypatch, i):
    # ode_profile for S0, S1 and S2 on a profile grid: the same evaluation
    # count (so the same accepted and rejected steps), values within 1e-12
    # of the largest |S| (measured: 1.5e-15).
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
    # u'' = -u from (1, 0): t_eval on step ends and inside steps alike
    def accel(t, u, du):
        return -u

    t_eval = np.linspace(0.0, 10.0, 57)
    ours = ode.solve_ivp(accel, (0.0, 10.0), (1.0, 0.0), t_eval, 1e-8, 1e-10)
    ref = _scipy_rk45(accel, (0.0, 10.0), [1.0, 0.0], t_eval, 1e-8, 1e-10)
    assert ours.nfev == ref.nfev and ours.success
    np.testing.assert_allclose(ours.y, ref.y, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(ours.y[0] - np.cos(t_eval))) < 1e-7


def test_failed_integration_says_so():
    # an acceleration that turns NaN past t = 0.5 rejects every step from
    # there until the step size passes below the spacing of the doubles, as
    # in scipy; the points before the failure are reported.  The evaluation
    # counts differ here (434 and 482): u'' = -u makes the error estimate a
    # sum that cancels to a small part of its terms, whose order (BLAS in
    # scipy) moves the step sizes and with them the number of halvings down
    # to 0.5.
    def accel(t, u, du):
        return math.nan if t > 0.5 else -u

    t_eval = [0.1, 0.3, 0.9]
    ours = ode.solve_ivp(accel, (0.0, 1.0), (1.0, 0.0), t_eval, 1e-6, 1e-9)
    ref = _scipy_rk45(accel, (0.0, 1.0), [1.0, 0.0], t_eval, 1e-6, 1e-9)
    assert not ours.success and ref.status == -1
    assert ours.message == ref.message
    np.testing.assert_allclose(ours.y, ref.y, rtol=1e-12, atol=0.0)
    # NaN from the start fails at once (scipy's RK45 would never end)
    bad = ode.solve_ivp(lambda t, u, du: math.nan, (0.0, 1.0), (1.0, 0.0), t_eval,
                        1e-6, 1e-9)
    assert not bad.success and bad.y.shape == (2, 0)


@pytest.mark.parametrize("t_eval", [[-0.5, 1.0], [0.5, 10.5], [1.0, 0.5], [0.5, 0.5]],
                         ids=["before", "past", "decreasing", "repeated"])
def test_t_eval_outside_the_span_or_unsorted_is_refused(t_eval):
    # the dense output would extrapolate the first or last step and report
    # success; refused as scipy refuses it, before accel is ever called
    calls = []

    def accel(t, u, du):
        calls.append(t)
        return -u

    with pytest.raises(ValueError) as ref:
        _scipy_rk45(accel, (0.0, 10.0), [1.0, 0.0], t_eval, 1e-8, 1e-10)
    calls.clear()
    with pytest.raises(ValueError, match=re.escape(str(ref.value))):
        ode.solve_ivp(accel, (0.0, 10.0), (1.0, 0.0), t_eval, 1e-8, 1e-10)
    assert calls == []


# -- the written-out stages against the stage loop ------------------------------


def _left_sum(terms):
    """sum() of floats as Python 3.11 forms it: 0 + t0 + t1 + ..., left to
    right (from 3.12 on, sum compensates)."""
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _rms(v):
    return math.sqrt(_left_sum(x * x for x in v)) / len(v) ** 0.5


def _stage_loop_solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """Dormand-Prince on y' = fun(t, y) with n components, every stage a
    sum over its row of the tableau: the form ode.solve_ivp writes out
    stage by stage for n = 2."""
    t, t_end = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    n = len(y)
    nfev = 0

    def f(tt, yy):
        nonlocal nfev
        nfev += 1
        return fun(tt, yy)

    fy = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(fy, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = f(t + h0, [v + h0 * d for v, d in zip(y, fy)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, fy, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    h_abs = min(100.0 * h0, h1, t_end - t)
    steps = []
    success, message = True, "The solver successfully reached the end of the interval."
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                success = False
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K = [fy]
            for a, c in zip(ode._DP_A, ode._DP_C):
                K.append(f(t + c * h, [y[i] + _left_sum(K[j][i] * a[j] for j in range(len(a))) * h
                                       for i in range(n)]))
            y_new = [y[i] + h * _left_sum(K[j][i] * ode._DP_B[j] for j in range(6))
                     for i in range(n)]
            f_new = f(t + h, y_new)
            K.append(f_new)
            err = _rms([_left_sum(K[j][i] * ode._DP_E[j] for j in range(7)) * h
                        / (atol + max(abs(y[i]), abs(y_new[i])) * rtol)
                        for i in range(n)])
            if err < 1.0:
                factor = (ode._MAX_FACTOR if err == 0.0
                          else min(ode._MAX_FACTOR, ode._SAFETY * err ** ode._ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(ode._MIN_FACTOR, ode._SAFETY * err ** ode._ERROR_EXPONENT)
            rejected = True
        if not success:
            break
        steps.append((t, t_new, h, y, K))
        t, y, fy = t_new, y_new, f_new
    t_eval = np.asarray(t_eval, dtype=float)
    t_eval = t_eval[:np.searchsorted(t_eval, t, side="right")]
    if not steps:
        return ode.OdeResult(y=np.empty((n, 0)), nfev=nfev, success=success, message=message)
    t_old, t_new, h, y_old, stages = (np.array(v) for v in zip(*steps))
    step = np.searchsorted(t_new, t_eval, side="left")
    x = (t_eval - t_old[step]) / h[step]
    powers = np.cumprod(np.tile(x, (4, 1)), axis=0)
    Q = np.einsum("skn,kj->snj", stages, ode._DP_P)[step]
    out = h[step] * np.einsum("mnj,jm->nm", Q, powers) + y_old[step].T
    return ode.OdeResult(y=out, nfev=nfev, success=success, message=message)


def _stage_loop(accel, *args, **kwargs):
    """The stage loop on u'' = accel(t, u, u'), as the system (u, u')."""
    return _stage_loop_solve_ivp(_first_order(accel), *args, **kwargs)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _stage_forms(monkeypatch, module, run):
    """run() with the written-out integrator and with the stage loop bound
    as module.solve_ivp; each gives run()'s result, the solver results and
    the number of calls of accel in each solve."""
    outs = {}
    for name, solver in (("written", ode.solve_ivp), ("loop", _stage_loop)):
        seen = []

        def recording(accel, *args, solver=solver, seen=seen, **kwargs):
            calls = []

            def counted(t, u, du):
                calls.append(t)
                return accel(t, u, du)

            seen.append((solver(counted, *args, **kwargs), len(calls)))
            return seen[-1][0]

        monkeypatch.setattr(module, "solve_ivp", recording)
        outs[name] = (run(), seen)
    return outs["written"], outs["loop"]


def _assert_same_solves(written, loop):
    assert len(written) == len(loop) > 0
    for (sol, calls), (ref, ref_calls) in zip(written, loop):
        assert _same_bits(sol.y, ref.y)
        assert sol.nfev == ref.nfev == calls == ref_calls
        assert sol.success == ref.success and sol.message == ref.message


SHOT_FAMILIES = {
    "Zero": PerturbationFamily(),
    "PowerLog": PerturbationFamily.from_json(
        {"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292, "b_prime": 0.682198}),
    # a blend from gamma > R' down past 1/R', whose near-zero branch the
    # shot reaches
    "PowerLog-blend": PerturbationFamily(kind="PowerLog", c=-0.3, a=0.4, b=0.7, g0=0.2,
                                         c_prime=1.5, a_prime=0.5, b_prime=1.2,
                                         R_prime=3.0),
}


@pytest.mark.parametrize("fam", SHOT_FAMILIES)
@pytest.mark.parametrize("gamma", [3.0, 4.0, 5.0])
def test_bubble_shot_is_bit_identical_to_the_stage_loop(monkeypatch, fam, gamma):
    for N in (1, 2):
        (ours, written), (ref, loop) = _stage_forms(
            monkeypatch, bubble, lambda: bubble.shoot_bubble(SHOT_FAMILIES[fam], N, gamma))
        _assert_same_solves(written, loop)
        assert _same_bits(ours.values, ref.values) and _same_bits(ours.derivs, ref.derivs)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_profile_ode_is_bit_identical_to_the_stage_loop(monkeypatch, i):
    r = np.geomspace(1e-6, profiles.R_MAX, 4000)
    (ours, written), (ref, loop) = _stage_forms(monkeypatch, profiles,
                                                lambda: profiles.ode_profile(i, r))
    _assert_same_solves(written, loop)
    assert all(_same_bits(a, b) for a, b in zip(ours, ref, strict=True))


@pytest.mark.parametrize("y0,accel", [
    ((1.0, 0.0), lambda t, u, du: -u),
    # u'' = 1 from u' = +0.0 on, -0.0 at u' = -0.0: the second stage's sum
    # -0.0 * a21 turns +0.0 by its leading 0, which moves u' off -0.0 (a
    # stage sum without it keeps u' at -0.0 through the first step)
    ((0.0, -0.0), lambda t, u, du: 1.0 if math.copysign(1.0, du) > 0 else -0.0),
], ids=["linear", "signed-zero"])
def test_written_out_stages_are_the_stage_loop(y0, accel):
    t_eval = np.linspace(0.0, 10.0, 57)
    ours_calls, ref_calls = [], []
    ours = ode.solve_ivp(lambda t, u, du: ours_calls.append(t) or accel(t, u, du),
                         (0.0, 10.0), y0, t_eval, 1e-8, 1e-10)
    ref = _stage_loop(lambda t, u, du: ref_calls.append(t) or accel(t, u, du), (0.0, 10.0),
                      y0, t_eval, 1e-8, 1e-10)
    _assert_same_solves([(ours, len(ours_calls))], [(ref, len(ref_calls))])
    assert ours_calls == ref_calls


def _counting(monkeypatch, module) -> list:
    """The evaluation count of each solve of module.solve_ivp, from now on."""
    counts = []

    def counting(*args, **kwargs):
        sol = ode.solve_ivp(*args, **kwargs)
        counts.append(sol.nfev)
        return sol

    monkeypatch.setattr(module, "solve_ivp", counting)
    return counts


# Work pinned with no timing noise: the evaluation counts of the default
# ladder's shots and of verify's "S1 quadrature vs ODE" row, as the
# n-component integrator took them before the integrator was written for
# u'' = accel alone.
@pytest.mark.parametrize("fam", ["Zero", "PowerLog"])
def test_the_default_ladder_shots_take_pinned_evaluation_counts(monkeypatch, fam):
    counts = _counting(monkeypatch, bubble)
    for gamma in (3.0, 4.0, 5.0):
        bubble.shoot_bubble(SHOT_FAMILIES[fam], 1, gamma)
    assert counts == [668, 872, 1088]


def test_verify_integrates_s1_in_a_pinned_evaluation_count(monkeypatch, tmp_path):
    counts = _counting(monkeypatch, profiles)
    assert cli.main(["verify", "--out", str(tmp_path), "--seed", "3"]) == 0
    assert counts == [1448]


def test_left_sum_adds_left_to_right_from_zero():
    # no compensation: 1e16 + 1 rounds back to 1e16 and the 1 is lost, where
    # math.fsum (and the builtin sum from Python 3.12 on) keeps it
    terms = [1e16, 1.0, -1e16]
    assert numerics.left_sum(terms) == 0.0 and math.fsum(terms) == 1.0
    assert numerics.left_sum(iter([0.1, 0.2, 0.3])) == (0.0 + 0.1 + 0.2) + 0.3
    # the start is the first operand: 0.0 + -0.0 is +0.0, and an empty sum 0.0
    assert math.copysign(1.0, numerics.left_sum([-0.0])) == 1.0
    assert type(numerics.left_sum([])) is float
    gam = np.array([2.0, 3.0])
    out = numerics.left_sum((gam**-k for k in range(3)), np.zeros_like(gam))
    assert _same_bits(out, ((np.zeros(2) + gam**0) + gam**-1) + gam**-2)


# -- Nelder-Mead against scipy --------------------------------------------------


@pytest.mark.parametrize("shape,width,height", [("UnitDisk", 1.0, 1.0)])
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
    # order n integrates degree 2n - 1 exactly on each panel, for every
    # tabulated n
    for n in sorted(numerics._HALF_RULES):
        coef = np.arange(1.0, 2 * n + 1.0)

        def poly(x, coef=coef):
            return np.polynomial.polynomial.polyval(x, coef)

        exact = np.polynomial.polynomial.polyval(
            2.0, np.polynomial.polynomial.polyint(coef)) - np.polynomial.polynomial.polyval(
            -1.0, np.polynomial.polynomial.polyint(coef))
        got = _gauss_legendre_integral(poly, [-1.0, 0.5, 2.0], n)
        assert got == pytest.approx(exact, rel=1e-14), n


def _newton_legendre(n: int) -> list:
    """(x, w) of the positive nodes of the n-node rule, ascending: Newton's
    method on P_n in the current mpmath precision, from Tricomi's first
    guess cos(pi (k - 1/4)/(n + 1/2)), and w = 2/((1 - x^2) P_n'(x)^2)."""
    out = []
    for k in range(n // 2, 0, -1):
        x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
        for _ in range(60):
            dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
            step = mpmath.legendre(n, x) / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** (-mpmath.mp.dps + 3):
                break
        dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
        out.append((x, 2 / ((1 - x * x) * dp * dp)))
    return out


@pytest.mark.parametrize("order", sorted(numerics._HALF_RULES))
def test_gauss_legendre_literals_are_correctly_rounded(order):
    # each tabulated node and weight is the double nearest its 40-digit
    # value, within 0.5 ulp; leggauss's weights were off by up to 58, 60,
    # 353 and 9230 ulp at orders 8, 12, 20 and 48
    with mpmath.workdps(40):
        ref = _newton_legendre(order)
        half = numerics._HALF_RULES[order]
        assert len(half) == len(ref) == order // 2
        for got, want in zip((v for pair in half for v in pair),
                             (v for pair in ref for v in pair)):
            assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(math.ulp(got)) / 2, (got, want)
    x, w = numerics._legendre_rule(order)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert x[order // 2:].tolist() == [p[0] for p in numerics._HALF_RULES[order]]


def test_gauss_legendre_refuses_an_untabulated_order():
    numerics._legendre_rule.cache_clear()
    for call in (lambda: numerics._legendre_rule(7),
                 lambda: numerics.gauss_legendre([0.0, 1.0], 7)):
        with pytest.raises(ValueError, match=r"\bno 7-node Gauss-Legendre rule"):
            call()


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


def test_gauss_legendre_builds_each_rule_once(monkeypatch, disk, fam0):
    # solve_profile asks for the 12-node rule and step1_testfun for the
    # 20-node rule, on every call; each is built once and kept
    built = []

    class Spy(dict):
        def __getitem__(self, order):
            built.append(order)
            return dict.__getitem__(self, order)

    monkeypatch.setattr(numerics, "_HALF_RULES", Spy(numerics._HALF_RULES))
    numerics._legendre_rule.cache_clear()
    try:
        for _ in range(2):
            profiles.solve_profile(1)
            variational.step1_testfun(disk, fam0, 0.01)
        assert sorted(built) == [12, 20]
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


def _li2_neg_where(x):
    """li2_neg's array path as both branches on every point, picked by
    np.where, with the Horner sum out of place."""
    def unit(u):
        acc = 0.0 * u
        for c in numerics._LI2_HORNER:
            acc = acc * u + c
        return -acc * u

    x = np.asarray(x, dtype=float)
    big = x > 1.0
    xb = np.where(big, x, 1.0)
    lx = np.log(xb)
    inverted = -math.pi ** 2 / 6.0 - 0.5 * lx * lx - unit(np.log1p(1.0 / xb))
    return np.where(big, inverted, unit(np.log1p(np.where(big, 0.0, x))))


@pytest.mark.parametrize("x", [
    np.array([0.0, 1.0, math.nextafter(1.0, 2.0), 0.5, 3.0, 1e-300, 1e12]),
    np.geomspace(1e-12, 1.0, 301),
    np.geomspace(math.nextafter(1.0, 2.0), 1e12, 301),
    np.empty(0),
    np.geomspace(1e-8, 1e8, 400).reshape(50, 8)[::-1],
], ids=["mixed", "all-small", "all-large", "empty", "panels"])
def test_li2_branches_on_their_own_points_are_the_where_form(x):
    assert _same_bits(numerics.li2_neg(x), _li2_neg_where(x))


# -- profiles on floats and arrays ---------------------------------------------


def test_profile_float_path_is_the_array_path():
    prof = profiles.solve_profile(1)
    r = np.concatenate([np.geomspace(1e-9, 1e5, 5000), profiles.csv_grid(2000.0),
                        [1e18, 1e300]])
    for fn in (prof, prof.derivative):
        assert _same_bits(np.array([fn(v) for v in r.tolist()]), fn(r))
