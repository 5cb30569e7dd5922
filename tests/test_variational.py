"""Tests for the constrained-maximization solvers and test functions."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mtcrit.variational as variational
from mtcrit import (
    FamilyKind,
    GridFunction,
    PerturbationFamily,
    eval_g,
    eval_psi_N,
    lambda_g_report,
    model_testfun_energy,
    solve_subcritical,
    step1_testfun,
)
from mtcrit.domain import DomainModel, Shape
from mtcrit.variational import _load_weights, _project, _start, _stiffness, make_grid

# Infinity-branch-only PowerLog family of the disk-verdict benchmark.
POWER_LOG = PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.256171,
                               a_prime=2.593292, b_prime=0.682198)


def test_functional_at_zero_is_area(fam0):
    # the discrete functional that solve_subcritical's value_grad evaluates
    r = make_grid()
    J = float(np.dot(_load_weights(r), eval_psi_N(fam0, 1, np.zeros_like(r))[0]))
    assert J == pytest.approx(math.pi, rel=1e-10)


def test_boundary_value_enforced():
    r = make_grid()
    with pytest.raises(ValueError):
        GridFunction(r, np.ones_like(r))


def test_start_saturates_ball():
    # Every ascent starts on the sphere E(u) = alpha, nonnegative and zero at r = 1.
    r = make_grid()
    for alpha in (0.5, 0.9 * 4.0 * math.pi, 4.0 * math.pi):
        u0 = _start(r, alpha)
        assert GridFunction(r, u0).energy() == pytest.approx(alpha, rel=1e-12)
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
    assert GridFunction(r, v).energy() == pytest.approx(alpha, rel=1e-12)
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


def test_lambda_g_non_disk(fam0):
    rect = DomainModel(shape=Shape.RECTANGLE, width=2.0, height=1.0)
    with pytest.raises(NotImplementedError):
        lambda_g_report(fam0, rect)


def test_step1_testfun(disk, fam0):
    out = step1_testfun(disk, fam0, 0.005)
    assert out["f_norm_sq"] == 4.0 * math.pi
    e2 = 0.005**2
    expected = 4.0 * math.pi * (math.log1p(1.0 / e2) - 1.0 / (1.0 + e2))
    assert out["norm_sq"] == pytest.approx(expected, rel=1e-14)
    assert out["J"] > math.pi + math.pi * math.e - 0.3
    with pytest.raises(ValueError):
        step1_testfun(disk, fam0, 0.5)
    with pytest.raises(NotImplementedError):
        step1_testfun(DomainModel(shape=Shape.RECTANGLE, width=2.0, height=1.0), fam0, 0.01)


def test_model_testfun_sanity(disk, fam0, data0, profiles):
    out = model_testfun_energy(disk, fam0, data0, profiles, 4.0)
    assert out["norm_sq"] == pytest.approx(4.0 * math.pi, rel=1e-4)
    assert out["S_int"] == pytest.approx(0.5, abs=1e-4)
    assert out["mu"] > 0.0
    # For g = 0 the profile brackets vanish against the stored asymptotes.
    assert abs(out["H_tilde"][0]) < 1e-3
    rel = abs(out["log_inv_mu2_truncated"] - out["log_inv_mu2_closed"])
    assert rel / abs(out["log_inv_mu2_closed"]) < 2e-3


def test_level_trend(fam0):
    # J(alpha) increases in alpha and stays below the concentration bound.
    vals = [solve_subcritical(fam0, 1, f * 4.0 * math.pi, n_grid=800).J_value
            for f in (0.5, 0.7, 0.9)]
    assert vals == sorted(vals)
    assert all(v - math.pi < math.pi * math.e + 0.6 for v in vals)


# Golden values of the conditional-gradient ascent at the default grid,
# pinned float for float: `J`, iterations and Lambda_g are compared with
# `==`.  Against the projected Barzilai-Borwein ascent it replaced (`J_bb`,
# 127 iterations, `lam_g_bb`), `J` may only rise and by at most 1e-11
# relative, the iterations must be fewer and Lambda_g must agree to 1e-12
# relative.
@pytest.mark.parametrize("fam,J,J_bb,iterations,lam_g,lam_g_bb", [
    (PerturbationFamily(), 9.504416349250366, 9.504416349231686, 70,
     2.1729163833204135, 2.1729163833204144),
    (POWER_LOG, 9.586747468271156, 9.58674746825234, 69,
     2.2139101101297127, 2.2139101101297127),
], ids=["Zero", "PowerLog"])
def test_ascent_golden_values(fam, J, J_bb, iterations, lam_g, lam_g_bb):
    run = solve_subcritical(fam, 1, 0.9 * 4.0 * math.pi)
    assert run.J_value == J
    assert J_bb <= run.J_value <= J_bb * (1.0 + 1e-11)
    assert run.iterations == iterations < 127
    rep = lambda_g_report(fam)
    assert rep["lambda_g"] == lam_g
    assert rep["lambda_g"] == pytest.approx(lam_g_bb, rel=1e-12, abs=0.0)
    assert set(rep) == {"lambda_g", "gap", "termination"}


def test_ascent_termination_reasons(monkeypatch, fam0):
    # "rtol" ends every ascent of the default ladder
    # (test_convex_runs_take_full_steps); here the other two are forced.
    r = make_grid(400)
    w = _load_weights(r)
    alpha = 0.5 * 4.0 * math.pi
    u0 = _start(r, alpha)

    def value_grad(u):
        psi, psi_p = eval_psi_N(fam0, 1, u)
        return float(np.dot(w, psi)), w * psi_p

    seen = []

    def never_rises(u):
        seen.append(u)
        return (1.0 if len(seen) == 1 else 0.0), value_grad(u)[1]

    *_, it, why = variational._ascend(never_rises, u0, r, alpha)
    assert (it, why, len(seen)) == (1, "no_ascent_step", 41)

    monkeypatch.setattr(variational, "_MAX_ITER", 3)
    *_, it, why = variational._ascend(value_grad, u0, r, alpha)
    assert (it, why) == (3, "max_iter")
    run = solve_subcritical(fam0, 1, alpha, n_grid=400)
    assert (run.iterations, run.termination) == (3, "max_iter")
    assert run.to_json()["termination"] == "max_iter"


@pytest.mark.parametrize("fam", [PerturbationFamily(), POWER_LOG], ids=["Zero", "PowerLog"])
def test_convex_runs_take_full_steps(monkeypatch, fam):
    # J is convex along these families' steps, so no conditional-gradient
    # step needs a halving: one evaluation per iteration plus one at the
    # start, and every ascent ends on "rtol".
    ascend = variational._ascend
    seen = []

    def counted(value_grad, *args):
        evals = 0

        def vg(u):
            nonlocal evals
            evals += 1
            return value_grad(u)

        out = ascend(vg, *args)
        seen.append((evals, out[3], out[4]))
        return out

    monkeypatch.setattr(variational, "_ascend", counted)
    for frac in (0.7, 0.8, 0.9, 0.95):  # the extremal default ladder
        solve_subcritical(fam, 1, frac * 4.0 * math.pi)
    assert len(seen) == 4
    assert all(evals == it + 1 and why == "rtol" for evals, it, why in seen), seen


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
