"""Tests for the constrained-maximization solvers and test functions."""

import math

import numpy as np
import pytest

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
from mtcrit.variational import _load_weights, _make_starts, _project, _stiffness, make_grid

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


def test_eigen_start_energy():
    r = make_grid()
    alpha = 4.0 * math.pi
    starts = dict(_make_starts(r, alpha, ("eigen", "flat", "bubble")))
    for name, u0 in starts.items():
        e = GridFunction(r, u0).energy()
        assert e <= alpha * (1.0 + 1e-9), name
    # The eigen start saturates the ball exactly.
    assert GridFunction(r, starts["eigen"]).energy() == pytest.approx(alpha, rel=1e-9)


def test_project_shrinks_energy():
    r = make_grid(400)
    ab = _stiffness(r)
    u = 3.0 * (1.0 - r * r)
    alpha = 1.0
    v = _project(u, ab, alpha)
    assert GridFunction(r, v).energy() == pytest.approx(alpha, rel=1e-12)
    # Already-feasible input is returned unchanged.
    w = _project(v, ab, 10.0)
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
    # The maximizer beats every individual start's projected profile.
    assert run.iterations > 0


def test_alpha_validation(fam0):
    with pytest.raises(ValueError):
        solve_subcritical(fam0, 1, 4.0 * math.pi)
    with pytest.raises(ValueError):
        solve_subcritical(fam0, 1, 0.0)


def test_unknown_start(fam0):
    with pytest.raises(ValueError):
        solve_subcritical(fam0, 1, 1.0, starts=("nope",))


def test_lambda_g_zero_family(lambda_g0):
    # For g = 0 the maximizer is the first eigenfunction scaled to the
    # ball boundary: Lambda_0 = 4 pi / lambda_1.
    target = 4.0 * math.pi / 5.783185962946783
    assert lambda_g0["lambda_g"] == pytest.approx(target, rel=0.01)
    assert lambda_g0["lambda_g"] < math.pi * math.e
    assert lambda_g0["gap"] < 0.05


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


# Golden values of the ascent at the default grid.  The path is pinned float
# for float since Psi_1 is evaluated in closed form as (1 + g) e^{t^2} and the
# Hermite blend by Horner's rule: `J` is compared with `==`.  Those two
# rewrites moved `J` in its last digits, so it must also stay within 2e-15
# relative of the values recorded when value and gradient were first fused
# into one evaluation (`J_fused`); iterations, start and Lambda_g did not move.
@pytest.mark.parametrize("fam,J,J_fused,start,lam_g", [
    (PerturbationFamily(), 9.504416349231686, 9.504416349231679, "eigen",
     2.1729163833204144),
    (POWER_LOG, 9.58674746825234, 9.586747468252343, "flat", 2.2139101101297127),
], ids=["Zero", "PowerLog"])
def test_ascent_golden_values(fam, J, J_fused, start, lam_g):
    run = solve_subcritical(fam, 1, 0.9 * 4.0 * math.pi)
    assert run.J_value == J
    assert run.J_value == pytest.approx(J_fused, rel=2e-15, abs=0.0)
    assert run.iterations == 127
    assert run.start == start
    rep = lambda_g_report(fam)
    assert rep["lambda_g"] == lam_g
    assert set(rep) == {"lambda_g", "gap"}


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
