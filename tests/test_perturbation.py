"""Perturbation families, series tails, and decay data."""

import math
import re
import struct
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mtcrit import numerics, perturbation
from mtcrit.perturbation import EXP_BUDGET
from mtcrit import (
    ExponentBudgetError,
    FamilyKind,
    NonAdmissibleError,
    PerturbationFamily,
    asymptotic_data,
    eval_g,
    eval_H,
    eval_psi_N,
    phi_N,
    s0_explicit,
    xi,
)

EPS = sys.float_info.epsilon


def test_zero_family_is_zero():
    fam = PerturbationFamily()
    t = np.linspace(0.0, 50.0, 11)
    g, gp = eval_g(fam, t)
    assert np.all(g == 0.0) and np.all(gp == 0.0)
    assert float(np.max(np.abs(eval_H(fam, t[1:]) - 1.0))) == 0.0


def test_family_is_even():
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.5, a=1.0, b=0.0,
                             c_prime=-0.25, a_prime=2.0, b_prime=0.0)
    t = np.linspace(0.1, 30.0, 23)
    gp, _ = eval_g(fam, t)
    gm, _ = eval_g(fam, -t)
    np.testing.assert_allclose(gp, gm, rtol=0, atol=0)


def test_blend_is_c1_at_junctions():
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.5, a=1.0, b=0.0,
                             c_prime=-0.25, a_prime=2.0, b_prime=0.0, R_prime=10.0)
    for t_star in (1.0 / fam.R_prime, fam.R_prime):
        h = 1e-7
        g_lo, gp_lo = eval_g(fam, t_star - h)
        g_hi, gp_hi = eval_g(fam, t_star + h)
        assert abs(float(g_hi) - float(g_lo)) < 1e-5
        assert abs(float(gp_hi) - float(gp_lo)) < 1e-4


def test_non_admissible_raises():
    with pytest.raises(NonAdmissibleError):
        PerturbationFamily(kind=FamilyKind.POWER_LOG, g0=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"c_prime": 1.0, "a_prime": -0.5},           # a' < 0
    {"c_prime": 1.0, "a_prime": 0.0, "b_prime": 0.0},  # a'=0 needs b' > 0
    {"c": 1.0, "a": -1.0},
])
def test_exponent_set_validation(kwargs):
    with pytest.raises(ValueError):
        PerturbationFamily(kind=FamilyKind.POWER_LOG, **kwargs)


NUMERIC_FIELDS = ["c", "a", "b", "c_prime", "a_prime", "b_prime", "R_prime", "g0"]


@pytest.mark.parametrize("kind", list(FamilyKind))
@pytest.mark.parametrize("name", NUMERIC_FIELDS)
@pytest.mark.parametrize("value", [True, False, "1", None, [1], math.nan, math.inf, -math.inf],
                         ids=["true", "false", "string", "none", "list", "nan", "inf", "-inf"])
def test_numeric_fields_must_be_finite_real_numbers(kind, name, value):
    # a bool is an int to Python but no number in a config; a string, None
    # or a list used to end in a bare TypeError from a comparison
    with pytest.raises(ValueError, match=f"^{name} must be a finite number \\(got "):
        PerturbationFamily(kind=kind, **{name: value})


def test_numeric_fields_are_kept_as_floats():
    # a JSON integer R_prime = 10 used to reach the blend as an integer array,
    # which NumPy refuses to raise to a negative integer power
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=np.float64(1.0), a_prime=3,
                             b_prime=0.5, R_prime=10)
    assert fam == PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.0, a_prime=3.0,
                                     b_prime=0.5)
    assert all(type(getattr(fam, name)) is float for name in NUMERIC_FIELDS)


def test_json_round_trip():
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.1, a=2.0, b=1.0,
                             c_prime=-0.3, a_prime=1.5, b_prime=0.5, R_prime=8.0, g0=0.2)
    # from_json reads every key of the config's family object
    assert PerturbationFamily.from_json({
        "kind": "PowerLog", "c": 0.1, "a": 2.0, "b": 1.0, "c_prime": -0.3,
        "a_prime": 1.5, "b_prime": 0.5, "R_prime": 8.0, "g0": 0.2}) == fam


def test_phi_small_orders():
    for t in (0.3, 1.0, 7.5):
        assert phi_N(0, t) == pytest.approx(math.expm1(t), rel=1e-14)
        assert phi_N(1, t) == pytest.approx(math.expm1(t) - t, rel=1e-12)
    assert phi_N(3, 0.0) == 0.0


def test_log_phi_consistency():
    # the bubble scaling takes log phi_N from phi_N itself: within 1e-14
    # max(1, |log phi_N|) of mpmath wherever phi_N is a normal double
    # (measured: 2.5e-15 on 3000 random (N, T))
    for N, T in [(2, 5.0), (10, 40.0), (50, 200.0), (285, 9.0), (1, 1e-150), (0, 700.0)]:
        with mpmath.workdps(40):
            ref = mpmath.log(_phi_ref(N, mpmath.mpf(T)))
        assert abs(math.log(phi_N(N, T)) - ref) <= 1e-14 * max(1.0, abs(ref))


@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.01, max_value=50.0))
@example(N=30, t=0.01)
@settings(max_examples=60, deadline=None)
def test_phi_recurrence(N, t):
    # phi_N(t) = phi_{N+1}(t) + t^{N+1}/(N+1)!, written as a sum of two
    # positive terms: the difference form phi_N - t^{N+1}/(N+1)! cancels
    # most digits when t is small against N
    lhs = phi_N(N, t)
    rhs = phi_N(N + 1, t) + t ** (N + 1) / math.factorial(N + 1)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-290)


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_phi_positive_decreasing_in_N(N, t):
    assert 0.0 < phi_N(N, t) < phi_N(N - 1, t)


def test_psi_full_exponential_for_zero_family():
    fam = PerturbationFamily()
    u = np.linspace(0.0, 3.0, 13)
    psi, psi_p = eval_psi_N(fam, 1, u)
    np.testing.assert_allclose(psi, np.exp(u * u), rtol=1e-13)
    np.testing.assert_allclose(psi_p, 2.0 * u * np.exp(u * u), rtol=1e-13)


def test_xi_closed_form_n1():
    for gam in (2.0, 3.0, 5.0):
        assert xi(1, gam) == pytest.approx(1.0 / math.expm1(gam * gam), rel=1e-12)


def test_xi_validation():
    with pytest.raises(ValueError):
        xi(0, 3.0)
    with pytest.raises(ValueError):
        xi(1, -1.0)
    # gamma^2 = 702.25 is past the exponent budget, as for phi_N
    assert math.isfinite(xi(1, math.sqrt(EXP_BUDGET)))
    with pytest.raises(ExponentBudgetError):
        xi(1, 26.5)


def test_asymptotic_data_zero_family():
    data = asymptotic_data(PerturbationFamily())
    # A vanishes, B(gamma) = (1+g(0))/gamma, F(t) = t
    assert data.A_pieces == () and data.B_pieces == ((1.0, 1.0, 0.0),)
    assert float(data.A(5.0)) == 0.0
    assert float(data.B(5.0)) == pytest.approx(0.2, rel=1e-14)
    assert float(data.F(3.0)) == pytest.approx(3.0, rel=1e-14)



# The closed forms of A and B as written before they became pieces, kept as
# the reference for the pieces' evaluation.
def _reference_A(cp, ap, bp, gam):
    if ap > 0:
        return cp * ap * gam ** (-(ap + 2.0)) * np.log(gam) ** (-bp)
    return cp * bp * gam**-2.0 * np.log(gam) ** (-(bp + 1.0))


def _reference_B(c, a, b, g0, gam):
    return (1.0 + g0) / gam + 0.5 * c * (a + 1.0) * gam ** (-a) * np.log(gam) ** (-b)


REFERENCE_GAMMAS = [np.geomspace(1.01, 1e6, 97), 7.38905609893065, 1096.6331584284585]


@given(c=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), a=st.floats(0.0, 3.0),
       b=st.floats(0.1, 2.0), g0=st.one_of(st.just(0.0), st.floats(-0.5, 1.0)),
       cp=st.one_of(st.just(0.0), st.floats(-1.0, 2.0)),
       ap=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), bp=st.floats(0.1, 2.0),
       R=st.floats(1.5, 20.0))
@settings(max_examples=200, deadline=None)
def test_pieces_match_reference_closed_forms(c, a, b, g0, cp, ap, bp, R):
    try:
        fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=c, a=a, b=b, g0=g0,
                                 c_prime=cp, a_prime=ap, b_prime=bp, R_prime=R)
    except NonAdmissibleError:
        assume(False)
    data = asymptotic_data(fam)
    for gam in REFERENCE_GAMMAS:
        gam_arr = np.asarray(gam)
        A, B = data.A(gam), data.B(gam)
        assert np.array_equal(A, _reference_A(cp, ap, bp, gam_arr))
        B_ref = _reference_B(c, a, b, g0, gam_arr)
        if g0 == 0.0:
            assert np.array_equal(B, B_ref)
        else:
            # (1 + g0) gamma^-1 is rounded once more than (1 + g0) / gamma:
            # a few ulp of the two terms, which may cancel in the sum
            scale = (1.0 + g0) / gam_arr + np.abs(B_ref - (1.0 + g0) / gam_arr)
            assert np.all(np.abs(B - B_ref) <= 4.0 * np.finfo(float).eps * scale)


# -- Psi_1 in closed form ---------------------------------------------------

# A PowerLog family with both branches active; t in [0, sqrt(700)] samples
# its near-zero branch, the Hermite blend on [1/3, 3] and its infinity branch.
BLENDED = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=-0.3, a=0.4, b=0.7, g0=0.2,
                             c_prime=1.5, a_prime=0.5, b_prime=1.2, R_prime=3.0)
PSI_FAMILIES = [PerturbationFamily(), BLENDED]
T_MAX = math.sqrt(700.0)


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
def test_psi_1_needs_no_incomplete_gamma(monkeypatch, fam):
    # phi_N(T) = e^T P(N + 1, T), the regularized incomplete gamma, is the
    # series tail of numerics.series_tail; Psi_1 is e^T in closed form and
    # never reaches it, while N = 2 does
    def no_tail(*args, **kwargs):
        raise AssertionError("series_tail called while evaluating Psi_1")

    monkeypatch.setattr(perturbation, "series_tail", no_tail)
    t = np.linspace(0.0, T_MAX, 201)
    psi, dpsi = eval_psi_N(fam, 1, t)
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
    for s in (0.0, 0.5, 2.0, float(t[-1])):
        psi_s, dpsi_s = eval_psi_N(fam, 1, s)
        assert isinstance(psi_s, float) and isinstance(dpsi_s, float)
    for arg in (0.5, t):
        with pytest.raises(AssertionError, match="series_tail"):
            eval_psi_N(fam, 2, arg)


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
@given(t=st.floats(min_value=0.0, max_value=T_MAX, allow_subnormal=False))
@example(t=0.0)
@example(t=0.5)
@example(t=2.0)
@example(t=T_MAX)
@settings(max_examples=80, deadline=None)
def test_psi_1_matches_mpmath(fam, t):
    # Against (1 + g) e^T and (2 t (1 + g) + g') e^T in 40 digits, on the
    # same float g, g' and T: a few ulp, scaled by 1 + T.  Psi_1' is bounded
    # against the sum of its two terms' sizes, since g' may be negative.
    psi, dpsi = eval_psi_N(fam, 1, t)
    g, dg = eval_g(fam, t)
    T = t * t
    with mpmath.workdps(40):
        eT = mpmath.exp(mpmath.mpf(T))
        ref = (1 + mpmath.mpf(g)) * eT
        dref = (2 * mpmath.mpf(t) * (1 + mpmath.mpf(g)) + mpmath.mpf(dg)) * eT
        dscale = (abs(2 * mpmath.mpf(t) * (1 + mpmath.mpf(g))) + abs(mpmath.mpf(dg))) * eT
        bound = 4.0 * np.finfo(float).eps * (1.0 + T)
        assert abs(psi - ref) <= bound * ref
        assert abs(dpsi - dref) <= bound * dscale


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
@given(t=st.floats(min_value=0.0, max_value=T_MAX, allow_subnormal=False))
@example(t=1e-3)
@settings(max_examples=80, deadline=None)
def test_psi_1_and_psi_2_agree(fam, t):
    # phi_1(T) = phi_2(T) + T^2/2 joins the closed form N = 1 to the
    # incomplete-gamma path N >= 2; each side is a sum of positive terms
    # (g' may be negative, so Psi' is bounded against its terms' sizes).
    psi1, dpsi1 = eval_psi_N(fam, 1, t)
    psi2, dpsi2 = eval_psi_N(fam, 2, t)
    g, dg = eval_g(fam, t)
    T = t * t
    assert psi1 == pytest.approx(psi2 + (1.0 + g) * T * T / 2.0, rel=1e-13, abs=0.0)
    scale = (2.0 * t * (1.0 + g) + abs(dg)) * math.exp(T)
    rhs = dpsi2 + 2.0 * t**3 * (1.0 + g) + dg * t**4 / 2.0
    assert abs(dpsi1 - rhs) <= 1e-13 * scale


def _blend_power_form(fam, t):
    """The quintic blend and its derivative summed term by term in powers."""
    h0, h1, h2, c3, c4, c5 = fam._hermite
    L = 2.0 * math.log(fam.R_prime)
    x = (np.log(t) + 0.5 * L) / L
    terms = [h0, h1 * x, h2 * x**2, c3 * x**3, c4 * x**4, c5 * x**5]
    dterms = [h1, 2 * h2 * x, 3 * c3 * x**2, 4 * c4 * x**3, 5 * c5 * x**4]
    return (sum(terms), sum(dterms) / (L * t),
            sum(np.abs(v) for v in terms), sum(np.abs(v) for v in dterms) / (L * t))


@pytest.mark.parametrize("fam", [BLENDED, PerturbationFamily(
    kind=FamilyKind.POWER_LOG, c_prime=1.256171, a_prime=2.593292, b_prime=0.682198)],
    ids=["both-branches", "infinity-branch"])
def test_horner_blend_matches_power_form(fam):
    t = np.geomspace(1.0 / fam.R_prime, fam.R_prime, 403)[1:-1]
    g, dg = eval_g(fam, t)
    q, dq, q_scale, dq_scale = _blend_power_form(fam, t)
    assert np.all(np.abs(g - q) <= 1e-13 * q_scale)
    assert np.all(np.abs(dg - dq) <= 1e-13 * dq_scale)


# PowerLog families whose blends run from each kind of near-zero branch
# (c != 0 with g0 != 0, c = 0, b = 0) into each kind of infinity branch
BLEND_FAMILIES = [
    BLENDED,
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.256171, a_prime=2.593292,
                       b_prime=0.682198),
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.2, a_prime=0.8, b_prime=0.7),
    PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.5, a=1.0, b=0.0, c_prime=-0.25,
                       a_prime=2.0, b_prime=0.0),
]
_BLEND_SYSTEM = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
_BLEND_INVERSE = ((10, -4, Fraction(1, 2)), (-15, 7, -1), (6, -3, Fraction(1, 2)))


def _check_blend_tail(r):
    """Hold _blend_tail(r) to the exact solution, within 2 eps, and to
    np.linalg.solve, within 32 eps, of the scale |A^-1| |r| of each
    component's rounding."""
    got = np.array(perturbation._blend_tail(*r))
    scale = np.abs(np.array(_BLEND_INVERSE, dtype=float)) @ np.abs(r)
    exact = np.array([float(sum(m * Fraction(v) for m, v in zip(row, r)))
                      for row in _BLEND_INVERSE])
    assert np.all(np.abs(got - exact) <= 2.0 * EPS * scale)
    solved = np.linalg.solve(_BLEND_SYSTEM, np.array(r))
    assert np.all(np.abs(got - solved) <= 32.0 * EPS * scale)


# each r_i in [-1e6, 1e6], with no subnormal result: tiny values become 0
@given(st.lists(st.floats(-1e6, 1e6).map(lambda v: v if abs(v) > 1e-280 else 0.0),
                min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_blend_tail_solves_the_blend_system(r):
    # the exact inverse on floats, where np.linalg.solve's LU was: measured
    # within 1.0 eps of the exact solution and 18 eps of the LU solve, in
    # units of |A^-1| |r|
    _check_blend_tail(r)


def test_blend_tail_of_each_family_solves_the_blend_system(monkeypatch):
    # on the right-hand sides the families build: measured within 0.84 eps
    # of the exact solution and 10.8 eps of the LU solve
    seen = []
    real = perturbation._blend_tail
    with monkeypatch.context() as m:
        m.setattr(perturbation, "_blend_tail", lambda *r: seen.append(r) or real(*r))
        for fam in BLEND_FAMILIES:
            PerturbationFamily(**{name: getattr(fam, name) for name, _ in fam._FIELDS})
    assert len(seen) == len(BLEND_FAMILIES)
    for r in seen:
        _check_blend_tail(r)


def _blend_jet(fam, u):
    """The blend's value and first two derivatives in x = log t at the
    unit variable u, summed exactly from its coefficients and rounded
    once, with the sum of the terms' magnitudes."""
    coefs = [Fraction(c) for c in fam._hermite]
    L = Fraction(fam._log_span)
    out = []
    for n in range(3):
        terms = [c * Fraction(u) ** k for k, c in enumerate(coefs)]
        out.append((float(sum(terms) / L ** n), float(sum(map(abs, terms)) / L ** n)))
        coefs = [k * c for k, c in enumerate(coefs)][1:]
    return out


@pytest.mark.parametrize("fam", BLEND_FAMILIES, ids=["both-branches", "infinity-branch",
                                                     "infinity-branch-a'<1", "b=0"])
def test_blend_meets_each_branch_to_second_order_at_its_knot(fam):
    # value, slope and curvature in x = log t against the branches in
    # 30-digit mpmath.  The value and slope are held to 1e-14 of the blend's
    # term scale, as its coefficients are rounded; the curvature comes from
    # a central difference with step 1e-6 in t, so to 1e-9 (measured: at
    # most 4e-11 relative)
    near = lambda x: fam.g0 + fam.c * mpmath.exp((fam.a + 1) * x) * (-x) ** (-fam.b)
    far = lambda x: fam.c_prime * mpmath.exp(-fam.a_prime * x) * x ** (-fam.b_prime)
    log_r = mpmath.log(fam.R_prime)
    with mpmath.workdps(30):
        for u, branch, x in ((0, near, -log_r), (1, far, log_r)):
            for n, ((got, scale), tol) in enumerate(zip(_blend_jet(fam, u), (1e-14, 1e-14, 1e-9))):
                want = float(mpmath.diff(branch, x, n))
                assert abs(got - want) <= tol * max(scale, abs(want)), (u, n, got, want)


def _blend_nested(fam, t):
    """The blend by the nested Horner expression, written out here so that
    a change to the operations of `_hermite_eval` or their order shows."""
    h0, h1, h2, c3, c4, c5 = fam._hermite
    L = 2.0 * math.log(fam.R_prime)
    x = (np.log(t) + 0.5 * L) / L
    q = h0 + x * (h1 + x * (h2 + x * (c3 + x * (c4 + x * c5))))
    dqdx = h1 + x * (2.0 * h2 + x * (3.0 * c3 + x * (4.0 * c4 + x * (5.0 * c5))))
    return q, dqdx / (L * t)


@pytest.mark.parametrize("fam", [BLENDED, PerturbationFamily(
    kind=FamilyKind.POWER_LOG, c_prime=1.256171, a_prime=2.593292, b_prime=0.682198)],
    ids=["both-branches", "infinity-branch"])
@given(s=st.floats(min_value=-1.0, max_value=1.0))
@example(s=-1.0)
@example(s=0.0)
@example(s=1.0)
@settings(max_examples=100, deadline=None)
def test_inplace_horner_equals_nested_expression(fam, s):
    # Same operations in the same order: equal bit for bit, t = R'^s, on the
    # array blend and on the float evaluator's, at the points inside the blend
    t = fam.R_prime ** s
    grid = np.geomspace(1.0 / fam.R_prime, fam.R_prime, 97)
    for arg in (t, np.float64(t), np.array([t]), grid * fam.R_prime ** (s / 2.0)):
        q, dq = perturbation._hermite_eval(fam, arg)
        q_ref, dq_ref = _blend_nested(fam, arg)
        assert np.array_equal(q, q_ref) and np.array_equal(dq, dq_ref)
        assert np.shape(q) == np.shape(q_ref)
    for u in map(float, np.append(grid * fam.R_prime ** (s / 2.0), t)):
        if 1.0 / fam.R_prime < u < fam.R_prime:
            got = fam._g_float(u)
            assert all(type(v) is float for v in got)
            assert got == tuple(map(float, _blend_nested(fam, u)))


@given(g0=st.one_of(st.just(0.0), st.floats(-0.9, 2.0)), a=st.floats(0.0, 3.0),
       b=st.floats(0.1, 2.0), t=st.floats(min_value=1e-300, max_value=0.1))
# with c = 0, (a, b) is not checked; t**p would overflow here
@example(g0=0.3, a=-5.0, b=1.0, t=1e-300)
@settings(max_examples=100, deadline=None)
def test_zero_coefficient_branch_is_g0(g0, a, b, t):
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.0, a=a, b=b, g0=g0,
                             c_prime=0.7, a_prime=1.1, b_prime=0.4)
    g, dg = fam._g_zero_branch(t)
    assert type(g) is float and type(dg) is float
    assert g == g0 and dg == 0.0
    arr = np.array([t, 0.5 * t, 0.1])
    g, dg = fam._g_zero_branch(arr)
    assert np.array_equal(g, np.full_like(arr, g0))
    assert np.array_equal(dg, np.zeros_like(arr))


# -- the scalar path of eval_g and eval_psi_N --------------------------------

R = BLENDED.R_prime


def _term_sizes(fam, t):
    """Sizes of the terms that g(t) and g'(t) sum on the branch of t."""
    if fam.kind is FamilyKind.ZERO or t == 0.0:
        return abs(fam.g0), 0.0
    if t <= 1.0 / fam.R_prime:
        p, L = fam.a + 1.0, math.log(1.0 / t)
        lead = abs(fam.c) * t ** (p - 1.0)
        return (abs(fam.g0) + lead * t * L ** -fam.b,
                lead * (p * L ** -fam.b + abs(fam.b) * L ** (-fam.b - 1.0)))
    if t >= fam.R_prime:
        g, dg = fam._g_inf_branch(t)
        return abs(float(g)), abs(float(dg))
    _, _, q_scale, dq_scale = _blend_power_form(fam, t)
    return float(q_scale), float(dq_scale)


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
@given(t=st.one_of(st.floats(min_value=0.0, max_value=1.0 / R, allow_subnormal=False),
                   st.floats(min_value=1.0 / R, max_value=R),
                   st.floats(min_value=R, max_value=T_MAX)))
@example(t=0.0)
@example(t=1.0 / R)
@example(t=R)
@example(t=T_MAX)
@settings(max_examples=150, deadline=None)
def test_scalar_path_matches_array_path(fam, t):
    # A float takes plain comparisons and math.exp, an array masks and
    # np.exp; both evaluate the same branch functions, so they agree to a
    # few ulp of the terms each value sums.
    g, dg = eval_g(fam, t)
    g_arr, dg_arr = eval_g(fam, np.array([t]))
    psi, dpsi = eval_psi_N(fam, 1, t)
    psi_arr, dpsi_arr = eval_psi_N(fam, 1, np.array([t]))
    assert all(type(v) is float for v in (g, dg, psi, dpsi))
    g_size, dg_size = _term_sizes(fam, t)
    eT = math.exp(t * t)
    ulp4 = 4.0 * np.finfo(float).eps
    assert abs(g - g_arr[0]) <= ulp4 * g_size
    assert abs(dg - dg_arr[0]) <= ulp4 * dg_size
    assert abs(psi - psi_arr[0]) <= ulp4 * (1.0 + g_size) * eT
    assert abs(dpsi - dpsi_arr[0]) <= ulp4 * (2.0 * t * (1.0 + g_size) + dg_size) * eT


# g0 = -0.3 and c' = -0.65 pass the branch checks, but the blend between the
# knots 1/2.4 and 2.4 dips to about -1.23 near t = 0.84.
DIPPING = {"kind": "PowerLog", "c": -0.93, "a": 0.5, "b": 1.6, "g0": -0.3,
           "c_prime": -0.65, "a_prime": 1.6, "b_prime": 1.4, "R_prime": 2.4}


def test_dipping_blend_is_refused():
    with pytest.raises(NonAdmissibleError, match="Hermite blend"):
        PerturbationFamily(**DIPPING)


# Three families whose pieces pass the largest double where no sample of the
# g <= -1 check looked: log(1/t)^120 makes g(1e-200) nan, (log t)^120 makes
# (g, g') at 1e300 (inf, nan), and (log t)^-200 next to R' = 1.01 makes the
# blend's coefficients nan.  log(1/t)^107.8 is finite down to 1e-307 and
# passes the largest double only in the subnormals, where g(5e-324) is nan.
# None may warn on the way to its refusal.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs,piece", [
    ({"c": 1.0, "a": 1.0, "b": -120.0}, "near-zero branch is not finite"),
    ({"c_prime": 1.0, "a_prime": 1.0, "b_prime": -120.0}, "infinity branch is not finite"),
    ({"c_prime": 1.0, "a_prime": 1.0, "b_prime": 200.0, "R_prime": 1.01},
     "Hermite blend has a non-finite coefficient"),
    ({"c": 1.0, "a": 1.0, "b": -107.8}, "near-zero branch is not finite"),
], ids=["near-zero", "infinity", "blend", "near-zero-subnormal"])
def test_non_finite_families_are_refused(kwargs, piece):
    with pytest.raises(NonAdmissibleError, match=piece):
        PerturbationFamily(kind=FamilyKind.POWER_LOG, **kwargs)


@pytest.fixture
def dipping(monkeypatch):
    """DIPPING built with the admissibility check switched off, so that
    eval_g itself meets the dip."""
    monkeypatch.setattr(PerturbationFamily, "_check_admissible", lambda self: None)
    return PerturbationFamily(**DIPPING)


@pytest.mark.parametrize("make", [float, np.float64, np.array, lambda v: np.array([0.4, v])],
                         ids=["float", "float64", "0-d", "array"])
def test_scalar_and_array_refuse_alike(make, dipping):
    with pytest.raises(NonAdmissibleError):
        eval_g(dipping, make(0.8))
    with pytest.raises(NonAdmissibleError):
        eval_psi_N(dipping, 1, make(0.8))
    with pytest.raises(ExponentBudgetError):
        eval_psi_N(BLENDED, 1, make(-1.001 * math.sqrt(EXP_BUDGET)))


# -- the array path against a plain masked reference -----------------------


def _plain_g(fam, t):
    """(g, g') of an array by masks, each piece written out here and run on
    its own points only: what the array path of eval_g, which runs the blend
    on every point and the branches over it, must equal bit for bit."""
    t = np.abs(t)
    g, dg = np.zeros_like(t), np.zeros_like(t)
    if fam.kind is FamilyKind.ZERO:
        return g, dg
    R = fam.R_prime
    at0 = t == 0.0
    low = (t <= 1.0 / R) & ~at0
    high = t >= R
    mid = ~(low | high | at0)
    g[at0] = fam.g0
    tl, th = t[low], t[high]
    if fam.c == 0.0:
        g[low], dg[low] = fam.g0 + 0.0 * tl, 0.0 * tl
    else:
        p, L = fam.a + 1.0, np.log(1.0 / tl)
        g[low] = fam.g0 + fam.c * tl**p * L ** (-fam.b)
        dg[low] = fam.c * tl ** (p - 1.0) * (p * L ** (-fam.b) + fam.b * L ** (-fam.b - 1.0))
    ell = np.log(th)
    g[high] = fam.c_prime * th ** (-fam.a_prime) * ell ** (-fam.b_prime)
    dg[high] = (-fam.c_prime * th ** (-fam.a_prime - 1.0) * ell ** (-fam.b_prime - 1.0)
                * (fam.a_prime * ell + fam.b_prime))
    g[mid], dg[mid] = _blend_nested(fam, t[mid])
    return g, dg


def _plain_psi(fam, N, t):
    """Psi_N and Psi_N' by the formulas of eval_psi_N on _plain_g, with
    1 + g and g' kept for Zero too."""
    g, dg = _plain_g(fam, t)
    t = np.abs(t)
    T = t * t
    if N == 1:
        eT = np.exp(T)
        return (1.0 + g) * eT, (2.0 * t * (1.0 + g) + dg) * eT
    ph = phi_N(N, T)
    tH = t + t * g + dg / 2.0
    return ((1.0 + g) * (1.0 + T + ph),
            2.0 * tH * ph + 2.0 * t * (1.0 + numerics.power_term(N, T)) * (1.0 + g)
            + dg * (1.0 + T))


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
def test_array_path_equals_plain_masks_bit_for_bit(fam):
    # one array through every case: t = 0, both knots exactly and one float
    # inside each, points on each of the three pieces, and negative t
    R = fam.R_prime
    t = np.array([0.0, 1.0 / R, R, math.nextafter(1.0 / R, R), math.nextafter(R, 0.0),
                  1e-300, 0.05, 0.2, 0.6, 1.0, 2.1, 4.0, 9.5, 25.0,
                  -0.1, -1.0 / R, -1.7, -R, -12.0])
    g, dg = eval_g(fam, t)
    g_ref, dg_ref = _plain_g(fam, t)
    assert np.array_equal(g, g_ref) and np.array_equal(dg, dg_ref)
    for N in (1, 3):
        psi, dpsi = eval_psi_N(fam, N, t)
        psi_ref, dpsi_ref = _plain_psi(fam, N, t)
        assert np.array_equal(psi, psi_ref) and np.array_equal(dpsi, dpsi_ref), N


# -- the float path against its NumPy-scalar form ----------------------------


def _numpy_scalar_g(fam, t):
    """(g, g') at a float t > 0 of a PowerLog family with t and every log a
    NumPy scalar, each piece written out here: the float path computes this
    on Python floats, so a change of its operations or their order shows."""
    t = np.float64(t)
    if t <= 1.0 / fam.R_prime:
        if fam.c == 0.0:
            return fam.g0 + 0.0 * t, 0.0 * t
        p, L = fam.a + 1.0, np.log(1.0 / t)
        return (fam.g0 + fam.c * t**p * L ** (-fam.b),
                fam.c * t ** (p - 1.0) * (p * L ** (-fam.b) + fam.b * L ** (-fam.b - 1.0)))
    if t >= fam.R_prime:
        ell = np.log(t)
        return (fam.c_prime * t ** (-fam.a_prime) * ell ** (-fam.b_prime),
                -fam.c_prime * t ** (-fam.a_prime - 1.0) * ell ** (-fam.b_prime - 1.0)
                * (fam.a_prime * ell + fam.b_prime))
    return _blend_nested(fam, t)


FLOAT_PATH_FAMILIES = {
    "both-branches": BLENDED,
    "constant-near-zero": PerturbationFamily(kind=FamilyKind.POWER_LOG, g0=0.3, c_prime=-0.7,
                                             a_prime=0.3, b_prime=1.1, R_prime=5.0),
    "infinity-only": PerturbationFamily(kind=FamilyKind.POWER_LOG, c_prime=1.256171,
                                        a_prime=2.593292, b_prime=0.682198),
}


# floats t where math.log(t) (or, below 1/5, math.log(1/t)) and np.log
# round apart on an x86-64 host with AVX-512 (NumPy 2.4)
LOG_SPLITS = [0.14212958956789928, 0.1754404840982988, 0.32069666626412835,
              0.49388284691479994, 0.8030591086132346, 0.9876181561423292,
              1.0033059377500269, 1.206892877376344, 2.161932491586887, 4.18512072271823,
              4.631518410694437]


def _piece_points(fam, top):
    """About 200 floats on each piece of fam, (0, 1/R'], (1/R', R') and
    [R', top], and the LOG_SPLITS on it."""
    r = fam.R_prime
    t = np.concatenate([np.geomspace(1e-300, 1.0 / r, 200), np.geomspace(1.0 / r, r, 202)[1:-1],
                        np.geomspace(r, top, 200), LOG_SPLITS]).tolist()
    return {"near-zero": [v for v in t if v <= 1.0 / r],
            "blend": [v for v in t if 1.0 / r < v < r],
            "infinity": [v for v in t if r <= v <= top]}


def _as_floats(fam, t):
    return tuple(float(v) for v in _numpy_scalar_g(fam, t))


@pytest.mark.parametrize("fam", FLOAT_PATH_FAMILIES.values(), ids=FLOAT_PATH_FAMILIES)
@pytest.mark.parametrize("piece", ["near-zero", "blend", "infinity"])
def test_float_path_of_eval_g_is_its_numpy_scalar_form(fam, piece):
    for t in _piece_points(fam, 1e300)[piece]:
        got = eval_g(fam, t)
        assert all(type(v) is float for v in got)
        assert [_bits(v) for v in got] == [_bits(v) for v in _as_floats(fam, t)], t


@pytest.mark.parametrize("fam", FLOAT_PATH_FAMILIES.values(), ids=FLOAT_PATH_FAMILIES)
@pytest.mark.parametrize("piece", ["near-zero", "blend", "infinity"])
@pytest.mark.parametrize("N", [1, 2, 5])
def test_float_path_of_psi_N_is_its_numpy_scalar_form(monkeypatch, fam, piece, N):
    ts = _piece_points(fam, T_MAX)[piece]
    got = [eval_psi_N(fam, N, t) for t in ts]
    monkeypatch.setattr(perturbation, "eval_g", _as_floats)
    want = [eval_psi_N(fam, N, t) for t in ts]
    assert [tuple(map(_bits, v)) for v in got] == [tuple(map(_bits, v)) for v in want]


@pytest.mark.parametrize("kwargs,t", [
    ({"c": 1.0, "a": 1.0, "b": -120.0}, 1e-200),
    ({"c_prime": 1.0, "a_prime": 1.0, "b_prime": -120.0}, 1e300),
], ids=["near-zero", "infinity"])
def test_a_power_past_the_doubles_is_not_an_error_on_the_float_path(monkeypatch, kwargs, t):
    # log(1/t)^120 and (log t)^120 pass the largest double: the float path
    # runs the branch on a NumPy scalar, whose ** gives inf where Python's
    # raises OverflowError, and gives what an array gives.  Both families
    # are refused as not finite (test_non_finite_families_are_refused), so
    # they are built with the check off, as `dipping` is.
    monkeypatch.setattr(PerturbationFamily, "_check_admissible", lambda self: None)
    with np.errstate(over="ignore", invalid="ignore"):
        fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, **kwargs)
        got = eval_g(fam, t)
        g, dg = eval_g(fam, np.array([t]))
    assert not all(math.isfinite(v) for v in got)
    assert np.array_equal(got, [g[0], dg[0]], equal_nan=True)


# Near-zero branches that tend to g0 at 0, one growing in log(1/t) and one
# decaying; 1/t overflows below about 5.6e-309, at the first two points.
SUBNORMAL_FAMILIES = {"log-growing": {"c": 1.0, "a": 1.0, "b": -0.5},
                      "log-decaying": {"c": 1.0, "a": 0.0, "b": 0.5}}


def _near_zero_ref(kwargs, t):
    """g and g' of the near-zero branch at t in 40 digits."""
    c, a, b = kwargs["c"], kwargs["a"], kwargs["b"]
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        L, p = mpmath.log(1 / tm), a + 1.0
        return (float(c * tm**p * L**-b),
                float(c * tm**a * (p * L**-b + b * L**(-b - 1))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs", SUBNORMAL_FAMILIES.values(), ids=SUBNORMAL_FAMILIES)
@pytest.mark.parametrize("t", [5e-324, 1e-310, sys.float_info.min])
def test_near_zero_branch_is_finite_at_subnormal_t(kwargs, t):
    # log(1/t) is -log t where 1/t overflows, so g and g' stay finite and
    # match 40 digits to a few ulp, on floats and arrays; g' of the decaying
    # family is about 0.037 there, not 0
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, **kwargs)
    want = _near_zero_ref(kwargs, t)
    g, dg = eval_g(fam, np.array([t, 0.5]))
    for got in (eval_g(fam, t), (g[0], dg[0])):
        for v, ref in zip(got, want):
            assert abs(v - ref) <= 4.0 * math.ulp(ref)
    psi, dpsi = eval_psi_N(fam, 1, t)
    assert psi == 1.0 + want[0] and math.isfinite(dpsi)


@pytest.mark.parametrize("fn", [
    lambda N: eval_psi_N(BLENDED, N, 0.5),
    lambda N: xi(N, 3.0),
], ids=["eval_psi_N", "xi"])
@pytest.mark.parametrize("N", [True, 1.7, 1.0, "1", 0, -2])
def test_order_must_be_an_integer_at_least_1(fn, N):
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        fn(N)


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
def test_float_psi_goes_straight_to_the_float_evaluator(monkeypatch, fam):
    # A float t and a plain int N take the family's float evaluator alone:
    # no dispatch through eval_g, no order check and no array blend.  Every
    # other order is still refused by _check_order, with its message.
    ts = [0.0, 0.2, 1.0, 2.0, 5.0, 20.0]  # each piece of BLENDED, R' = 3
    want = {N: [eval_psi_N(fam, N, t) for t in ts] for N in (1, 2)}
    calls = []

    def spy(name):
        real = getattr(perturbation, name)
        monkeypatch.setattr(perturbation, name,
                            lambda *args: calls.append(name) or real(*args))

    for name in ("eval_g", "_check_order", "_hermite_eval"):
        spy(name)
    for N in (1, 2):
        got = [eval_psi_N(fam, N, t) for t in ts]
        assert got == want[N]
        assert all(type(v) is float for pair in got for v in pair)
    assert calls == []
    for N in (True, 0, 1.0, np.int64(0)):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer >= 1 (got {N!r})")):
            eval_psi_N(fam, N, 0.5)
    assert calls == ["_check_order"] * 4


@pytest.mark.parametrize("fn", [phi_N], ids=["phi_N"])
@pytest.mark.parametrize("N", [False, 0.5, 2.0, -1])
def test_series_order_must_be_an_integer_at_least_0(fn, N):
    with pytest.raises(ValueError, match="N must be an integer >= 0"):
        fn(N, 2.0)
    assert fn(np.int64(2), 2.0) == fn(2, 2.0)


# -- the series tail, xi and Psi_N against mpmath ----------------------------
#
# phi_N(T) = e^T P(N + 1, T) in 40 digits, for N in [0, 203] and T in
# [0, 700]: the range of `verify`'s AlgRelat and FormulaPhi rows (N <= 203,
# T <= 400) and of Psi_N below the exponent budget.  Bounds are 1e-13
# relative wherever phi_N is a normal double; below them phi_N is only
# checked to be below 1e-289.

SERIES_N = st.integers(min_value=0, max_value=203)
SERIES_T = st.floats(min_value=0.0, max_value=700.0)
SERIES_GRID_T = np.array([0.0, 1e-300, 1e-8, 0.5, 1.0, 2.0, 3.0, 19.0, 20.0, 21.0, 22.0,
                          50.0, 100.0, 150.0, 202.0, 203.0, 204.0, 205.0, 400.0, 699.0,
                          700.0])


def _phi_ref(N, T):
    return mpmath.exp(T) * mpmath.gammainc(N + 1, 0, T, regularized=True)


def _check_phi(N, T, got):
    with mpmath.workdps(40):
        ref = _phi_ref(N, mpmath.mpf(T))
        if ref >= sys.float_info.min:
            assert abs(got - ref) <= 1e-13 * ref
        else:
            assert 0.0 <= got <= 1e-289


@given(N=SERIES_N, T=SERIES_T)
@example(N=0, T=0.0)
@example(N=0, T=math.log(2.0))
@example(N=19, T=20.0)
@example(N=20, T=21.0)
@example(N=203, T=math.nextafter(204.0, 0.0))
@example(N=203, T=204.0)
@example(N=203, T=700.0)
@example(N=203, T=1e-300)
@settings(max_examples=300, deadline=None)
def test_phi_N_matches_mpmath_on_floats(N, T):
    got = phi_N(N, T)
    assert type(got) is float
    _check_phi(N, T, got)


@pytest.mark.parametrize("N", [0, 1, 2, 5, 19, 20, 21, 100, 202, 203])
def test_phi_N_matches_mpmath_on_arrays(N):
    got = phi_N(N, SERIES_GRID_T)
    for T, g in zip(SERIES_GRID_T, got):
        _check_phi(N, float(T), float(g))


@pytest.mark.parametrize("T", [800.0, math.nextafter(EXP_BUDGET, math.inf),
                               np.array([1.0, 800.0])], ids=["800", "next-float", "array"])
def test_phi_N_refuses_T_past_the_budget(T):
    with pytest.raises(ExponentBudgetError):
        phi_N(2000, T)
    with pytest.raises(ExponentBudgetError):
        phi_N(0, T)
    assert math.isfinite(phi_N(2000, EXP_BUDGET)) and math.isfinite(phi_N(0, EXP_BUDGET))


# -- one scalar path ----------------------------------------------------------
#
# An argument with no axes takes the float path, whatever its type: an int
# (where the value is integral), np.int64, np.float64 and a 0-d array each
# give Python floats, bit-identical to those of the float itself.

SCALAR_FORMS = {"int": int, "int64": np.int64, "float64": np.float64, "0-d": np.array}
SCALAR_CASES = {
    "eval_g-Zero": (lambda t: eval_g(PerturbationFamily(), t), [0.0, 2.0, 0.7]),
    # BLENDED: at 0, on its near-zero branch (t <= 1/3), on the blend and
    # on its infinity branch (t >= 3)
    "eval_g-PowerLog": (lambda t: eval_g(BLENDED, t), [0.0, 0.2, 1.0, 2.0, 0.7, 3.0, 5.0, 7.5]),
    "eval_H-Zero": (lambda t: eval_H(PerturbationFamily(), t), [1.0, 0.7]),
    "eval_H-PowerLog": (lambda t: eval_H(BLENDED, t), [0.2, 1.0, 2.0, 0.7, 5.0]),
    "eval_psi_N-1-Zero": (lambda t: eval_psi_N(PerturbationFamily(), 1, t), [0.0, 5.0, 0.7, 26.0]),
    "eval_psi_N-1-PowerLog": (lambda t: eval_psi_N(BLENDED, 1, t), [0.0, 0.2, 2.0, 5.0, 0.7]),
    "eval_psi_N-2-Zero": (lambda t: eval_psi_N(PerturbationFamily(), 2, t), [0.0, 5.0, 0.7]),
    "eval_psi_N-2-PowerLog": (lambda t: eval_psi_N(BLENDED, 2, t), [0.0, 0.2, 2.0, 5.0, 0.7]),
    "phi_N-0": (lambda T: phi_N(0, T), [0.0, 25.0, 0.7, 700.0]),
    "phi_N-5": (lambda T: phi_N(5, T), [0.0, 3.0, 40.0, 0.7]),
    "s0_explicit": (s0_explicit, [0.0, 1.0, 5.0, 0.3, 2000.0]),
}


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("form", SCALAR_FORMS)
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_every_number_with_no_axes_takes_the_float_path(case, form):
    fn, values = SCALAR_CASES[case]
    for v in values:
        if form in ("int", "int64") and not v.is_integer():
            continue
        got, want = fn(SCALAR_FORMS[form](v)), fn(v)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        for x, y in zip(got, want, strict=True):
            assert type(x) is float and type(y) is float, (v, type(x), type(y))
            assert _bits(x) == _bits(y), (v, x, y)


@given(N=st.integers(min_value=1, max_value=204),
       T=st.floats(min_value=1e-6, max_value=700.0))
@example(N=1, T=700.0)
@example(N=21, T=20.0)
@example(N=204, T=203.0)
@settings(max_examples=200, deadline=None)
def test_xi_matches_mpmath(N, T):
    # xi squares its float gamma; the reference takes that same rounded
    # square, so the bound measures xi and not the rounding of gamma^2
    gamma = math.sqrt(T)
    T_used = gamma * gamma
    with mpmath.workdps(40):
        Tm = mpmath.mpf(T_used)
        ref = Tm ** (N - 1) / (_phi_ref(N - 1, Tm) * mpmath.factorial(N - 1))
        assert abs(xi(N, gamma) - ref) <= 1e-13 * ref


def _psi_ref(fam, N, t):
    """Psi_N, Psi_N' and the sum of the sizes of Psi_N''s terms, in 40
    digits, on the float g, g' and T = t * t the implementation uses."""
    g, dg = eval_g(fam, t)
    with mpmath.workdps(40):
        tm, T = mpmath.mpf(t), mpmath.mpf(t * t)
        g, dg = mpmath.mpf(g), mpmath.mpf(dg)
        ph = _phi_ref(N, T)
        psi = (1 + g) * (1 + T + ph)
        terms = [2 * (tm * (1 + g) + dg / 2) * ph, 2 * tm * (1 + T ** N / mpmath.factorial(N)) * (1 + g),
                 dg * (1 + T)]
        return psi, sum(terms), sum(abs(x) for x in terms)


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
@given(N=st.integers(min_value=2, max_value=203),
       t=st.floats(min_value=0.0, max_value=T_MAX, allow_subnormal=False))
@example(N=2, t=0.0)
@example(N=2, t=3.0)
@example(N=203, t=T_MAX)
@settings(max_examples=100, deadline=None)
def test_psi_N_matches_mpmath(fam, N, t):
    # Psi_N to 1e-13 relative; Psi_N' to 1e-13 of its terms' sizes, since
    # g' may be negative.  A float t gives Python floats
    psi, dpsi = eval_psi_N(fam, N, t)
    assert type(psi) is float and type(dpsi) is float
    ref, dref, dscale = _psi_ref(fam, N, t)
    assert abs(psi - ref) <= 1e-13 * ref
    assert abs(dpsi - dref) <= 1e-13 * dscale


@pytest.mark.parametrize("fam", PSI_FAMILIES, ids=["Zero", "PowerLog"])
@pytest.mark.parametrize("N", [2, 3, 20, 203])
def test_psi_N_matches_mpmath_on_arrays(fam, N):
    t = np.sqrt(SERIES_GRID_T)
    psi, dpsi = eval_psi_N(fam, N, t)
    for ti, p, dp in zip(t, psi, dpsi):
        ref, dref, dscale = _psi_ref(fam, N, float(ti))
        assert abs(p - ref) <= 1e-13 * ref
        assert abs(dp - dref) <= 1e-13 * dscale


def test_power_term_stops_once_every_product_underflows():
    # T = 0 underflows at the first product and T = 676 near k = 1900; every
    # product after the last underflow is 0, so stopping there changes no bit
    T = np.concatenate([[0.0], np.linspace(1e-3, 676.0, 399)])
    for k in (2, 3, 10, 50, 200, 10**3, 10**4):
        plain = np.ones_like(T)
        for j in range(1, k + 1):
            plain = plain * (T / j)
        assert numerics.power_term(k, T).tobytes() == plain.tobytes()
    # all N products take about 0.7 s on 2 vCPUs, the stopped loop about 0.04 s
    t = np.sqrt(T)
    start = time.perf_counter()
    eval_psi_N(PerturbationFamily(), 10**5, t)
    assert time.perf_counter() - start < 0.5


# -- the blend knots ----------------------------------------------------------


@given(c=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), a=st.floats(0.0, 3.0),
       b=st.floats(0.1, 2.0), g0=st.one_of(st.just(0.0), st.floats(-0.5, 1.0)),
       cp=st.one_of(st.just(0.0), st.floats(-1.0, 2.0)),
       ap=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), bp=st.floats(0.1, 2.0),
       log_R=st.floats(math.log(1.01), math.log(1000.0)))
@example(c=0.5, a=1.0, b=0.1, g0=0.0, cp=-0.25, ap=2.0, bp=0.1, log_R=math.log(10.0))
@settings(max_examples=300, deadline=None)
def test_eval_g_is_c1_across_both_knots(c, a, b, g0, cp, ap, bp, log_R):
    # At t* = 1/R' and t* = R', eval_g takes the branch at t* and the quintic
    # blend one float inside.  The blend matches the branch's value and slope
    # there, so the two sides differ by the rounding of the blend's sums:
    # |dg| <= 16 eps sum|h_k| and |dg'| <= 16 eps sum k|h_k| / (2 log R' t*),
    # h_k its coefficients (measured worst: 1.7 and 2.9 eps, 20000 families),
    # plus 1e-300 for coefficients in the subnormal range, where a bound
    # relative to them underflows.  Extends test_blend_is_c1_at_junctions to
    # random admissible families.
    try:
        fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=c, a=a, b=b, g0=g0,
                                 c_prime=cp, a_prime=ap, b_prime=bp,
                                 R_prime=math.exp(log_R))
    except NonAdmissibleError:
        assume(False)
    R_prime = fam.R_prime
    eps = np.finfo(float).eps
    g_scale = sum(abs(h) for h in fam._hermite)
    dg_scale = sum(k * abs(h) for k, h in enumerate(fam._hermite)) / (2.0 * math.log(R_prime))
    for t_star, inward in ((1.0 / R_prime, math.inf), (R_prime, 0.0)):
        g_branch, dg_branch = eval_g(fam, t_star)
        g_blend, dg_blend = eval_g(fam, math.nextafter(t_star, inward))
        assert abs(g_branch - g_blend) <= 16.0 * eps * g_scale + 1e-300
        assert abs(dg_branch - dg_blend) <= 16.0 * eps * dg_scale / t_star + 1e-300
