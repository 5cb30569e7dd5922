"""Perturbation families, series tails, and decay data."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mtcrit import perturbation
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
    log_phi_N,
    phi_N,
    xi,
)


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


def test_json_round_trip():
    fam = PerturbationFamily(kind=FamilyKind.POWER_LOG, c=0.1, a=2.0, b=1.0,
                             c_prime=-0.3, a_prime=1.5, b_prime=0.5, g0=0.2)
    assert PerturbationFamily.from_json(fam.to_json()) == fam


def test_phi_small_orders():
    for t in (0.3, 1.0, 7.5):
        assert phi_N(0, t) == pytest.approx(math.expm1(t), rel=1e-14)
        assert phi_N(1, t) == pytest.approx(math.expm1(t) - t, rel=1e-12)
    assert phi_N(3, 0.0) == 0.0


def test_log_phi_consistency():
    for N, t in [(2, 5.0), (10, 40.0), (50, 200.0)]:
        assert math.log(phi_N(N, t)) == pytest.approx(log_phi_N(N, t), rel=1e-12)


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
    def no_gammainc(*args, **kwargs):
        raise AssertionError("gammainc called while evaluating Psi_1")

    monkeypatch.setattr(perturbation, "gammainc", no_gammainc)
    t = np.linspace(0.0, T_MAX, 201)
    psi, dpsi = eval_psi_N(fam, 1, t)
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
    for s in (0.0, 0.5, 2.0, float(t[-1])):
        psi_s, dpsi_s = eval_psi_N(fam, 1, s)
        assert isinstance(psi_s, float) and isinstance(dpsi_s, float)


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


@pytest.mark.parametrize("fn", [
    lambda N: eval_psi_N(BLENDED, N, 0.5),
    lambda N: xi(N, 3.0),
], ids=["eval_psi_N", "xi"])
@pytest.mark.parametrize("N", [True, 1.7, 1.0, "1", 0, -2])
def test_order_must_be_an_integer_at_least_1(fn, N):
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        fn(N)


@pytest.mark.parametrize("fn", [phi_N, log_phi_N], ids=["phi_N", "log_phi_N"])
@pytest.mark.parametrize("N", [False, 0.5, 2.0, -1])
def test_series_order_must_be_an_integer_at_least_0(fn, N):
    with pytest.raises(ValueError, match="N must be an integer >= 0"):
        fn(N, 2.0)
    assert fn(np.int64(2), 2.0) == fn(2, 2.0)
