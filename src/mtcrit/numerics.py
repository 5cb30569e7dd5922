"""Small numerical kernels, so that the toolkit needs NumPy alone.

* `solve_ivp`: Dormand-Prince 5(4) on Python floats, with the initial
  step, step control and 4th-order dense output of scipy's RK45
  (Hairer, Norsett, Wanner, Solving ODEs I, II.4; Shampine, Math. Comp.
  1986 for the dense output).
* `minimize`: the Nelder-Mead simplex search of scipy.optimize.minimize
  (non-adaptive coefficients, the same initial simplex and stop rule).
* `gauss_legendre`: the nodes and weights of composite Gauss-Legendre
  quadrature, one row of each per panel.
* `series_tail`, `power_term` and `term_over_tail`: sum_{k>N} T^k/k!,
  T^k/k! and the ratio of the two, for integer orders and
  0 <= T <= EXP_BUDGET; `series_tail` and `power_term` on floats and
  arrays, the ratio on floats.
* `li2_neg`: the dilogarithm Li2(-x), x >= 0.
* `CubicHermite`: piecewise cubic Hermite interpolation and its slope.
* `left_sum`: a sum added left to right, the one float reduction of the
  toolkit in place of the builtin `sum`.

A kernel takes a float or an array with at least one axis; callers make
any other number with no axes a float first.

tests/test_numerics.py holds each kernel to scipy or mpmath.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "CHUNK",
    "EXP_BUDGET",
    "OdeResult",
    "MinimizeResult",
    "solve_ivp",
    "minimize",
    "gauss_legendre",
    "power_term",
    "series_tail",
    "term_over_tail",
    "li2_neg",
    "CubicHermite",
    "left_sum",
]

_EPS = sys.float_info.epsilon
# Largest number of quadrature nodes handed to an integrand at once, so that
# its temporaries stay small and warm.
CHUNK = 8192


# -- Dormand-Prince 5(4) ------------------------------------------------------

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# error estimate: fifth-order minus embedded fourth-order weights, over all
# seven stages (the seventh is f at the new point)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# the tableau by name, for the written-out stages of `solve_ivp`
_C2, _C3, _C4, _C5, _C6 = _DP_C
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = _DP_A
_B1, _B2, _B3, _B4, _B5, _B6 = _DP_B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E
# dense output: y(t_old + x h) = y_old + h sum_k K_k (P_k . (x, x^2, x^3, x^4))
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 5.0


@dataclass
class OdeResult:
    """y[i, j] is component i at t_eval[j]; on failure, only the t_eval
    points the integration reached are filled in."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str


def left_sum(terms, start=0.0):
    """start + terms[0] + terms[1] + ..., added left to right.

    This is what the builtin `sum` gives on floats up to Python 3.11; from
    3.12 on `sum` compensates float additions, so its result depends on
    the interpreter and the toolkit does not call it."""
    total = start
    for term in terms:
        total = total + term
    return total


def _rms(v) -> float:
    return math.sqrt(left_sum([x * x for x in v])) / len(v) ** 0.5


def solve_ivp(fun, t_span, y0, t_eval, rtol: float, atol: float) -> OdeResult:
    """Integrate y' = fun(t, y) forward over t_span, reporting y at the
    increasing points t_eval inside it.

    fun takes a float t and a list of floats y and returns a sequence of
    floats.  Steps, their acceptance and the first step size follow scipy's
    RK45; each accepted step keeps its stages, and y at t_eval comes from
    the dense output of the step that covers it (a point on a step's end
    belongs to that step).  A t_eval outside t_span, or not increasing, is
    refused with ValueError (scipy's messages) before fun is called.

    Each stage is written out: its sum is formed from 0.0 on, term by term
    left to right in the order of the tableau, zero weights included.  The
    error norm sums its squares by `left_sum`, the same left fold.  So no
    float sum depends on the Python version.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t:
        raise ValueError("t_span must be increasing")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t) or np.any(t_eval > t_end):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    y = [float(v) for v in y0]
    n = len(y)

    fy = fun(t, y)
    # initial step (Hairer-Norsett-Wanner II.4, as scipy's select_initial_step)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(fy, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = fun(t + h0, [v + h0 * d for v, d in zip(y, fy)])
    nfev = 2
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, fy, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    h_abs = min(100.0 * h0, h1, t_end - t)

    steps = []  # (t_old, t_new, h, y_old, stages) of each accepted step
    success, message = True, "The solver successfully reached the end of the interval."
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: scipy's RK45 would loop forever
                success = False
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            k1 = fy
            k2 = fun(t + _C2 * h, [v + (0.0 + s1 * _A21) * h for v, s1 in zip(y, k1)])
            k3 = fun(t + _C3 * h, [v + (0.0 + s1 * _A31 + s2 * _A32) * h
                                   for v, s1, s2 in zip(y, k1, k2)])
            k4 = fun(t + _C4 * h, [v + (0.0 + s1 * _A41 + s2 * _A42 + s3 * _A43) * h
                                   for v, s1, s2, s3 in zip(y, k1, k2, k3)])
            k5 = fun(t + _C5 * h, [v + (0.0 + s1 * _A51 + s2 * _A52 + s3 * _A53
                                        + s4 * _A54) * h
                                   for v, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + _C6 * h, [v + (0.0 + s1 * _A61 + s2 * _A62 + s3 * _A63
                                        + s4 * _A64 + s5 * _A65) * h
                                   for v, s1, s2, s3, s4, s5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (0.0 + s1 * _B1 + s2 * _B2 + s3 * _B3 + s4 * _B4 + s5 * _B5
                              + s6 * _B6)
                     for v, s1, s2, s3, s4, s5, s6 in zip(y, k1, k2, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            nfev += 6
            err = _rms([(0.0 + s1 * _E1 + s2 * _E2 + s3 * _E3 + s4 * _E4 + s5 * _E5
                         + s6 * _E6 + s7 * _E7) * h / (atol + max(abs(v), abs(w)) * rtol)
                        for v, w, s1, s2, s3, s4, s5, s6, s7
                        in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)])
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if not success:
            break
        steps.append((t, t_new, h, y, (k1, k2, k3, k4, k5, k6, k7)))
        t, y, fy = t_new, y_new, k7

    t_eval = t_eval[:np.searchsorted(t_eval, t, side="right")]
    if not steps:
        return OdeResult(y=np.empty((n, 0)), nfev=nfev, success=success, message=message)
    t_old, t_new, h, y_old, stages = (np.array(v) for v in zip(*steps))
    step = np.searchsorted(t_new, t_eval, side="left")
    x = (t_eval - t_old[step]) / h[step]
    powers = np.cumprod(np.tile(x, (4, 1)), axis=0)                # (4, m)
    Q = np.einsum("skn,kj->snj", stages, _DP_P)[step]              # (m, n, 4)
    out = h[step] * np.einsum("mnj,jm->nm", Q, powers) + y_old[step].T
    return OdeResult(y=out, nfev=nfev, success=success, message=message)


# -- Nelder-Mead ----------------------------------------------------------------


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


def minimize(fun, x0, xatol: float, fatol: float, maxiter: int) -> MinimizeResult:
    """Minimise fun by the Nelder-Mead simplex search (reflection 1,
    expansion 2, contraction 1/2, shrink 1/2).

    The first simplex is x0 and, for each coordinate k, x0 with x_k scaled
    by 1.05 (or set to 0.00025 if it is 0).  The search stops once the
    simplex spans at most xatol in every coordinate and its values at most
    fatol, or after maxiter iterations; success is False in the last case.
    Each call of fun gets a copy of the point.  The steps and their order
    are those of scipy.optimize.minimize(method="Nelder-Mead").
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(np.copy(x)))

    fsim = np.array([f(p) for p in sim])
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    it = 1
    while it < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        it += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return MinimizeResult(x=sim[0], fun=float(np.min(fsim)), nit=it, nfev=nfev,
                          success=it < maxiter)


# -- Gauss-Legendre -------------------------------------------------------------


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(order), built once per order and read-only."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule with `order` Gauss-Legendre
    nodes on each panel [edges[i], edges[i+1]], each shaped (panels, order):
    the integral of f is the sum of weights * f(nodes)."""
    x, w = _legendre_rule(order)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (x + 1.0), half * w


# -- exponential series ---------------------------------------------------------

# the exponent budget: up to T = EXP_BUDGET, e^T and every T^k/k! <= e^T are doubles
EXP_BUDGET = 700.0


def power_term(k: int, T):
    """T^k / k! for an integer k >= 0 and 0 <= T <= EXP_BUDGET (float or
    array): k products of T/j, each rounded once.  The loop stops once every
    product has underflowed to 0, which all later ones keep."""
    scalar = isinstance(T, float)
    p = 1.0 if scalar else np.ones_like(T)
    for j in range(1, k + 1):
        p = p * (T / j)
        if (p == 0.0) if scalar else not p.any():
            break
    return p


def _float_tail_sum(N: int, T: float) -> tuple[bool, float, int]:
    """(forward, s, k) for a float T >= 0; see `_tail_sum`.  The series
    stops once a term adds less than eps/2 relative; k is the index that
    stopped it."""
    forward = T < N + 1
    s = term = 1.0
    k = N + 1 if forward else N
    while term > 0.5 * _EPS * s:
        if forward:
            k += 1
            term *= T / k
        else:
            term *= k / T
            k -= 1
        s += term
    return forward, s, k


def _tail_sum(N: int, T):
    """(forward, s) for T >= 0 (float or array).

    Below T = N + 1 (forward) the terms T^k/k! fall from k = N + 1 on, and
    phi_N(T) = T^(N+1)/(N+1)! s with s = 1 + T/(N+2) + ....  From there on
    the head sum_{k<=N} T^k/k! = T^N/N! s with s = 1 + N/T + N(N-1)/T^2 +
    ..., and phi_N = e^T - head with head <= e^T/2 or so.  An array sums,
    by Horner's rule, as many terms on each side as its slowest point
    needs as a float.
    """
    if isinstance(T, float):
        return _float_tail_sum(N, T)[:2]
    forward = T < N + 1
    s = np.ones_like(T)
    if np.any(forward):
        x = T[forward]
        acc = np.ones_like(x)
        for k in range(_float_tail_sum(N, float(np.max(x)))[2], N + 1, -1):
            acc *= x
            acc /= k
            acc += 1.0
        s[forward] = acc
    if not np.all(forward):
        x = T[~forward]
        acc = np.ones_like(x)
        for k in range(_float_tail_sum(N, float(np.min(x)))[2] + 1, N + 1):
            acc *= k
            acc /= x
            acc += 1.0
        s[~forward] = acc
    return forward, s


def series_tail(N: int, T):
    """phi_N(T) = sum_{k>N} T^k/k! for an integer N >= 0 and
    0 <= T <= EXP_BUDGET (float or array): T^(N+1)/(N+1)! s forward,
    e^T - T^N/N! s otherwise (see `_tail_sum`)."""
    forward, s = _tail_sum(N, T)
    if isinstance(T, float):
        return power_term(N + 1, T) * s if forward else math.exp(T) - power_term(N, T) * s
    return np.where(forward, power_term(N + 1, T) * s, np.exp(T) - power_term(N, T) * s)


def term_over_tail(N: int, T: float) -> float:
    """(T^N/N!) / phi_N(T) for an integer N >= 0 and a float
    0 < T <= EXP_BUDGET: (N + 1)/(T s) forward, with no power of T formed
    at all, and p/(1 - p s) with p = e^-T T^N/N! otherwise (see
    `_tail_sum`)."""
    forward, s = _tail_sum(N, T)
    if forward:
        return (N + 1) / (T * s)
    p = math.exp(-T) * power_term(N, T)
    return p / (1.0 - p * s)


# -- dilogarithm ----------------------------------------------------------------

# Li2(w) = -sum_n b_n u^(n+1)/(n+1)! with u = log(1 - w), for -1 <= w <= 0
# (Landen's identity and the Bernoulli series of Li2(1 - e^-u); b_1 = +1/2):
# Horner coefficients of u^1 .. u^19, highest first.  With u <= log 2 the
# dropped u^21 term is below 3e-19 of the sum.
_BERNOULLI = {0: 1, 1: 1 / 2, 2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 8: -1 / 30, 10: 5 / 66,
              12: -691 / 2730, 14: 7 / 6, 16: -3617 / 510, 18: 43867 / 798}
_LI2_HORNER = tuple(_BERNOULLI.get(n, 0.0) / math.factorial(n + 1) for n in range(18, -1, -1))


def _li2_unit(u):
    """Li2(1 - e^u) for 0 <= u <= log 2, i.e. Li2(w) on [-1, 0]; an array
    is summed in place."""
    acc = 0.0 * u
    for c in _LI2_HORNER:
        acc *= u
        acc += c
    return -acc * u


def li2_neg(x):
    """Li2(-x) for x >= 0 (float or array), within a few ulp.

    On [0, 1] by the series in u = log(1 + x); beyond, by the inversion
    Li2(-x) = -pi^2/6 - log(x)^2/2 - Li2(-1/x).  An array evaluates each
    branch on its own points only.
    """
    if isinstance(x, float):
        if x <= 1.0:
            return _li2_unit(math.log1p(x))
        lx = math.log(x)
        return -math.pi ** 2 / 6.0 - 0.5 * lx * lx - _li2_unit(math.log1p(1.0 / x))
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > 1.0
    small = ~big
    out[small] = _li2_unit(np.log1p(x[small]))
    xb = x[big]
    lx = np.log(xb)
    out[big] = -math.pi ** 2 / 6.0 - 0.5 * lx * lx - _li2_unit(np.log1p(1.0 / xb))
    return out


# -- cubic Hermite interpolation ------------------------------------------------


class CubicHermite:
    """The piecewise cubic with values y and slopes dydx at the increasing
    knots x; outside [x[0], x[-1]] the end cubics are extended.  The
    coefficients and the evaluation order are those of scipy's
    CubicHermiteSpline."""

    def __init__(self, x, y, dydx):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        dx = np.diff(self.x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.c = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])

    def _local(self, r):
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self.x) - 2)
        return i, r - self.x[i]

    def __call__(self, r):
        i, s = self._local(r)
        c0, c1, c2, c3 = (c[i] for c in self.c)
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)

    def derivative(self, r):
        i, s = self._local(r)
        c0, c1, c2, _ = (c[i] for c in self.c)
        return c2 + (2 * c1) * s + (3 * c0) * (s * s)
