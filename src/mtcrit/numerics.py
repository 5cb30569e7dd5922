"""Small numerical kernels, so that the toolkit needs NumPy alone.

* `minimize`: the Nelder-Mead simplex search of scipy.optimize.minimize
  (non-adaptive coefficients, the same initial simplex and stop rule).
* `gauss_legendre`: the nodes and weights of composite Gauss-Legendre
  quadrature, one row of each per panel, for the orders 8, 12, 20 and
  48, whose rules are held as correctly rounded literals (no
  eigenvalue solve, so no LAPACK call and no numpy.polynomial).
* `series_tail`, `power_term` and `term_over_tail`: sum_{k>N} T^k/k!,
  T^k/k! and the ratio of the two, for integer orders and
  0 <= T <= EXP_BUDGET; `series_tail` and `power_term` on floats and
  arrays, the ratio on floats.
* `li2_neg`: the dilogarithm Li2(-x), x >= 0.
* `left_sum`: a sum added left to right, the one float reduction of the
  toolkit in place of the builtin `sum`.

A kernel takes a float or an array with at least one axis; callers make
any other number with no axes a float first.

tests/test_numerics.py holds each kernel to scipy or mpmath, and the
Dormand-Prince integrator `mtcrit.ode.solve_ivp` to scipy's RK45.  That
integrator is a module apart: a process that compiles the package from
source reaches its peak memory compiling the largest module.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = [
    "CHUNK",
    "EXP_BUDGET",
    "MinimizeResult",
    "minimize",
    "gauss_legendre",
    "power_term",
    "series_tail",
    "term_over_tail",
    "li2_neg",
    "left_sum",
]

_EPS = sys.float_info.epsilon
# Largest number of quadrature nodes handed to an integrand at once, so that
# its temporaries stay small and warm.
CHUNK = 8192


# -- left-to-right sum ----------------------------------------------------------


def left_sum(terms, start=0.0):
    """start + terms[0] + terms[1] + ..., added left to right.

    This is what the builtin `sum` gives on floats up to Python 3.11; from
    3.12 on `sum` compensates float additions, so its result depends on
    the interpreter and the toolkit does not call it."""
    total = start
    for term in terms:
        total = total + term
    return total


# -- Nelder-Mead ----------------------------------------------------------------


class MinimizeResult:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool

    def __init__(self, x, fun, nit, nfev, success):
        self.x = x
        self.fun = fun
        self.nit = nit
        self.nfev = nfev
        self.success = success


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


# The half-rules of the n-node Gauss-Legendre rules the toolkit uses: the
# positive nodes x, ascending, each with its weight 2 / ((1 - x^2) P_n'(x)^2).
# Each literal is the double nearest the true value, from Newton's method on
# P_n in 50-digit mpmath; tests/test_numerics.py holds each to 0.5 ulp.  Every
# n is even and the rules are symmetric, so a half holds the whole rule.
_HALF_RULES = {
    8: (
        (0.1834346424956498, 0.362683783378362),
        (0.525532409916329, 0.31370664587788727),
        (0.7966664774136267, 0.22238103445337448),
        (0.9602898564975363, 0.10122853629037626),
    ),
    12: (
        (0.1252334085114689, 0.24914704581340277),
        (0.3678314989981802, 0.2334925365383548),
        (0.5873179542866175, 0.20316742672306592),
        (0.7699026741943047, 0.16007832854334622),
        (0.9041172563704749, 0.10693932599531843),
        (0.9815606342467192, 0.04717533638651183),
    ),
    20: (
        (0.07652652113349734, 0.15275338713072584),
        (0.22778585114164507, 0.14917298647260374),
        (0.37370608871541955, 0.14209610931838204),
        (0.5108670019508271, 0.13168863844917664),
        (0.636053680726515, 0.11819453196151841),
        (0.7463319064601508, 0.10193011981724044),
        (0.8391169718222188, 0.08327674157670475),
        (0.912234428251326, 0.06267204833410907),
        (0.9639719272779138, 0.04060142980038694),
        (0.9931285991850949, 0.017614007139152118),
    ),
    48: (
        (0.03238017096286936, 0.06473769681268392),
        (0.0970046992094627, 0.06446616443595009),
        (0.1612223560688917, 0.06392423858464819),
        (0.22476379039468905, 0.06311419228625402),
        (0.28736248735545555, 0.062039423159892665),
        (0.34875588629216075, 0.06070443916589388),
        (0.4086864819907167, 0.059114839698395635),
        (0.4669029047509584, 0.057277292100403214),
        (0.523160974722233, 0.055199503699984165),
        (0.5772247260839727, 0.05289018948519367),
        (0.6288673967765136, 0.05035903555385447),
        (0.6778723796326639, 0.04761665849249048),
        (0.7240341309238146, 0.04467456085669428),
        (0.7671590325157404, 0.04154508294346475),
        (0.8070662040294426, 0.03824135106583071),
        (0.8435882616243935, 0.03477722256477044),
        (0.8765720202742479, 0.03116722783279809),
        (0.9058791367155696, 0.027426509708356948),
        (0.9313866907065543, 0.02357076083932438),
        (0.9529877031604309, 0.01961616045735553),
        (0.9705915925462473, 0.015579315722943849),
        (0.9841245837228269, 0.01147723457923454),
        (0.9935301722663508, 0.0073275539012762625),
        (0.9987710072524261, 0.0031533460523058385),
    ),
}


@functools.cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The `order`-node Gauss-Legendre rule on [-1, 1], nodes ascending,
    mirrored from its half-rule once per order and read-only.  An order
    with no half-rule is refused with ValueError."""
    if order not in _HALF_RULES:
        raise ValueError(f"no {order}-node Gauss-Legendre rule is tabulated "
                         f"(orders {sorted(_HALF_RULES)})")
    x, w = np.array(_HALF_RULES[order]).T
    x = np.concatenate([-x[::-1], x])
    w = np.concatenate([w[::-1], w])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule with `order` Gauss-Legendre
    nodes on each panel [edges[i], edges[i+1]], each shaped (panels, order):
    the integral of f is the sum of weights * f(nodes).  An order with no
    tabulated rule is refused with ValueError."""
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

