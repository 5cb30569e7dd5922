"""Radial correction profiles for the bubble expansion.

T0(r) = log(1 + r^2) is the standard bubble; S0, S1, S2 solve the
linearized radial equation

    L S = S'' + S'/r + 8 exp(-2 T0) S = -RHS_i(r),    S(0) = S'(0) = 0,

(with the -d_rr - d_r/r Laplacian convention) and behave for large r like
(A_i / 4 pi) log(1/r^2) + B_i.  `solve_profile` writes S_i by variation
of parameters over the kernel of L, on panels in y = log r that reach
both ends of the doubles, which also gives A_i and B_i exactly;
`ode_profile` integrates the equation itself, as an independent check.
S0 also has an explicit dilogarithm formula.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .csvout import HERMITE_STRIDE, write_csv
from .numerics import _legendre_rule, gauss_legendre, li2_neg
from .ode import solve_ivp

__all__ = [
    "StepFailureError",
    "RadialProfile",
    "s0_explicit",
    "solve_profile",
    "ode_profile",
    "profile_integrals",
    "source_laplacians",
    "linear_combination",
    "csv_grid",
    "profile_csv",
    "A_CONSTANTS",
    "B0_CONSTANT",
]


class StepFailureError(RuntimeError):
    """Adaptive ODE integrator failed to meet its tolerance."""


A_CONSTANTS = (4.0 * math.pi, 4.0 * math.pi * (3.0 + math.pi**2 / 6.0), 2.0 * math.pi)
B0_CONSTANT = math.pi**2 / 6.0 + 2.0
# Outer radius of the profile curve files unless the caller asks for another.
# A curve file is 0 and then _CSV_NODES geometric nodes from _R0 to r_max;
# the ODE of ode_profile starts at _R0.
R_MAX = 2000.0
_R0 = 1e-6
_CSV_NODES = 4000
# The panels of solve_profile and profile_integrals: width _PANEL_WIDTH in
# y = log r from _Y_LOW to _Y_HIGH (r from 1.5e-8 to 2.4e17), _ORDER
# Gauss-Legendre nodes each.  The sources vanish like r^2 at 0 and their
# integrands in y decay like y^5 e^(-2y) as y -> oo, so the parts of P and Q
# (see solve_profile) outside the window are below 1e-24 of P(oo) and Q(oo):
# P and Q are 0 before it and constant after it, in doubles.
_Y_LOW, _Y_HIGH = -18.0, 40.0
_PANEL_WIDTH = 0.5
_PANELS = round((_Y_HIGH - _Y_LOW) / _PANEL_WIDTH)
_ORDER = 12
_EDGES = _Y_LOW + _PANEL_WIDTH * np.arange(_PANELS + 1)
# A RadialProfile reads any r below _R_LOW, before the window, as _R_LOW.
_R_LOW = math.exp(_Y_LOW - 1.0)
# Tolerances of ode_profile.
_RTOL = 1e-10
_ATOL = 1e-10


def _float_or_array(r):
    """(math, r as a Python float) for an r with no axes; else (numpy, r as
    a float array)."""
    scalar = isinstance(r, float) or np.ndim(r) == 0
    return (math, float(r)) if scalar else (np, np.asarray(r, dtype=float))


def _t0(xp, r):
    """T0 = log(1 + r^2) and e^{-2 T0}, the weight that every source carries."""
    T = xp.log1p(r * r)
    return T, xp.exp(-2.0 * T)


def s0_explicit(r):
    """Closed form for S0: combination of rational, log^2 and dilog terms.
    An r with no axes is evaluated with `math` and gives a Python float; the
    package's own callers pass arrays (`ode_profile` reads `_s0`)."""
    xp, r = _float_or_array(r)
    r2 = r * r
    return _s0(r2, xp.log1p(r2))


def _s0(r2, T):
    """S0 from r^2 and T0 = log(1 + r^2)."""
    val = -T + 2.0 * r2 / (1.0 + r2) - 0.5 * T * T
    # Li2(-r^2) = int_1^{1+r^2} log(t)/(1-t) dt
    return val + (1.0 - r2) / (1.0 + r2) * li2_neg(r2)


def _rhs(i: int, T, w, S0):
    """Source term RHS_i of the linearized equation from T0, its weight
    w = e^{-2 T0} and S0 (read for i = 1 alone), all at the same radii."""
    if i == 0:
        return 4.0 * w * (T * T - T)
    if i == 2:
        return 4.0 * w * T
    return 4.0 * w * (S0 + 2.0 * S0 * S0 - 4.0 * T * S0 + 2.0 * S0 * T * T - T**3 + 0.5 * T**4)


def _kernel(xp, r, log_r):
    """phi1 = (1 - r^2)/(1 + r^2), phi2 = phi1 log r + 2/(1 + r^2) (the kernel
    of L, with r (phi1 phi2' - phi1' phi2) = 1) and their slopes, at r > 0.
    Past r ~ 1e154, where r^2 overflows, the 2/(1 + r^2) terms are 0."""
    if xp is math:
        q = 1.0 / (1.0 + r * r)
    else:
        with np.errstate(over="ignore"):
            q = 1.0 / (1.0 + r * r)
    phi1 = 2.0 * q - 1.0
    dphi1 = -4.0 * q * (r * q)
    return phi1, phi1 * log_r + 2.0 * q, dphi1, dphi1 * (1.0 + log_r) + phi1 / r


@functools.cache
def _antiderivative_map() -> np.ndarray:
    """M, shaped (_ORDER + 1, _ORDER): the Legendre coefficients of the
    antiderivative int_{-1}^x f of the degree-(_ORDER - 1) interpolant of
    f at the Gauss nodes x_j are d_m = sum_j M[m, j] f(x_j).

    The interpolant's coefficients come from discrete orthogonality,
    c_n = (2n + 1)/2 sum_j w_j P_n(x_j) f(x_j), and the antiderivative from
    int_{-1}^x P_0 = P_0 + P_1 and int_{-1}^x P_n = (P_{n+1} - P_{n-1})/(2n + 1)."""
    x, w = _legendre_rule(_ORDER)
    legendre = [np.ones_like(x), x]
    for n in range(1, _ORDER - 1):
        legendre.append(((2 * n + 1) * x * legendre[n] - n * legendre[n - 1]) / (n + 1))
    M = np.zeros((_ORDER + 1, _ORDER))
    M[0] = M[1] = 0.5 * w
    for n in range(1, _ORDER):
        M[n + 1] += 0.5 * w * legendre[n]
        M[n - 1] -= 0.5 * w * legendre[n]
    M.flags.writeable = False
    return M


# The Legendre recurrence P_{m+1} = (2m+1)/(m+1) x P_m - m/(m+1) P_{m-1},
# backwards for Clenshaw's sum sum_m d_m P_m(x) = d_0 + x b_1 - b_2 / 2, with
# b_m = d_m + (2m+1)/(m+1) x b_{m+1} - (m+1)/(m+2) b_{m+2}: the steps
# m, (2m+1)/(m+1) and (m+1)/(m+2).  Both paths of RadialProfile round each
# step as d_m + ((2m+1)/(m+1) x) b_{m+1} - ((m+1)/(m+2)) b_{m+2}.
_CLENSHAW_STEPS = [(m, (2 * m + 1) / (m + 1), (m + 1) / (m + 2)) for m in range(_ORDER, 0, -1)]


class RadialProfile:
    """S = phi2 P - phi1 Q on [0, oo), with P and Q Legendre series on the
    panels of y = log r (see solve_profile), and the constants of its
    large-r asymptote (A / 4 pi) log(1/r^2) + B.

    `coefs[:, :, k]` and `starts[:, k]` hold P and Q on panel k - 1 as
    starts + (_PANEL_WIDTH / 2) sum_m coefs[m] P_m(x), x in [-1, 1]; the
    first and last columns are the constant panels before and after the
    window: 0, and P(oo) and Q(oo)."""

    coefs: np.ndarray
    starts: np.ndarray
    A: float
    B: float

    def __init__(self, coefs, starts, A, B):
        self.coefs = coefs
        self.starts = starts
        self.A = A
        self.B = B

    def _float_pq(self, y: float) -> tuple[float, float]:
        """P and Q at y = log r on Python floats: one panel's Clenshaw sums."""
        u = (y - _Y_LOW) / _PANEL_WIDTH
        k = min(max(math.floor(u) + 1, 0), _PANELS + 1)
        (cP, cQ), (sP, sQ) = self.coefs[:, :, k].T.tolist(), self.starts[:, k].tolist()
        x = min(max(2.0 * (u - (k - 1)) - 1.0, -1.0), 1.0)
        bP1 = bP2 = bQ1 = bQ2 = 0.0
        for m, a, b in _CLENSHAW_STEPS:
            ax = a * x
            bP1, bP2 = cP[m] + ax * bP1 - b * bP2, bP1
            bQ1, bQ2 = cQ[m] + ax * bQ1 - b * bQ2, bQ1
        h = 0.5 * _PANEL_WIDTH
        return (sP + h * (cP[0] + x * bP1 - 0.5 * bP2),
                sQ + h * (cQ[0] + x * bQ1 - 0.5 * bQ2))

    def _array_pq(self, y: np.ndarray) -> np.ndarray:
        """P and Q at y = log r, stacked: each node's panel's Clenshaw sums."""
        u = (y - _Y_LOW) / _PANEL_WIDTH
        k = np.clip(np.floor(u) + 1, 0, _PANELS + 1).astype(np.intp)
        # the constant panels hold no coefficients, so any x in [-1, 1] will do
        x = np.clip(2.0 * (u - (k - 1)) - 1.0, -1.0, 1.0)
        # each step gathers its own two rows, P's and Q's, from the flat view
        # of the C-contiguous coefs: coefs[m, :, k] is c[m].take(kk), and no
        # (_ORDER + 1, 2) + k.shape gather of every row is ever held
        c = self.coefs.reshape(_ORDER + 1, -1)
        kk = np.add.outer((0, _PANELS + 2), k)
        b1, b2, ax_b1 = np.zeros((3, 2) + x.shape)
        for m, a, b in _CLENSHAW_STEPS:  # in place: b1, b2 = d_m + a x b1 - b b2, b1
            np.multiply(a * x, b1, out=ax_b1)
            ax_b1 += c[m].take(kk)
            b2 *= b
            ax_b1 -= b2
            b1, b2, ax_b1 = ax_b1, b1, b2
        return self.starts[:, k] + 0.5 * _PANEL_WIDTH * (c[0].take(kk) + x * b1 - 0.5 * b2)

    def _evaluate(self, r):
        """S(r) and S'(r) = phi2' P - phi1' Q.  An r with no axes takes the
        float path and gives floats."""
        xp, r = _float_or_array(r)
        if xp is math:
            r = max(r, _R_LOW)
            # NumPy's log, which libm's rounds apart from now and then, so
            # that the float path gives the array path's bits
            log_r = float(np.log(r))
            P, Q = self._float_pq(log_r)
        else:
            r = np.maximum(r, _R_LOW)
            log_r = np.log(r)
            P, Q = self._array_pq(log_r)
        phi1, phi2, dphi1, dphi2 = _kernel(xp, r, log_r)
        return phi2 * P - phi1 * Q, dphi2 * P - dphi1 * Q

    def __call__(self, r):
        """S(r)."""
        return self._evaluate(r)[0]

    def derivative(self, r):
        return self._evaluate(r)[1]

    def metadata(self) -> dict:
        return {"A": self.A, "B": self.B, "gl_order": _ORDER,
                "quadrature_nodes": _ORDER * _PANELS}


def linear_combination(terms) -> RadialProfile:
    """sum_i c_i S_i for the pairs (c_i, S_i) in `terms`, as one profile:
    each S_i is phi2 P_i - phi1 Q_i on the same panels, so the sum is the
    profile of sum_i c_i P_i and sum_i c_i Q_i, evaluated at the cost of one."""
    (c, first), *rest = terms
    coefs, starts, A, B = c * first.coefs, c * first.starts, c * first.A, c * first.B
    for c, P in rest:
        coefs, starts, A, B = coefs + c * P.coefs, starts + c * P.starts, A + c * P.A, B + c * P.B
    return RadialProfile(coefs=coefs, starts=starts, A=A, B=B)


def csv_grid(r_max: float) -> np.ndarray:
    """0 and then _CSV_NODES geometric nodes from _R0 to r_max, the nodes of
    a profile's curve file; ValueError unless they increase strictly."""
    if not r_max > _R0:
        raise ValueError(f"must exceed {_R0:g}, where the curve files' geometric "
                         f"grid starts (got {r_max!r})")
    # geomspace overflows an intermediate power near the top of the doubles, not a node
    with np.errstate(over="ignore"):
        grid = np.concatenate([[0.0], np.geomspace(_R0, r_max, _CSV_NODES)])
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError(f"{r_max!r} is too close to {_R0:g} for {_CSV_NODES} distinct "
                         f"geometric nodes")
    return grid


def profile_csv(paths: list[str], profiles: list[RadialProfile], grid: np.ndarray) -> None:
    """r, S and S' of profiles[i] at the nodes `grid` (a `csv_grid`) into
    paths[i], in one write_csv call, which formats the r column once."""
    write_csv(paths, ["r", "S", "dS_dr"],
              [grid, *(col for P in profiles for col in P._evaluate(grid))],
              stride=HERMITE_STRIDE)


def _panel_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes y, the radii r = e^y and the weights dy of the window's
    Gauss-Legendre rule, each shaped (_PANELS, _ORDER)."""
    y, w = gauss_legendre(_EDGES, _ORDER)
    return y, np.exp(y), w


def solve_profile(i: int) -> RadialProfile:
    """S_i for i in {0, 1, 2} on [0, oo).

    Variation of parameters over the kernel (phi1, phi2) of L: with
    P(r) = -int_0^r phi1 RHS_i s ds and Q(r) = -int_0^r phi2 RHS_i s ds,
    S = phi2 P - phi1 Q and S' = phi2' P - phi1' Q.  As r -> oo, phi1 -> -1
    and phi2 = -log r + O(log r / r^2), so A_i = 2 pi P(oo) and
    B_i = Q(oo).  In y = log r each panel's integrands of P and Q, times
    r^2 = dr/dy, become Legendre series interpolating them at the panel's
    Gauss nodes, and P and Q their antiderivatives, in closed form; P(oo)
    and Q(oo) are the correctly rounded sums of the panels' Gauss sums.
    """
    if i not in (0, 1, 2):
        raise ValueError("profile index must be 0, 1 or 2")
    y, r, w = _panel_nodes()
    phi1, phi2, _, _ = _kernel(np, r, y)
    T, weight = _t0(np, r)
    source = -_rhs(i, T, weight, _s0(r * r, T) if i == 1 else None) * r * r
    integrands = np.array([phi1 * source, phi2 * source])
    totals = np.sum(w * integrands, axis=-1)
    starts = np.zeros((2, _PANELS + 2))
    starts[:, 2:_PANELS + 1] = np.cumsum(totals[:, :-1], axis=1)
    P_oo, Q_oo = math.fsum(totals[0].tolist()), math.fsum(totals[1].tolist())
    starts[:, -1] = P_oo, Q_oo
    # one node's column of the map at a time: element-wise products, which
    # (unlike a first matmul or einsum) leave the peak resident memory alone
    coefs = np.zeros((_ORDER + 1, 2, _PANELS + 2))
    M = _antiderivative_map()
    for j in range(_ORDER):
        coefs[:, :, 1:-1] += M[:, j, None, None] * integrands[:, :, j]
    return RadialProfile(coefs=coefs, starts=starts, A=2.0 * math.pi * P_oo, B=Q_oo)


def ode_profile(i: int, r) -> tuple[np.ndarray, np.ndarray]:
    """S_i and S_i' at the increasing radii r >= _R0 by the Dormand-Prince
    integrator, an independent check of `solve_profile`; `solve_ivp`
    refuses other radii with ValueError.

    The equation is singular at r = 0; integration starts at _R0 from the
    second-order Taylor seed S(_R0) = -RHS_i(0) _R0^2 / 4.
    """
    def source(s):
        """e^{-2 T0} and RHS_i at the radius s."""
        T, w = _t0(math, s)
        return w, _rhs(i, T, w, _s0(s * s, T) if i == 1 else None)

    def accel(s, S, dS):
        w, rhs = source(s)
        return -dS / s - 8.0 * w * S - rhs

    rhs0 = source(0.0)[1]
    seed = (-rhs0 * _R0 * _R0 / 4.0, -rhs0 * _R0 / 2.0)
    sol = solve_ivp(accel, (_R0, float(r[-1])), seed, t_eval=r, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise StepFailureError(f"{sol.message} ({sol.nfev} evaluations)")
    return sol.y[0], sol.y[1]


def source_laplacians(r, T, w, S1, S2, S0=None) -> tuple:
    """The explicit S0 and the Laplacians -(S_i'' + S_i'/r) = RHS_i +
    8 e^{-2T0} S_i for i = 0, 1, 2 at the radii r, given T0 = log(1 + r^2)
    and w = e^{-2T0} there, so that each node's T0, weight and S0 are
    evaluated once.  S1 and S2 are solved profiles; S0, if given, is a
    solved S0 whose Laplacian is taken instead of the explicit S0's.
    """
    explicit = _s0(r * r, T)
    S = [explicit if S0 is None else S0(r), S1(r), S2(r)]
    return explicit, [_rhs(i, T, w, explicit) + 8.0 * w * S_i for i, S_i in enumerate(S)]


def profile_integrals(profiles: dict) -> dict:
    """Plane integrals fixing the energy-expansion constants.

    `profiles` maps {0: S0, 1: S1, 2: S2} to solved profiles.  Returns
    I_S0 = int e^{-2T0} S0, I_T0sq = int e^{-2T0} T0^2 and A_check[i] =
    int of the distributional Laplacian of S_i, all over R^2 (2 pi r dr
    measure), on the panels of `solve_profile` in y = log r, which carry
    each integrand to both ends of the doubles.
    """
    profs = [profiles[k] for k in range(3)]
    _, r, w = _panel_nodes()
    r, w = r.ravel(), w.ravel() * r.ravel() ** 2
    q = (1.0 + r * r) ** 2
    T, weight = _t0(np, r)
    S0, laplacians = source_laplacians(r, T, weight, profs[1], profs[2], S0=profs[0])
    integrands = np.array([S0 / q, T ** 2 / q] + laplacians)
    I_S0, I_T0sq, *A_check = (2.0 * math.pi * np.sum(integrands * w, axis=1)).tolist()
    return {"I_S0": I_S0, "I_T0sq": I_T0sq, "A_check": A_check,
            "B": [pr.B for pr in profs], "A": [pr.A for pr in profs]}
