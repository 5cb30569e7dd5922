"""Radial correction profiles for the bubble expansion.

T0(r) = log(1 + r^2) is the standard bubble; S0, S1, S2 solve the
linearized radial equation

    L S = S'' + S'/r + 8 exp(-2 T0) S = -RHS_i(r),    S(0) = S'(0) = 0,

(with the -d_rr - d_r/r Laplacian convention) and behave for large r like
(A_i / 4 pi) log(1/r^2) + B_i.  `solve_profile` writes S_i by variation
of parameters over the kernel of L, which also gives A_i and B_i exactly;
`ode_profile` integrates the equation itself, as an independent check.
S0 also has an explicit dilogarithm formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvout import HERMITE_STRIDE, write_csv
from .numerics import CHUNK, CubicHermite, gauss_legendre, li2_neg, solve_ivp

__all__ = [
    "StepFailureError",
    "RadialProfile",
    "s0_explicit",
    "solve_profile",
    "ode_profile",
    "profile_integrals",
    "A_CONSTANTS",
    "B0_CONSTANT",
    "R_MAX_FLOOR",
    "R_MAX_CEILING",
]


class StepFailureError(RuntimeError):
    """Adaptive ODE integrator failed to meet its tolerance."""


A_CONSTANTS = (4.0 * math.pi, 4.0 * math.pi * (3.0 + math.pi**2 / 6.0), 2.0 * math.pi)
B0_CONSTANT = math.pi**2 / 6.0 + 2.0
# Outer radius of the profile solves unless the caller asks for another, and
# the least and the largest they accept: between the two `profile_integrals`
# meets the bounds of `verify` (measured in the README).  Past the ceiling
# its tail nodes overflow (1 + r^2)^2 (from r_max ~ 1e64 on), and from
# r_max ~ 9.9e103 on A_check is NaN.
R_MAX = 2000.0
R_MAX_FLOOR = 100.0
R_MAX_CEILING = 1e60
# A profile grid is 0 and then _GRID_NODES geometric nodes from _R0 to r_max;
# the ODE of ode_profile starts at _R0.
_R0 = 1e-6
_GRID_NODES = 4000
# Gauss-Legendre nodes per panel of solve_profile and of profile_integrals,
# and the tail panels in u = r_max / r: [0, 2^-40] and then [2^-k, 2^(1-k)]
# up to 1.
_VOP_ORDER = 8
_GL_ORDER = 4
_TAIL_EDGES = np.append(0.0, 0.5 ** np.arange(40, -1, -1))
# Tolerances of ode_profile.
_RTOL = 1e-10
_ATOL = 1e-10


def _float_or_array(r):
    """(math, r as a Python float) for an r with no axes; else (numpy, r as
    a float array)."""
    scalar = isinstance(r, float) or np.ndim(r) == 0
    return (math, float(r)) if scalar else (np, np.asarray(r, dtype=float))


def s0_explicit(r):
    """Closed form for S0: combination of rational, log^2 and dilog terms.
    An r with no axes is evaluated with `math` (`ode_profile` calls it one
    radius at a time) and gives a Python float."""
    xp, r = _float_or_array(r)
    r2 = r * r
    T = xp.log1p(r2)
    val = -T + 2.0 * r2 / (1.0 + r2) - 0.5 * T * T
    # Li2(-r^2) = int_1^{1+r^2} log(t)/(1-t) dt
    val += (1.0 - r2) / (1.0 + r2) * li2_neg(r2)
    return val


def _rhs(i: int, r):
    """Source terms of the linearized equation (all carry exp(-2 T0))."""
    xp, r = _float_or_array(r)
    T = xp.log1p(r * r)
    w = xp.exp(-2.0 * T)
    if i == 0:
        return 4.0 * w * (T * T - T)
    if i == 2:
        return 4.0 * w * T
    S0 = s0_explicit(r)
    return 4.0 * w * (S0 + 2.0 * S0 * S0 - 4.0 * T * S0 + 2.0 * S0 * T * T - T**3 + 0.5 * T**4)


@dataclass
class RadialProfile:
    """Sampled radial profile S and the constants of its large-r asymptote
    (A / 4 pi) log(1/r^2) + B."""

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    A: float
    B: float

    def __post_init__(self):
        self._spline = CubicHermite(self.grid, self.values, self.derivs)

    def _piecewise(self, r, inside, tail):
        """inside(r) up to the last grid node, tail(r) past it.  An r with
        no axes takes the float path and gives a float."""
        xp, r = _float_or_array(r)
        r_max = self.grid[-1]
        if xp is math:
            return float(inside(r) if r <= r_max else tail(r))
        past = r > r_max
        return np.where(past, tail(np.where(past, r, r_max)), inside(np.minimum(r, r_max)))

    def __call__(self, r):
        """S(r): the Hermite interpolant of the samples, the log asymptote
        past the grid."""
        return self._piecewise(r, self._spline,
                               lambda r: self.B - self.A / (2.0 * math.pi) * np.log(r))

    def derivative(self, r):
        return self._piecewise(r, self._spline.derivative,
                               lambda r: -self.A / (2.0 * math.pi) / r)

    def to_csv(self, path: str) -> None:
        write_csv([path], ["r", "S", "dS_dr"], [self.grid, self.values, self.derivs],
                  stride=HERMITE_STRIDE)

    def metadata(self) -> dict:
        return {
            "A": self.A,
            "B": self.B,
            "r_max": float(self.grid[-1]),
            "gl_order": _VOP_ORDER,
            "quadrature_nodes": _VOP_ORDER * (self.grid.size + _TAIL_EDGES.size - 2),
        }


def _kernel(r):
    """phi1 = (1 - r^2)/(1 + r^2) and phi2 = phi1 log r + 2/(1 + r^2), the
    kernel of L, with r (phi1 phi2' - phi1' phi2) = 1 (arrays, r > 0)."""
    q = 1.0 / (1.0 + r * r)
    phi1 = 2.0 * q - 1.0
    return phi1, phi1 * np.log(r) + 2.0 * q


def _radial_integrals(f, edges: np.ndarray, order: int):
    """Integrals in r over each panel [edges[k], edges[k+1]] and over the
    tail past r_max = edges[-1], the tail by r = r_max / u on _TAIL_EDGES:
    `order` Gauss-Legendre nodes a panel, handed to f at most CHUNK at a
    time.  f(r, w) maps the nodes r and their weights w (in the tail, times
    dr/du) to its integrands times w, stacked on a new first axis.  Returns
    the panel integrals, shaped (integrands, panels), and the tail
    integrals, shaped (integrands,)."""
    r_max = float(edges[-1])
    r, w = gauss_legendre(edges, order)
    u, wu = gauss_legendre(_TAIL_EDGES, order)
    r = np.concatenate([r, r_max / u])
    w = np.concatenate([w, wu * r_max / (u * u)])
    sums = []
    step = CHUNK // order
    for k in range(0, r.shape[0], step):
        sums.append(np.sum(f(r[k:k + step], w[k:k + step]), axis=-1))
    sums = np.concatenate(sums, axis=1)
    panels = edges.size - 1
    return sums[:, :panels], np.sum(sums[:, panels:], axis=1)


def solve_profile(i: int, r_max: float = R_MAX) -> RadialProfile:
    """S_i for i in {0, 1, 2} on 0 and geomspace(_R0, r_max, _GRID_NODES).

    Variation of parameters over the kernel (phi1, phi2) of L: with
    P(r) = -int_0^r phi1 RHS_i s ds and Q(r) = -int_0^r phi2 RHS_i s ds,
    S = phi2 P - phi1 Q and S' = phi2' P - phi1' Q.  As r -> oo, phi1 -> -1
    and phi2 = -log r + O(log r / r^2), so A_i = 2 pi P(oo) and
    B_i = Q(oo).  P and Q are cumulative sums of the panel integrals of
    `_radial_integrals` over the grid, plus its tails past r_max at oo.
    """
    if i not in (0, 1, 2):
        raise ValueError("profile index must be 0, 1 or 2")
    if not R_MAX_FLOOR <= r_max <= R_MAX_CEILING:
        raise ValueError(f"r_max must be at least {R_MAX_FLOOR:g} and at most "
                         f"{R_MAX_CEILING:g}")
    grid = np.concatenate([[0.0], np.geomspace(_R0, r_max, _GRID_NODES)])
    panels, tails = _radial_integrals(
        lambda r, w: np.stack(_kernel(r)) * (_rhs(i, r) * r * w), grid, _VOP_ORDER)
    P, Q = -np.cumsum(panels, axis=1)
    P_tail, Q_tail = -tails
    r = grid[1:]
    phi1, phi2 = _kernel(r)
    dphi1 = -4.0 * r / (1.0 + r * r) ** 2
    dphi2 = dphi1 * (1.0 + np.log(r)) + phi1 / r
    values = np.concatenate([[0.0], phi2 * P - phi1 * Q])
    derivs = np.concatenate([[0.0], dphi2 * P - dphi1 * Q])
    return RadialProfile(grid=grid, values=values, derivs=derivs,
                         A=float(2.0 * math.pi * (P[-1] + P_tail)), B=float(Q[-1] + Q_tail))


def ode_profile(i: int, r) -> tuple[np.ndarray, np.ndarray]:
    """S_i and S_i' at the increasing radii r >= _R0 by the Dormand-Prince
    integrator, an independent check of `solve_profile`; `solve_ivp`
    refuses other radii with ValueError.

    The equation is singular at r = 0; integration starts at _R0 from the
    second-order Taylor seed S(_R0) = -RHS_i(0) _R0^2 / 4.
    """
    def odes(s, y):
        S, dS = y
        return [dS, -dS / s - 8.0 * math.exp(-2.0 * math.log1p(s * s)) * S - _rhs(i, s)]

    rhs0 = _rhs(i, 0.0)
    seed = [-rhs0 * _R0 * _R0 / 4.0, -rhs0 * _R0 / 2.0]
    sol = solve_ivp(odes, (_R0, float(r[-1])), seed, t_eval=r, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise StepFailureError(f"{sol.message} ({sol.nfev} evaluations)")
    return sol.y[0], sol.y[1]


def laplacian_profile(i: int, r, profile):
    """-(S_i'' + S_i'/r) evaluated from the ODE: RHS_i + 8 e^{-2T0} S_i.

    `profile` is S_i itself (a solved RadialProfile, or s0_explicit for
    i = 0).  An r with no axes gives a float.
    """
    xp, r = _float_or_array(r)
    return _rhs(i, r) + 8.0 * xp.exp(-2.0 * xp.log1p(r * r)) * profile(r)


def profile_integrals(profiles: dict) -> dict:
    """Plane integrals fixing the energy-expansion constants.

    `profiles` maps {0: S0, 1: S1, 2: S2} to solved profiles; the radial
    quadrature runs on the shortest of their grids.  Returns
    I_S0 = int e^{-2T0} S0, I_T0sq = int e^{-2T0} T0^2 and A_check[i] =
    int of the distributional Laplacian of S_i, all over R^2 (2 pi r dr
    measure).  The five integrands share one pass of `_radial_integrals`,
    whose panels are the intervals of the shortest grid, where each solved
    profile is one cubic.
    """
    profs = [profiles[k] for k in range(3)]
    edges = min((pr.grid for pr in profs), key=lambda g: g[-1])

    def weighted(r, w):
        q = (1.0 + r * r) ** 2
        return np.stack([s0_explicit(r) / q, np.log1p(r * r) ** 2 / q]
                        + [laplacian_profile(k, r, pr) for k, pr in enumerate(profs)]) * r * w

    panels, tails = _radial_integrals(weighted, edges, _GL_ORDER)
    I_S0, I_T0sq, *A_check = (2.0 * math.pi * (np.sum(panels, axis=1) + tails)).tolist()
    return {"I_S0": I_S0, "I_T0sq": I_T0sq, "A_check": A_check,
            "B": [pr.B for pr in profs], "A": [pr.A for pr in profs]}
