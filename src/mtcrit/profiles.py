"""Radial correction profiles for the bubble expansion.

T0(r) = log(1 + r^2) is the standard bubble; S0, S1, S2 solve the
linearized radial equation

    S'' + S'/r + 8 exp(-2 T0) S = -RHS_i(r),    S(0) = S'(0) = 0,

(with the -d_rr - d_r/r Laplacian convention) and behave for large r like
(A_i / 4 pi) log(1/r^2) + B_i.  S0 also has an explicit dilogarithm
formula, used as the oracle for the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvout import write_csv
from .numerics import CubicHermite, gauss_legendre, li2_neg, solve_ivp

__all__ = [
    "StepFailureError",
    "RadialProfile",
    "t0",
    "s0_explicit",
    "solve_profile",
    "profile_integrals",
    "A_CONSTANTS",
    "B0_CONSTANT",
]


class StepFailureError(RuntimeError):
    """Adaptive ODE integrator failed to meet its tolerance."""


A_CONSTANTS = (4.0 * math.pi, 4.0 * math.pi * (3.0 + math.pi**2 / 6.0), 2.0 * math.pi)
B0_CONSTANT = math.pi**2 / 6.0 + 2.0
# Outer radius of the profile solves unless the caller asks for another.
R_MAX = 2000.0
# Tolerances of the profile ODE solve, also reported by RadialProfile.metadata.
_RTOL = 1e-10
_ATOL = 1e-10
# Gauss-Legendre nodes per panel of profile_integrals, and the tail panels
# in s = r_max / r: [0, 2^-40] and then [2^-k, 2^(1-k)] up to 1.
_GL_ORDER = 4
_TAIL_EDGES = np.append(0.0, 0.5 ** np.arange(40, -1, -1))


def t0(r):
    """Standard bubble profile log(1 + r^2)."""
    r = np.asarray(r, dtype=float)
    out = np.log1p(r * r)
    return float(out) if out.ndim == 0 else out


def _float_or_array(r):
    """(math, r as a Python float) for an r with no axes; else (numpy, r as
    a float array)."""
    scalar = isinstance(r, float) or np.ndim(r) == 0
    return (math, float(r)) if scalar else (np, np.asarray(r, dtype=float))


def s0_explicit(r):
    """Closed form for S0: combination of rational, log^2 and dilog terms.
    An r with no axes is evaluated with `math` (the profile ODE calls it one
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
    """Sampled radial profile with its extracted logarithmic asymptote."""

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    asym_slope: float
    asym_intercept: float

    def __post_init__(self):
        self._spline = CubicHermite(self.grid, self.values, self.derivs)

    def __call__(self, r):
        """Evaluate via the stored samples, log asymptote beyond the grid."""
        r = np.asarray(r, dtype=float)
        inside = self._spline(np.minimum(r, self.grid[-1]))
        tail = self.asym_slope * np.log(np.maximum(r, 1.0) ** 2) + self.asym_intercept
        out = np.where(r <= self.grid[-1], inside, tail)
        return float(out) if out.ndim == 0 else out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        inside = self._spline.derivative(np.minimum(r, self.grid[-1]))
        tail = 2.0 * self.asym_slope / np.maximum(r, 1.0)
        out = np.where(r <= self.grid[-1], inside, tail)
        return float(out) if out.ndim == 0 else out

    @property
    def A(self) -> float:
        """Coefficient of log(1/r^2)/(4 pi) in the tail, i.e. -4 pi slope."""
        return -4.0 * math.pi * self.asym_slope

    @property
    def B(self) -> float:
        return self.asym_intercept

    def to_csv(self, path: str) -> None:
        write_csv(path, ["r", "S", "dS_dr"], [self.grid, self.values, self.derivs])

    def metadata(self) -> dict:
        return {
            "A": self.A,
            "B": self.B,
            "r_max": float(self.grid[-1]),
            "rtol": _RTOL,
            "atol": _ATOL,
        }


def _richardson(seq):
    """One geometric-extrapolation step on three values at doubling radii.

    Assumes the error decays roughly geometrically (log-power/r^2 between
    doubled radii); falls back to the last value when the ratio is not
    contracting.
    """
    d1, d2 = seq[1] - seq[0], seq[2] - seq[1]
    if abs(d1) > 1e-300 and abs(d2 / d1) < 1.0:
        q = d2 / d1
        return seq[2] + d2 * q / (1.0 - q)
    return seq[2]


def solve_profile(i: int, r_max: float = R_MAX) -> RadialProfile:
    """Integrate the correction-profile ODE for i in {0, 1, 2}.

    The equation is singular at r=0; integration starts at r0 = 1e-6 from
    the second-order Taylor seed S(r0) = -RHS_i(0) r0^2 / 4.
    """
    if i not in (0, 1, 2):
        raise ValueError("profile index must be 0, 1 or 2")
    if r_max < 100.0:
        raise ValueError("r_max must be at least 100")

    def odes(r, y):
        S, dS = y
        T = math.log1p(r * r)
        return [dS, -dS / r - 8.0 * math.exp(-2.0 * T) * S - _rhs(i, r)]

    r0 = 1e-6
    rhs0 = _rhs(i, 0.0)
    y0 = [-rhs0 * r0 * r0 / 4.0, -rhs0 * r0 / 2.0]
    probe = [250.0, 500.0, 1000.0] if r_max >= 1000.0 else [r_max / 4, r_max / 2, r_max]
    grid = np.unique(np.concatenate([[0.0], np.geomspace(r0, r_max, 4000), probe]))
    sol = solve_ivp(odes, (r0, r_max), y0, t_eval=grid[1:], rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise StepFailureError(f"{sol.message} ({sol.nfev} evaluations)")
    values = np.concatenate([[0.0], sol.y[0]])
    derivs = np.concatenate([[0.0], sol.y[1]])

    # tail: S ~ slope*log(r^2) + B with slope = -A/(4 pi); both the slope
    # (from r S'/2) and the intercept carry log-power/r^2 contamination,
    # so extrapolate each over the doubling probe radii
    idx = np.searchsorted(grid, probe)
    pv, pd = values[idx], derivs[idx]
    slope = _richardson([0.5 * r * d for r, d in zip(probe, pd)])
    intercept = _richardson([v - slope * math.log(r * r) for r, v in zip(probe, pv)])
    return RadialProfile(grid=grid, values=values, derivs=derivs,
                         asym_slope=float(slope), asym_intercept=float(intercept))


def laplacian_profile(i: int, r, profile):
    """-(S_i'' + S_i'/r) evaluated from the ODE: RHS_i + 8 e^{-2T0} S_i.

    `profile` is S_i itself (a solved RadialProfile, or s0_explicit for i = 0).
    """
    r = np.asarray(r, dtype=float)
    out = _rhs(i, r) + 8.0 * np.exp(-2.0 * np.log1p(r * r)) * profile(r)
    return float(out) if out.ndim == 0 else out


def profile_integrals(profiles: dict) -> dict:
    """Plane integrals fixing the energy-expansion constants.

    `profiles` maps {0: S0, 1: S1, 2: S2} to solved profiles; the radial
    quadrature is truncated at the shortest of their grids.  Returns
    I_S0 = int e^{-2T0} S0, I_T0sq = int e^{-2T0} T0^2 and A_check[i] =
    int of the distributional Laplacian of S_i, all over R^2 (2 pi r dr
    measure).  Each interval of the shortest grid, where a solved profile
    is one cubic, is a Gauss-Legendre panel; the tails of I_S0 and I_T0sq
    past r_max map to s = r_max / r on panels halving toward s = 0.
    """
    profs = [profiles[k] for k in range(3)]
    edges = min((pr.grid for pr in profs), key=lambda g: g[-1])
    r_max = float(edges[-1])
    if r_max < 1000.0:
        raise ValueError("r_max must be at least 1000")

    def plane(f):
        """int over R^2 of the radial f, the part past r_max by r = r_max / s."""
        return 2.0 * math.pi * (
            gauss_legendre(lambda r: f(r) * r, edges, _GL_ORDER)
            + gauss_legendre(lambda s: f(r_max / s) * r_max**2 / s**3, _TAIL_EDGES, _GL_ORDER))

    I_S0 = plane(lambda r: s0_explicit(r) / (1.0 + r * r) ** 2)
    I_T0sq = plane(lambda r: np.log1p(r * r) ** 2 / (1.0 + r * r) ** 2)
    A_check = [2.0 * math.pi * gauss_legendre(
        lambda r, k=k, pr=pr: laplacian_profile(k, r, pr) * r, edges, _GL_ORDER)
        for k, pr in enumerate(profs)]
    return {"I_S0": I_S0, "I_T0sq": I_T0sq, "A_check": A_check,
            "B": [pr.B for pr in profs], "A": [pr.A for pr in profs]}
