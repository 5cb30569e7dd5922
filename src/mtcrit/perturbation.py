"""Even C^1 perturbation weights and their derived functions.

The toolkit works with integrands of the form (1 + g(u)) * exp(u^2) where g
is an even C^1 perturbation with g > -1 and g -> 0 at infinity.  This module
provides:

* the perturbation families (zero, power-log branches), refused when g
  dips to -1 or below on either branch or on the blend between them,
* the derived functions H, Psi_N, phi_N and the truncation weight xi,
* the asymptotic data (A, B, F, kappa) attached to a family.

A T = t^2 past the exponent budget EXP_BUDGET is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .numerics import EXP_BUDGET, power_term, series_tail, term_over_tail

__all__ = [
    "NonAdmissibleError",
    "ExponentBudgetError",
    "FamilyKind",
    "PerturbationFamily",
    "AsymptoticData",
    "eval_g",
    "eval_H",
    "phi_N",
    "eval_psi_N",
    "xi",
    "asymptotic_data",
]


class NonAdmissibleError(ValueError):
    """The perturbation leaves the admissible range g > -1."""


class ExponentBudgetError(OverflowError):
    """A linear-scale value would exceed exp(EXP_BUDGET)."""


class FamilyKind(str, Enum):
    ZERO = "Zero"
    POWER_LOG = "PowerLog"


@dataclass(frozen=True)
class PerturbationFamily:
    """An even perturbation g, evaluated at |t|.

    kind = Zero gives g identically 0.  kind = PowerLog uses the two
    analytic branches

        g(t) = g0 + c * t^(a+1) * log(1/t)^(-b)        for t <= 1/R'
        g(t) = c' * t^(-a') * (log t)^(-b')            for t >= R'

    joined on [1/R', R'] by a quintic C^1 Hermite blend (see `_blend_coeffs`).
    Each numeric field must be a finite real number, not a bool (ValueError
    naming the field), and is kept as a float.  A PowerLog family whose g
    reaches -1 on any of the three pieces is refused with
    NonAdmissibleError.  A Zero family leaves every PowerLog field at its
    default.
    """

    kind: FamilyKind = FamilyKind.ZERO
    c: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c_prime: float = 0.0
    a_prime: float = 0.0
    b_prime: float = 0.0
    R_prime: float = 10.0
    g0: float = 0.0
    _hermite: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", FamilyKind(self.kind))
        numeric = [f for f in fields(self) if f.name not in ("kind", "_hermite")]
        for f in numeric:
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number (got {value!r})")
            object.__setattr__(self, f.name, float(value))
        if self.kind is FamilyKind.ZERO:
            given = [f.name for f in numeric if getattr(self, f.name) != f.default]
            if given:
                raise ValueError(f"a Zero family takes no other field (got {', '.join(given)})")
        else:
            if self.R_prime <= 1.0:
                raise ValueError("R_prime must exceed 1")
            for (cc, aa, bb), tag in (
                ((self.c, self.a, self.b), "(a, b)"),
                ((self.c_prime, self.a_prime, self.b_prime), "(a', b')"),
            ):
                if cc != 0.0 and (aa < 0 or (aa == 0 and bb <= 0)):
                    raise ValueError(f"{tag} must lie in E: a >= 0 and b > 0 if a = 0")
            # the near-zero knot 1/R' and the blend's width 2 log R' in log t
            object.__setattr__(self, "_t1", 1.0 / self.R_prime)
            object.__setattr__(self, "_log_span", 2.0 * math.log(self.R_prime))
            object.__setattr__(self, "_hermite", self._blend_coeffs())
            self._check_admissible()

    # -- PowerLog branches ------------------------------------------------
    #
    # Each piece takes an array or a Python float; on a float it runs on
    # Python floats after its log (`_log`), with the array's operations in
    # its order.

    def _g_zero_branch(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Near-zero branch and derivative, valid for 0 < t < 1.  With
        c = 0 the branch is the constant g0, and t**p and log are skipped."""
        if self.c == 0.0:
            return self.g0 + 0.0 * t, 0.0 * t
        p = self.a + 1.0
        L = _log(1.0 / t)
        val = self.g0 + self.c * t**p * L ** (-self.b)
        dval = self.c * t ** (p - 1.0) * (p * L ** (-self.b) + self.b * L ** (-self.b - 1.0))
        return val, dval

    def _g_inf_branch(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Infinity branch and derivative, valid for t > 1."""
        ell = _log(t)
        val = self.c_prime * t ** (-self.a_prime) * ell ** (-self.b_prime)
        dval = (
            -self.c_prime
            * t ** (-self.a_prime - 1.0)
            * ell ** (-self.b_prime - 1.0)
            * (self.a_prime * ell + self.b_prime)
        )
        return val, dval

    def _check_admissible(self) -> None:
        """Refuse g <= -1 (with a 1e-9 margin) on 4096 log-spaced samples of
        each piece: both branches and the blend between them."""
        r = self.R_prime
        for name, piece, lo, hi in (
            ("infinity branch", self._g_inf_branch, r, r * 1e6),
            ("near-zero branch", self._g_zero_branch, 1e-12, 1.0 / r),
            ("Hermite blend", lambda t: _hermite_eval(self, t), 1.0 / r, r),
        ):
            g, _ = piece(np.geomspace(lo, hi, 4096))
            if np.min(g) <= -1.0 + 1e-9:
                raise NonAdmissibleError(f"{name} dips to g <= -1")

    def _blend_coeffs(self) -> tuple[float, ...]:
        """Quintic Hermite coefficients for the blend region [1/R', R'].

        The near-zero branch is undefined past t = 1 (log(1/t) changes
        sign), so a pointwise smoothstep mix of the two branches cannot be
        used across the whole gap.  Instead we take the unique quintic in
        x = log t matching value, slope and curvature of each branch at the
        two knots; this is the smoothstep construction applied to the C^2
        jet data and keeps the blend C^2.  Returns h0, h1, h2, c3, c4, c5,
        the coefficients of x^0..x^5 in the unit variable
        (log t + log R') / (2 log R').
        """
        t1, t2 = 1.0 / self.R_prime, self.R_prime
        h = 1e-6
        jet = []
        for t, branch in ((t1, self._g_zero_branch), (t2, self._g_inf_branch)):
            v, d = branch(np.asarray(t))
            _, dp = branch(np.asarray(t * (1 + h)))
            _, dm = branch(np.asarray(t / (1 + h)))
            dd = (dp - dm) / (t * (1 + h) - t / (1 + h))
            # x = log t: dg/dx = t g', d2g/dx2 = t g' + t^2 g''
            jet.extend([float(v), float(t * d), float(t * d + t * t * dd)])
        v1, d1, s1, v2, d2, s2 = jet
        L = self._log_span  # x2 - x1 for the knots x = -+log R'
        h0, h1, h2 = v1, d1 * L, s1 * L * L / 2.0
        A = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
        rhs = np.array(
            [v2 - (h0 + h1 + h2), d2 * L - (h1 + 2 * h2), s2 * L * L - 2 * h2]
        )
        c3, c4, c5 = (float(c) for c in np.linalg.solve(A, rhs))
        return (h0, h1, h2, c3, c4, c5)

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(obj: dict) -> "PerturbationFamily":
        """Read the keys `kind` (a `FamilyKind` value), `c`, `a`, `b`,
        `c_prime`, `a_prime`, `b_prime`, `R_prime` and `g0`; an absent key
        takes its default and any other key is refused."""
        if not isinstance(obj, dict):
            raise ValueError("must be a JSON object")
        keys = {f.name for f in fields(PerturbationFamily)} - {"_hermite"}
        unknown = sorted(set(obj) - keys)
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return PerturbationFamily(**obj)


def eval_g(fam: PerturbationFamily, t) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (g(t), g'(t)) at |t|; works on numbers and arrays.

    A t with no axes (a float, an int, a NumPy scalar or a 0-d array)
    takes the scalar path: plain comparisons pick its branch and the result
    is a pair of Python floats.  An array with at least one axis picks each
    point's branch by masks.  Both paths evaluate the same branch functions.
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        t = abs(float(t))
        if fam.kind is FamilyKind.ZERO:
            return 0.0, 0.0
        if t == 0.0:
            g, dg = fam.g0, 0.0
        elif t <= fam._t1 or t >= fam.R_prime:
            branch = fam._g_zero_branch if t <= fam._t1 else fam._g_inf_branch
            try:
                g, dg = branch(t)
            except OverflowError:  # a power past the doubles: NumPy's gives inf
                g, dg = branch(np.float64(t))
        else:
            g, dg = _hermite_eval(fam, t)
        if g <= -1.0:
            raise NonAdmissibleError("g(t) <= -1 encountered")
        return float(g), float(dg)
    t = np.abs(np.asarray(t, dtype=float))
    if fam.kind is FamilyKind.ZERO:
        g = np.zeros_like(t)
        dg = np.zeros_like(t)
    else:
        g, dg = _eval_power_log(fam, t)
    if np.any(g <= -1.0):
        raise NonAdmissibleError("g(t) <= -1 encountered")
    return g, dg


def _eval_power_log(fam: PerturbationFamily, t: np.ndarray):
    """Each branch is evaluated on its own points only; `eval_g`'s scalar
    path makes the same choice by comparisons."""
    g = np.empty_like(t)
    dg = np.empty_like(t)
    t1, t2 = fam._t1, fam.R_prime
    low = t <= t1
    high = t >= t2
    mid = ~(low | high)
    at0 = t == 0.0
    g[at0], dg[at0] = fam.g0, 0.0
    for mask, branch in ((low & ~at0, fam._g_zero_branch), (high, fam._g_inf_branch),
                         (mid, lambda tm: _hermite_eval(fam, tm))):
        if mask.any():
            g[mask], dg[mask] = branch(t[mask])
    return g, dg


def _log(x):
    """np.log(x), made a Python float for a Python float x: math.log may
    round it apart from np.log, which the array path takes."""
    v = np.log(x)
    return float(v) if type(x) is float else v


def _hermite_eval(fam: PerturbationFamily, t: np.ndarray):
    """The blend and its derivative at an array or a Python float t."""
    h0, h1, h2, c3, c4, c5 = fam._hermite
    L = fam._log_span
    x = (_log(t) + 0.5 * L) / L
    # Horner's rule for the quintic and its derivative
    q = h0 + x * (h1 + x * (h2 + x * (c3 + x * (c4 + x * c5))))
    dq = h1 + x * (2.0 * h2 + x * (3.0 * c3 + x * (4.0 * c4 + x * (5.0 * c5))))
    return q, dq / (L * t)


def eval_H(fam: PerturbationFamily, t) -> np.ndarray | float:
    """H(t) = 1 + g(t) + g'(t) / (2 t), defined for t > 0.  A t with no
    axes takes `eval_g`'s scalar path and gives a Python float."""
    t = float(t) if isinstance(t, float) or np.ndim(t) == 0 else np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("eval_H requires t > 0")
    g, dg = eval_g(fam, t)
    return 1.0 + g + dg / (2.0 * t)


# -- exponential series tail ----------------------------------------------


def _check_order(N, least: int = 1) -> None:
    """Refuse an order N that is a bool, not an integer, or below `least`.
    A plain int skips the slower `numbers.Integral` test."""
    if ((type(N) is not int and (isinstance(N, bool) or not isinstance(N, numbers.Integral)))
            or N < least):
        raise ValueError(f"N must be an integer >= {least} (got {N!r})")


def phi_N(N: int, T) -> np.ndarray | float:
    """Tail of the exponential series, sum_{k>N} T^k / k! (N >= 0,
    0 <= T <= EXP_BUDGET), summed in doubles by `series_tail` (phi_N < e^T).
    A T past the budget is refused with ExponentBudgetError.  A T with no
    axes gives a Python float.
    """
    _check_order(N, least=0)
    scalar = isinstance(T, float) or np.ndim(T) == 0
    T = float(T) if scalar else np.asarray(T, dtype=float)
    if (T < 0) if scalar else np.any(T < 0):
        raise ValueError("T must be nonnegative")
    if (T > EXP_BUDGET) if scalar else np.any(T > EXP_BUDGET):
        raise ExponentBudgetError("T exceeds the exponent budget")
    return series_tail(N, T)


def eval_psi_N(fam: PerturbationFamily, N: int, t) -> tuple:
    """Psi_N(t), the integrand truncated at order N, and its derivative.

    Psi_N  = (1 + g(t)) (1 + t^2 + phi_N(t^2))
    Psi_N' = 2 t H(t) phi_N(t^2) + 2 t (1 + t^(2N)/N!) (1 + g) + g' (1 + t^2)

    For N = 1, 1 + T + phi_1(T) = 1 + phi_0(T) = e^T with T = t^2, so

    Psi_1  = (1 + g) e^T
    Psi_1' = (2 t (1 + g) + g') e^T

    is evaluated in closed form; N >= 2 goes through the series tail phi_N.

    A t with no axes (the ODE solvers pass Python floats) takes the scalar
    path of `eval_g`, `phi_N` and `math` and gives Python floats; an array
    with at least one axis takes the array path.
    """
    _check_order(N)
    scalar = isinstance(t, float) or np.ndim(t) == 0
    t = abs(float(t)) if scalar else np.abs(np.asarray(t, dtype=float))
    T = t * t
    if (T > EXP_BUDGET) if scalar else np.any(T > EXP_BUDGET):
        raise ExponentBudgetError("t^2 exceeds the exponent budget")
    g, dg = eval_g(fam, t)
    if N == 1:
        eT = math.exp(T) if scalar else np.exp(T)
        psi = (1.0 + g) * eT
        dpsi = (2.0 * t * (1.0 + g) + dg) * eT
    else:
        ph = phi_N(N, T)
        psi = (1.0 + g) * (1.0 + T + ph)
        # g'(0) = 0, so t H(t) = t + t g + g'/2 is 0 at t = 0
        tH = t + t * g + dg / 2.0
        dpsi = (2.0 * tH * ph + 2.0 * t * (1.0 + power_term(N, T)) * (1.0 + g)
                + dg * (1.0 + T))
    return psi, dpsi


def xi(N: int, gamma: float) -> float:
    """Truncation weight gamma^(2(N-1)) / (phi_{N-1}(gamma^2) (N-1)!)."""
    _check_order(N)
    if gamma <= 0:
        raise ValueError("gamma > 0 required")
    T = float(gamma) * float(gamma)
    if T > EXP_BUDGET:
        raise ExponentBudgetError("gamma^2 exceeds the exponent budget")
    return term_over_tail(N - 1, T)


# -- asymptotic data --------------------------------------------------------

# A power-log piece (coef, p, q) stands for coef * gamma^-p * (log gamma)^-q.
Piece = tuple[float, float, float]


def _eval_pieces(pieces: tuple[Piece, ...], gam):
    """Sum of the pieces at gamma > 1, in their order."""
    gam = np.asarray(gam, dtype=float)
    return sum((coef * gam ** (-p) * np.log(gam) ** (-q) for coef, p, q in pieces),
               np.zeros_like(gam))


@dataclass(frozen=True)
class AsymptoticData:
    """Closed-form decay data of a family: the infinity-side coefficient
    A(gamma) and the zero-side coefficient B(gamma), each a sum of
    power-log pieces, and the profile F(t) = t^kappa."""

    A_pieces: tuple[Piece, ...]
    B_pieces: tuple[Piece, ...]
    kappa: float

    def A(self, gam):
        return _eval_pieces(self.A_pieces, gam)

    def B(self, gam):
        return _eval_pieces(self.B_pieces, gam)

    def F(self, t):
        return np.asarray(t, dtype=float) ** self.kappa


def asymptotic_data(fam: PerturbationFamily) -> AsymptoticData:
    """A, B, F, kappa of a family.  A Zero family is the PowerLog one with
    c = c' = g0 = 0; pieces with a zero coefficient are left out.

        A(gamma) = c' a' gamma^-(a'+2) (log gamma)^-b'        (a' > 0)
                 = c' b' gamma^-2 (log gamma)^-(b'+1)          (a' = 0)
        B(gamma) = (1 + g0) gamma^-1 + c (a+1)/2 gamma^-a (log gamma)^-b
    """
    cp, ap, bp = fam.c_prime, fam.a_prime, fam.b_prime
    A = ((cp * ap, ap + 2.0, bp) if ap > 0 else (cp * bp, 2.0, bp + 1.0),)
    B = ((1.0 + fam.g0, 1.0, 0.0), (0.5 * fam.c * (fam.a + 1.0), fam.a, fam.b))
    return AsymptoticData(A_pieces=tuple(pc for pc in A if pc[0] != 0.0),
                          B_pieces=tuple(pc for pc in B if pc[0] != 0.0),
                          kappa=min(fam.a, 1.0) if fam.c != 0.0 else 1.0)
