"""Even C^1 perturbation weights and their derived functions.

The toolkit works with integrands of the form (1 + g(u)) * exp(u^2) where g
is an even C^1 perturbation with g > -1 and g -> 0 at infinity.  This module
provides:

* the perturbation families (zero, power-log branches), refused when g
  dips to -1 or below, or g or g' is not finite, on either branch or on
  the blend between them,
* the derived functions H, Psi_N, phi_N and the truncation weight xi,
* the asymptotic data (A, B, F, kappa) attached to a family.

A T = t^2 past the exponent budget EXP_BUDGET is refused.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum

import numpy as np

from .numerics import EXP_BUDGET, left_sum, power_term, series_tail, term_over_tail

__all__ = [
    "NonAdmissibleError",
    "ExponentBudgetError",
    "FamilyKind",
    "PerturbationFamily",
    "AsymptoticData",
    "PowerProfile",
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


class _Frozen:
    """Fields that `__init__` sets once, by object.__setattr__ or in the
    instance dict: any later assignment or deletion raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """A frozen value: two of one class are equal, and hash alike, when
    their `_key()` tuples of fields are."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class PerturbationFamily(_Value):
    """An even perturbation g, evaluated at |t|.

    kind = Zero gives g identically 0.  kind = PowerLog uses the two
    analytic branches

        g(t) = g0 + c * t^(a+1) * log(1/t)^(-b)        for t <= 1/R'
        g(t) = c' * t^(-a') * (log t)^(-b')            for t >= R'

    joined on [1/R', R'] by a quintic C^1 Hermite blend (see `_blend_coeffs`).
    Each numeric field must be a finite real number, not a bool (ValueError
    naming the field), and is kept as a float.  A PowerLog family whose g
    reaches -1, or whose g or g' is not finite, on any of the three pieces
    is refused with NonAdmissibleError.  A Zero family leaves every PowerLog
    field at its default.  Families are frozen values: equal fields make
    equal families.
    """

    # (name, default) of each field, in the constructor's order
    _FIELDS = (("kind", FamilyKind.ZERO), ("c", 0.0), ("a", 0.0), ("b", 0.0),
               ("c_prime", 0.0), ("a_prime", 0.0), ("b_prime", 0.0), ("R_prime", 10.0),
               ("g0", 0.0))

    def __init__(self, kind=FamilyKind.ZERO, c=0.0, a=0.0, b=0.0, c_prime=0.0, a_prime=0.0,
                 b_prime=0.0, R_prime=10.0, g0=0.0):
        object.__setattr__(self, "kind", FamilyKind(kind))
        numeric = self._FIELDS[1:]
        for (name, _), value in zip(numeric, (c, a, b, c_prime, a_prime, b_prime, R_prime, g0)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number (got {value!r})")
            object.__setattr__(self, name, float(value))
        if self.kind is FamilyKind.ZERO:
            given = [name for name, default in numeric if getattr(self, name) != default]
            if given:
                raise ValueError(f"a Zero family takes no other field (got {', '.join(given)})")
            object.__setattr__(self, "_g_float", lambda t: (0.0, 0.0))
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
            with np.errstate(all="ignore"):  # _check_admissible refuses an inf or nan
                object.__setattr__(self, "_hermite", self._blend_coeffs())
            self._check_admissible()
            object.__setattr__(self, "_g_float", self._float_evaluator())

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self._FIELDS)

    # -- PowerLog branches ------------------------------------------------
    #
    # Each branch takes an array or a NumPy scalar (the float evaluator
    # passes np.float64(t)), so a float meets the array's operations.

    def _g_zero_branch(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Near-zero branch and derivative, valid for 0 < t < 1.  With
        c = 0 the branch is the constant g0, and t**p and log are skipped.
        Below about 5.6e-309, where 1/t overflows, log(1/t) is taken as
        -log t."""
        if self.c == 0.0:
            return self.g0 + 0.0 * t, 0.0 * t
        p = self.a + 1.0
        with np.errstate(over="ignore"):
            inv = 1.0 / t
        # [()] makes where's 0-d result for a NumPy scalar t a scalar again:
        # a 0-d array's powers may round apart from a scalar's
        L = np.where(np.isinf(inv), -np.log(t), np.log(inv))[()]
        val = self.g0 + self.c * t**p * L ** (-self.b)
        dval = self.c * t ** (p - 1.0) * (p * L ** (-self.b) + self.b * L ** (-self.b - 1.0))
        return val, dval

    def _g_inf_branch(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Infinity branch and derivative, valid for t > 1."""
        ell = np.log(t)
        val = self.c_prime * t ** (-self.a_prime) * ell ** (-self.b_prime)
        dval = (
            -self.c_prime
            * t ** (-self.a_prime - 1.0)
            * ell ** (-self.b_prime - 1.0)
            * (self.a_prime * ell + self.b_prime)
        )
        return val, dval

    def _float_evaluator(self):
        """(g(t), g'(t)) as Python floats at a float t >= 0, built once per
        family and stored as `_g_float`: plain comparisons pick the branch,
        and the blend runs `_hermite_eval`'s operations in its order on
        Python floats after np.log (math.log may round apart)."""
        t1, r, g0 = self._t1, self.R_prime, self.g0
        h0, h1, h2, c3, c4, c5 = self._hermite
        h2_2, c3_3, c4_4, c5_5 = 2.0 * h2, 3.0 * c3, 4.0 * c4, 5.0 * c5
        L = self._log_span
        half_L = 0.5 * L
        zero_branch, inf_branch = self._g_zero_branch, self._g_inf_branch
        log, f64 = np.log, np.float64

        def g_float(t: float) -> tuple[float, float]:
            if t == 0.0:
                g, dg = g0, 0.0
            elif t <= t1:
                g, dg = zero_branch(f64(t))
            elif t >= r:
                g, dg = inf_branch(f64(t))
            else:
                x = (float(log(t)) + half_L) / L
                g = h0 + x * (h1 + x * (h2 + x * (c3 + x * (c4 + x * c5))))
                dg = (h1 + x * (h2_2 + x * (c3_3 + x * (c4_4 + x * c5_5)))) / (L * t)
            if g <= -1.0:
                raise NonAdmissibleError("g(t) <= -1 encountered")
            return float(g), float(dg)

        return g_float

    def _check_admissible(self) -> None:
        """Refuse a non-finite blend coefficient, then a non-finite g or g',
        or g <= -1 (with a 1e-9 margin), on log-spaced samples of each piece.
        The near-zero branch takes 4096 on [1e-12, 1/R'], the blend 4096 on
        [1/R', R'] and the infinity branch 4096 on [R', 1e6 R']; each branch
        takes 256 more from its knot out to 5e-324 (the least subnormal) or
        1e308, where a power of its log can overflow.  The
        blend's coefficients come from the branches' jets at the knots and
        may already be inf or nan."""
        if not all(map(math.isfinite, self._hermite)):
            raise NonAdmissibleError("Hermite blend has a non-finite coefficient")
        r = self.R_prime
        for name, piece, samples in (
            ("infinity branch", self._g_inf_branch, ((r, r * 1e6, 4096), (r, 1e308, 256))),
            ("near-zero branch", self._g_zero_branch,
             ((1e-12, 1.0 / r, 4096), (5e-324, 1.0 / r, 256))),
            ("Hermite blend", lambda t: _hermite_eval(self, t), ((1.0 / r, r, 4096),)),
        ):
            for lo, hi, n in samples:
                with np.errstate(all="ignore"):
                    g, dg = piece(np.geomspace(lo, hi, n))
                if not (np.isfinite(g).all() and np.isfinite(dg).all()):
                    raise NonAdmissibleError(f"{name} is not finite")
                if g.min() <= -1.0 + 1e-9:
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
        (log t + log R') / (2 log R'): h0, h1, h2 from the left knot's jet
        and c3, c4, c5 from `_blend_tail`, with no linear solve.
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
        c3, c4, c5 = _blend_tail(v2 - (h0 + h1 + h2), d2 * L - (h1 + 2 * h2),
                                 s2 * L * L - 2 * h2)
        return (h0, h1, h2, c3, c4, c5)

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(obj: dict) -> "PerturbationFamily":
        """Read the keys `kind` (a `FamilyKind` value), `c`, `a`, `b`,
        `c_prime`, `a_prime`, `b_prime`, `R_prime` and `g0`; an absent key
        takes its default and any other key is refused."""
        if not isinstance(obj, dict):
            raise ValueError("must be a JSON object")
        keys = {name for name, _ in PerturbationFamily._FIELDS}
        unknown = sorted(set(obj) - keys)
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return PerturbationFamily(**obj)


def _blend_tail(r0: float, r1: float, r2: float) -> tuple[float, float, float]:
    """c3, c4, c5 with c3 + c4 + c5 = r0, 3 c3 + 4 c4 + 5 c5 = r1 and
    6 c3 + 12 c4 + 20 c5 = r2: the value, slope and curvature that the
    quintic's top three terms add at x = 1.  The system's inverse is
    [[10, -4, 1/2], [-15, 7, -1], [6, -3, 1/2]], applied on floats, so no
    LAPACK solve runs."""
    return (10.0 * r0 - 4.0 * r1 + 0.5 * r2,
            -15.0 * r0 + 7.0 * r1 - r2,
            6.0 * r0 - 3.0 * r1 + 0.5 * r2)


def eval_g(fam: PerturbationFamily, t) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (g(t), g'(t)) at |t|; works on numbers and arrays.

    A t with no axes (a float, an int, a NumPy scalar or a 0-d array)
    takes the family's float evaluator: plain comparisons pick its branch
    and the result is a pair of Python floats.  An array with at least one
    axis picks each point's branch by masks.  Both paths evaluate the same
    branch functions.
    """
    if isinstance(t, float) or np.ndim(t) == 0:
        return fam._g_float(abs(float(t)))
    return _eval_g_array(fam, np.abs(np.asarray(t, dtype=float)))


def _eval_g_array(fam: PerturbationFamily, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eval_g`'s array path, on a float array t >= 0."""
    if fam.kind is FamilyKind.ZERO:
        return np.zeros(t.shape), np.zeros(t.shape)
    g, dg = _eval_power_log(fam, t)
    if (g <= -1.0).any():
        raise NonAdmissibleError("g(t) <= -1 encountered")
    return g, dg


def _eval_power_log(fam: PerturbationFamily, t: np.ndarray):
    """The blend is evaluated on every point, 1.0 (inside it) standing in at
    the branch points, and each branch then overwrites its own points; each
    point takes the operations of the branch that `eval_g`'s scalar path
    picks for it by comparisons.  This pays where most points lie inside
    the blend, as in the ascents on the default R' = 10; an array mostly
    on the branches pays for the blend on points it then overwrites."""
    low = t <= fam._t1
    high = t >= fam.R_prime
    ends = low | high
    g, dg = _hermite_eval(fam, np.where(ends, 1.0, t))
    if ends.any():
        at0 = t == 0.0  # inside low, so low ^ at0 is low without it
        for mask, branch in ((low ^ at0, fam._g_zero_branch), (high, fam._g_inf_branch)):
            if mask.any():
                g[mask], dg[mask] = branch(t[mask])
        g[at0], dg[at0] = fam.g0, 0.0
    return g, dg


def _hermite_eval(fam: PerturbationFamily, t: np.ndarray):
    """The blend and its derivative at an array t; the family's float
    evaluator runs the same operations on a float."""
    h0, h1, h2, c3, c4, c5 = fam._hermite
    L = fam._log_span
    x = (np.log(t) + 0.5 * L) / L
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

    A t with no axes (the ODE solvers pass Python floats) takes the family's
    float evaluator, `series_tail` and `math` and gives Python floats; an
    array with at least one axis takes the array path, on |t| taken once.
    A plain int N >= 1 is taken without `_check_order`'s tests.
    """
    if type(N) is not int or N < 1:
        _check_order(N)
    scalar = isinstance(t, float) or np.ndim(t) == 0
    t = abs(float(t)) if scalar else np.abs(np.asarray(t, dtype=float))
    T = t * t
    if (T > EXP_BUDGET) if scalar else (T > EXP_BUDGET).any():
        raise ExponentBudgetError("t^2 exceeds the exponent budget")
    g, dg = fam._g_float(t) if scalar else _eval_g_array(fam, t)
    g1 = 1.0 + g
    if N == 1:
        eT = math.exp(T) if scalar else np.exp(T)
        return g1 * eT, (2.0 * t * g1 + dg) * eT
    # phi_N(N, T) without its checks: N and 0 <= T <= EXP_BUDGET hold here
    ph = series_tail(N, T)
    # g'(0) = 0, so t H(t) = t + t g + g'/2 is 0 at t = 0
    tH = t + t * g + dg / 2.0
    return (g1 * (1.0 + T + ph),
            2.0 * tH * ph + 2.0 * t * (1.0 + power_term(N, T)) * g1 + dg * (1.0 + T))


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
    return left_sum((coef * gam ** (-p) * np.log(gam) ** (-q) for coef, p, q in pieces),
                    np.zeros_like(gam))


class PowerProfile(_Value):
    """The profile F(t) = t^kappa, a callable that carries its exponent, so
    that `domain.robin_report` reads the radial moments in closed form."""

    kappa: float

    def __init__(self, kappa):
        object.__setattr__(self, "kappa", kappa)

    def _key(self) -> tuple:
        return (self.kappa,)

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.kappa


class AsymptoticData(_Value):
    """Closed-form decay data of a family: the infinity-side coefficient
    A(gamma) and the zero-side coefficient B(gamma), each a sum of
    power-log pieces, and the profile F = PowerProfile(kappa)."""

    A_pieces: tuple[Piece, ...]
    B_pieces: tuple[Piece, ...]
    kappa: float

    def __init__(self, A_pieces, B_pieces, kappa):
        object.__setattr__(self, "A_pieces", A_pieces)
        object.__setattr__(self, "B_pieces", B_pieces)
        object.__setattr__(self, "kappa", kappa)

    def _key(self) -> tuple:
        return (self.A_pieces, self.B_pieces, self.kappa)

    def A(self, gam):
        return _eval_pieces(self.A_pieces, gam)

    def B(self, gam):
        return _eval_pieces(self.B_pieces, gam)

    @property
    def F(self) -> PowerProfile:
        return PowerProfile(self.kappa)


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
