"""Existence criterion: the limit ratio l and the verdict assembly.

The decisive quantity is

    l = lim_{gamma->inf} ( g^-4 + A(g)/2 + 4 g^-3 e^{-1-M} B(g) S )
                       / ( g^-4 + |A(g)| + g^-3 |B(g)| ),

where M is the Robin maximum, S the concentration integral, and A, B the
decay/zero-behavior coefficients of the perturbation.  Existence of an
extremal holds when l > 0 or when Lambda_g >= pi e^{1+M}; truncated
perturbations admit no extremal when l < 0 and Lambda_g < pi e^{1+M}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .csvout import write_csv
from .perturbation import AsymptoticData, PerturbationFamily, asymptotic_data

__all__ = [
    "Verdict",
    "Cor2Class",
    "CriterionReport",
    "ZeroDenominatorError",
    "NoLimitError",
    "ratio_value",
    "closed_form_l",
    "limit_l",
    "classify",
    "cor2_classifier",
    "DEFAULT_GAMMA_GRID",
]

DEFAULT_GAMMA_GRID = tuple(math.exp(k) for k in range(2, 9))
# Largest spread of the last three grid extrapolants that still counts as a limit.
_SPREAD_THRESHOLD = 0.25


class ZeroDenominatorError(ArithmeticError):
    """All three denominator terms of the ratio underflowed."""


class NoLimitError(RuntimeError):
    """Grid values oscillate beyond the spread threshold."""


class Verdict(str, Enum):
    EXISTS_L = "ExtremalExists_l"
    EXISTS_LAMBDA = "ExtremalExists_Lambda"
    NO_EXTREMAL = "NoExtremal_Truncations"
    INCONCLUSIVE = "Inconclusive"


class Cor2Class(str, Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    BORDER = "Border"


def ratio_value(data: AsymptoticData, M: float, S: float, gamma: float) -> float:
    """Evaluate the criterion ratio at a single height gamma."""
    A = float(data.A(gamma))
    B = float(data.B(gamma))
    g4 = gamma**-4.0
    den = g4 + abs(A) + abs(B) / gamma**3
    if den == 0.0:
        raise ZeroDenominatorError("all denominator terms underflowed")
    num = g4 + 0.5 * A + 4.0 * B * S * math.exp(-1.0 - M) / gamma**3
    return num / den


def _merged(pieces) -> dict:
    """{(p, q): summed coefficient} in piece order, without sums that cancel."""
    out = {}
    for coef, p, q in pieces:
        out[p, q] = out.get((p, q), 0.0) + coef
    return {key: coef for key, coef in out.items() if coef != 0.0}


def closed_form_l(fam: PerturbationFamily, M: float, S: float) -> float:
    """Limit of the ratio by exponent bookkeeping on the pieces of A and B.

    The ratio's three terms gamma^-4, gamma^-3 B and A are each a sum of
    pieces C*gamma^-p*(log gamma)^-q; a term's pieces with equal (p, q) are
    merged first, since |B| of two tied pieces is the modulus of their
    sum.  The limit is the numerator's coefficient over the denominator's
    at the lexicographically slowest-decaying (p, q) of all terms.
    """
    data = asymptotic_data(fam)
    cS = 4.0 * S * math.exp(-1.0 - M)
    # (numerator weight, merged pieces), summed in this order
    terms = [(1.0, {(4.0, 0.0): 1.0}),
             (cS, _merged((coef, p + 3.0, q) for coef, p, q in data.B_pieces)),
             (0.5, _merged(data.A_pieces))]
    key = min(min(pieces) for _, pieces in terms if pieces)
    num = sum(w * pieces[key] for w, pieces in terms if key in pieces)
    den = sum(abs(pieces[key]) for _, pieces in terms if key in pieces)
    return num / den


def limit_l(data: AsymptoticData, M: float, S: float,
            gamma_grid=DEFAULT_GAMMA_GRID) -> tuple[float, float]:
    """Extrapolate the ratio over a log-spaced gamma grid.

    Returns (l, confidence).  The grid values carry 1/log(gamma)-scale
    corrections, so one Richardson step in 1/log(gamma) is applied and
    the spread of the extrapolants is the confidence width.  Raises
    NoLimitError when the extrapolants spread by more than _SPREAD_THRESHOLD.
    """
    grid = sorted(gamma_grid)
    if len(grid) < 4:
        raise ValueError("need at least 4 grid points")
    vals = [ratio_value(data, M, S, g) for g in grid]
    ks = [math.log(g) for g in grid]
    # Richardson in 1/log gamma: eliminate the c/k term pairwise
    extr = [(ks[j] * vals[j] - ks[j - 1] * vals[j - 1]) / (ks[j] - ks[j - 1])
            for j in range(1, len(vals))]
    tail = extr[-3:]
    l_grid = tail[-1]
    confidence = max(tail) - min(tail)
    if confidence > _SPREAD_THRESHOLD:
        raise NoLimitError(f"ratio grid oscillates: spread {confidence:.3g}")
    return l_grid, confidence


@dataclass
class CriterionReport:
    M: float
    S: float
    lambda_g: float
    pi_e_level: float
    l_closed: float
    l_grid: float
    l_confidence: float
    verdict: Verdict
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "M": self.M, "S": self.S, "lambda_g": self.lambda_g,
            "pi_e_level": self.pi_e_level, "l_closed": self.l_closed,
            "l_grid": self.l_grid, "l_confidence": self.l_confidence,
            "verdict": self.verdict.value, "diagnostics": self.diagnostics,
        }


def classify(M: float, S: float, lambda_g: float, l: float, l_confidence: float,
             l_closed: float, lambda_gap: float = 0.0,
             diagnostics: dict | None = None) -> CriterionReport:
    """Assemble the existence verdict from the computed quantities.

    l is the grid extrapolant of limit_l and l_confidence its spread.  The
    closed form l_closed decides the sign, and its distance to the grid
    value widens the reported confidence.
    lambda_gap is the reported optimization gap of the Lambda_g solve;
    comparisons within the gap are treated as undecided.  For the
    no-extremal branch the conclusion applies to the truncations of g at
    every order N large enough (the statement is asymptotic in N).
    """
    level = math.pi * math.exp(1.0 + M)
    l_confidence = max(l_confidence, abs(l_closed - l))
    diag = dict(diagnostics or {})
    if l_closed > l_confidence:
        verdict = Verdict.EXISTS_L
    elif lambda_g - lambda_gap >= level:
        verdict = Verdict.EXISTS_LAMBDA
    elif l_closed < -l_confidence and lambda_g + lambda_gap < level:
        verdict = Verdict.NO_EXTREMAL
        diag["note"] = ("no extremal for the truncated perturbations g_N, "
                        "N large; the truncation threshold is non-constructive")
    else:
        verdict = Verdict.INCONCLUSIVE
    return CriterionReport(M=M, S=S, lambda_g=lambda_g, pi_e_level=level,
                           l_closed=l_closed, l_grid=l, l_confidence=l_confidence,
                           verdict=verdict, diagnostics=diag)


def cor2_classifier(a_prime: float, b_prime: float, c_prime: float) -> Cor2Class:
    """Power-decay corollary: existence by (a', c') alone, border at a'=2.

    Requires (a', b') admissible and c' nonzero.  The border case a'=2,
    c'<0 is resolved by the sign of the limit l against the threshold
    c'* = -(1 + 2/e).
    """
    if c_prime == 0.0:
        raise ValueError("c' must be nonzero")
    if a_prime < 0.0 or (a_prime == 0.0 and b_prime <= 0.0):
        raise ValueError("(a', b') must be admissible")
    if a_prime > 2.0 or c_prime > 0.0:
        return Cor2Class.EXISTS
    if a_prime < 2.0:
        return Cor2Class.NOT_EXISTS
    return Cor2Class.BORDER


def ratio_curve_csv(path: str, data: AsymptoticData, M: float, S: float,
                    gamma_grid=DEFAULT_GAMMA_GRID) -> None:
    """Emit the (gamma, ratio) curve for plotting."""
    gammas = sorted(gamma_grid)
    write_csv(path, ["gamma", "ratio"], [gammas, [ratio_value(data, M, S, g) for g in gammas]])
