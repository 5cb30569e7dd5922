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
from enum import Enum

from .domain import MOMENT_RTOL
from .numerics import left_sum
from .perturbation import AsymptoticData, PerturbationFamily, asymptotic_data

__all__ = [
    "Verdict",
    "Cor2Class",
    "CriterionReport",
    "ratio_value",
    "closed_form_l",
    "limit_l",
    "classify",
    "cor2_classifier",
    "LOG_GAMMA_GRID",
]

# k = log(gamma) for the finite-gamma diagnostics of l: gamma = e^65536 is
# no double, so the ratio is evaluated in k
LOG_GAMMA_GRID = tuple(2.0**j for j in range(6, 17))


class Verdict(str, Enum):
    EXISTS_L = "ExtremalExists_l"
    EXISTS_LAMBDA = "ExtremalExists_Lambda"
    NO_EXTREMAL = "NoExtremal_Truncations"
    INCONCLUSIVE = "Inconclusive"


class Cor2Class(str, Enum):
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    BORDER = "Border"


def ratio_value(data: AsymptoticData, M: float, S: float, k: float) -> float:
    """Evaluate the criterion ratio at the height gamma = e^k.

    The terms gamma^-4, A and gamma^-3 B are sums of pieces
    C*e^{-pk}*k^{-q}.  Each piece is scaled by e^m, m the smallest exponent
    pk + q log k of all pieces, so none underflows and the slowest has
    size |C| > 0.
    """
    logk = math.log(k)
    g4 = ((1.0, 4.0, 0.0),)
    B = tuple((coef, p + 3.0, q) for coef, p, q in data.B_pieces)
    m = min(p * k + q * logk for _, p, q in g4 + data.A_pieces + B)

    def total(pieces):
        return left_sum(coef * math.exp(m - p * k - q * logk) for coef, p, q in pieces)

    s4, sA, sB = total(g4), total(data.A_pieces), total(B)
    num = s4 + 0.5 * sA + 4.0 * S * math.exp(-1.0 - M) * sB
    return num / (s4 + abs(sA) + abs(sB))


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
    num = left_sum(w * pieces[key] for w, pieces in terms if key in pieces)
    den = left_sum(abs(pieces[key]) for _, pieces in terms if key in pieces)
    return num / den


def limit_l(data: AsymptoticData, M: float, S: float) -> tuple[float, float]:
    """Extrapolate the ratio over LOG_GAMMA_GRID: a diagnostic, not the verdict's l.

    Returns (l, spread), the spread of the last three extrapolants.  One
    Richardson step in 1/log(gamma) removes no (log gamma)^-q piece of small
    q, so the extrapolant can even have the other sign from the limit.
    """
    ks = LOG_GAMMA_GRID
    vals = [ratio_value(data, M, S, k) for k in ks]
    # Richardson in 1/log gamma: eliminate the c/k term pairwise
    extr = [(ks[j] * vals[j] - ks[j - 1] * vals[j - 1]) / (ks[j] - ks[j - 1])
            for j in range(1, len(vals))]
    tail = extr[-3:]
    return tail[-1], max(tail) - min(tail)


class CriterionReport:
    M: float
    S: float
    lambda_g: float
    lambda_gap: float
    pi_e_level: float
    l_closed: float
    l_confidence: float
    verdict: Verdict
    diagnostics: dict

    def __init__(self, M, S, lambda_g, lambda_gap, pi_e_level, l_closed, l_confidence, verdict,
                 diagnostics=None):
        self.M = M
        self.S = S
        self.lambda_g = lambda_g
        self.lambda_gap = lambda_gap
        self.pi_e_level = pi_e_level
        self.l_closed = l_closed
        self.l_confidence = l_confidence
        self.verdict = verdict
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_json(self) -> dict:
        return {
            "M": self.M, "S": self.S, "lambda_g": self.lambda_g,
            # strict JSON: an ascent that did not end on rtol has an inf gap
            "lambda_gap": self.lambda_gap if math.isfinite(self.lambda_gap) else None,
            "pi_e_level": self.pi_e_level, "l_closed": self.l_closed,
            "l_confidence": self.l_confidence,
            "verdict": self.verdict.value, "diagnostics": self.diagnostics,
        }


def classify(M: float, S: float, lambda_g: float, l_closed: float,
             lambda_gap: float = 0.0, diagnostics: dict | None = None) -> CriterionReport:
    """Assemble the existence verdict from the computed quantities.

    The sign of l is that of its closed form l_closed, the limit as
    gamma -> inf, and l_confidence is l_closed's error bar, propagated from
    M and S.  At the slowest (p, q), l = (n + 4 e^{-1-M} S b) / D with
    |b| <= D, so the bar is 4 e^{-1-M} (dS + S dM).  criterion serves the
    unit disk only, where dM = 0 (M is 2 log1p(0)) and dS = MOMENT_RTOL * S.
    lambda_gap is the reported optimization gap of the Lambda_g solve;
    comparisons within the gap are treated as undecided.  For the
    no-extremal branch the conclusion applies to the truncations of g at
    every order N large enough (the statement is asymptotic in N).
    """
    level = math.pi * math.exp(1.0 + M)
    diag = dict(diagnostics or {})
    l_confidence = 4.0 * math.exp(-1.0 - M) * S * MOMENT_RTOL
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
    return CriterionReport(M=M, S=S, lambda_g=lambda_g, lambda_gap=lambda_gap,
                           pi_e_level=level, l_closed=l_closed, l_confidence=l_confidence,
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


def ratio_curve_csv(data: AsymptoticData, M: float, S: float) -> list:
    """The columns of the finite-gamma curve file: LOG_GAMMA_GRID and the
    ratio at each of its points."""
    return [LOG_GAMMA_GRID, [ratio_value(data, M, S, k) for k in LOG_GAMMA_GRID]]
