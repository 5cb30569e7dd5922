"""Variational solvers on the radial disk: the constrained Moser problem,
the nonlinear eigenvalue Lambda_g, and the two test-function energies.

Radial functions on [0,1] are piecewise linear on a sinh-graded grid;
Dirichlet energy is the quadratic form of the radial P1 stiffness matrix
(2 pi int u'v' r dr) and integral functionals use the vertex-lumped
weights 2 pi int phi_j r dr, exact for linear integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solveh_banded
from scipy.optimize import brentq

from .csvout import write_csv
from .domain import DomainModel, Shape, first_eigenfunction
from .perturbation import AsymptoticData, PerturbationFamily, eval_g, eval_psi_N
from .profiles import B0_CONSTANT, RadialProfile

__all__ = [
    "GridFunction",
    "ExtremalRun",
    "RootFailError",
    "make_grid",
    "solve_subcritical",
    "lambda_g_report",
    "step1_testfun",
    "model_testfun_energy",
]


class RootFailError(RuntimeError):
    """The height equation for the model scale has no bracketed root."""


# sinh grading of the radial grid toward r = 0 and r = 1
_GRID_KAPPA = 3.0
# _ascend stops after _MAX_ITER steps, or once the relative gain of three
# steps in a row falls below _RTOL
_MAX_ITER = 4000
_RTOL = 1e-12


def make_grid(n: int = 2000) -> np.ndarray:
    """Radial grid on [0,1], sinh-graded toward both endpoints."""
    x = np.linspace(-1.0, 1.0, n)
    r = 0.5 * (1.0 + np.sinh(_GRID_KAPPA * x) / math.sinh(_GRID_KAPPA))
    r[0], r[-1] = 0.0, 1.0
    return r


def _stiffness(r: np.ndarray) -> np.ndarray:
    """Banded (upper) radial P1 stiffness: 2 pi int u' v' rho drho."""
    h = np.diff(r)
    k = 2.0 * math.pi * 0.5 * (r[:-1] + r[1:]) / h
    n = r.size
    ab = np.zeros((2, n))
    ab[1, :-1] += k
    ab[1, 1:] += k
    ab[0, 1:] = -k
    return ab


def _energy(ab: np.ndarray, u: np.ndarray) -> float:
    """Dirichlet energy of nodal values u, trapezoid-on-gradient form of
    the stiffness band ab."""
    k = ab[0, 1:]
    return float(np.sum(-k * (u[1:] - u[:-1]) ** 2))


def _load_weights(r: np.ndarray) -> np.ndarray:
    """Vertex weights 2 pi int phi_j(rho) rho drho (sum to pi on [0,1])."""
    h = np.diff(r)
    w = np.zeros_like(r)
    w[:-1] += 2.0 * math.pi * h * (2.0 * r[:-1] + r[1:]) / 6.0
    w[1:] += 2.0 * math.pi * h * (r[:-1] + 2.0 * r[1:]) / 6.0
    return w


@dataclass
class GridFunction:
    """Nonnegative radial profile with zero boundary value at r=1."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values[-1] != 0.0:
            raise ValueError("boundary value u(1) must vanish")
        self._ab = _stiffness(self.grid)

    def energy(self) -> float:
        """Dirichlet energy via the trapezoid-on-gradient (stiffness) form."""
        return _energy(self._ab, self.values)

    def to_csv(self, path: str) -> None:
        write_csv(path, ["r", "u"], [self.grid, self.values])


@dataclass
class ExtremalRun:
    alpha: float
    u: GridFunction
    J_value: float
    gamma: float
    lam: float
    el_residual: float
    saturated: bool
    start: str = ""
    iterations: int = 0

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "J": self.J_value, "gamma": self.gamma,
                "lambda": self.lam, "el_residual": self.el_residual,
                "saturated": self.saturated, "start": self.start,
                "iterations": self.iterations}


def _project(u: np.ndarray, ab: np.ndarray, alpha: float) -> np.ndarray:
    e = _energy(ab, u)
    if e > alpha:
        u = u * math.sqrt(alpha / e)
    return u


def _ascend(value_grad, u0: np.ndarray, r: np.ndarray, alpha: float):
    """Projected gradient ascent in the H^1_0 metric with BB steps.

    value_grad takes a nodal vector (boundary node fixed at 0) and returns
    the functional and its nodal gradient from one evaluation, so every
    line-search trial costs one call and the accepted trial's gradient
    feeds the next direction.  The ascent direction is the H^1 Riesz
    representative K^{-1} grad.  Returns (u, J, grad at u, iterations).
    """
    ab = _stiffness(r)
    ab_int = ab[:, :-1].copy()  # Dirichlet: drop the boundary node

    def riesz(gvec):
        d = np.zeros_like(gvec)
        d[:-1] = solveh_banded(ab_int, gvec[:-1])
        return d

    u = _project(u0.copy(), ab, alpha)
    J, G = value_grad(u)
    d = riesz(G)
    step = 0.1 * math.sqrt(alpha / max(_energy(ab, d), 1e-300))
    stall = 0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        accepted = False
        s = step
        for _ in range(40):
            u_try = _project(np.maximum(u + s * d, 0.0), ab, alpha)
            J_try, G_try = value_grad(u_try)
            if J_try > J:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        du = u_try - u
        u, J_prev, J, G = u_try, J, J_try, G_try
        d_new = riesz(G)
        dd = d_new - d
        denom = float(np.dot(du, -_apply_K(ab, dd)))
        num = float(np.dot(du, _apply_K(ab, du)))
        step = abs(num / denom) if denom * num != 0.0 else 2.0 * s
        d = d_new
        rel = abs(J - J_prev) / max(abs(J), 1e-300)
        stall = stall + 1 if rel < _RTOL else 0
        if stall >= 3:
            break
    return u, J, G, it


def _apply_K(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[0, 1:] * v[:-1]
    return out


def _make_starts(r: np.ndarray, alpha: float, which) -> list:
    eig = first_eigenfunction(DomainModel())
    out = []
    for name in which:
        if name == "flat":
            u = 0.3 * (1.0 - r * r)
        elif name == "bubble":
            eps = 0.1
            u = np.log((1.0 + eps**2) / (eps**2 + r * r))
        elif name == "eigen":
            u = eig(r)
        else:
            raise ValueError(f"unknown start {name!r}")
        u[-1] = 0.0
        e = GridFunction(r, u).energy()
        out.append((name, u * math.sqrt(alpha / e)))
    return out


def solve_subcritical(fam: PerturbationFamily, N: int, alpha: float,
                      starts=("flat", "bubble", "eigen"), n_grid: int = 2000) -> ExtremalRun:
    """Maximize the Moser functional over the H^1_0 ball of radius^2 alpha.

    Runs projected gradient ascent from each start and keeps the best.
    Reports the Lagrange multiplier of Delta u = lambda u H(u) e^{u^2}
    (Rayleigh quotient at the constrained maximizer) and the relative
    discrete Euler-Lagrange residual.
    """
    if not 0.0 < alpha < 4.0 * math.pi:
        raise ValueError("alpha must lie in (0, 4 pi)")
    r = make_grid(n_grid)
    w = _load_weights(r)
    ab = _stiffness(r)

    def value_grad(u):
        psi, psi_p = eval_psi_N(fam, N, u)
        return float(np.dot(w, psi)), w * psi_p

    best = None
    for name, u0 in _make_starts(r, alpha, starts):
        u, J, F, it = _ascend(value_grad, u0, r, alpha)
        if best is None or J > best[1]:
            best = (u, J, F, name, it)
    u, J, F, name, it = best
    gf = GridFunction(r, u)
    e = gf.energy()
    # F is the nodal weak form of Psi'_N(u), i.e. 2 u H(u) e^{u^2} up to truncation
    Ku = _apply_K(ab, u)
    denom = float(np.dot(F[:-1], u[:-1]))
    lam = 2.0 * float(np.dot(Ku[:-1], u[:-1])) / denom if denom != 0.0 else 0.0
    resid_vec = Ku[:-1] - 0.5 * lam * F[:-1]
    el_res = float(np.linalg.norm(resid_vec) / max(np.linalg.norm(Ku[:-1]), 1e-300))
    return ExtremalRun(alpha=alpha, u=gf, J_value=J, gamma=float(np.max(u)),
                       lam=lam, el_residual=el_res,
                       saturated=abs(e - alpha) < 1e-6, start=name, iterations=it)


def lambda_g_report(fam: PerturbationFamily, dom: DomainModel | None = None,
                    n_grid: int = 2000) -> dict:
    """Maximize int ((1+g(u))(1+u^2) - (1+g(0))) over the 4 pi ball.

    Returns {"lambda_g": value, "gap": spread of the three starts' values,
    at least 1e-12 and at most 2% of the value}.  Disk-radial only.
    """
    if dom is not None and dom.shape is not Shape.UNIT_DISK:
        raise NotImplementedError("lambda_g is computed on the radial disk")
    r = make_grid(n_grid)
    w = _load_weights(r)
    g00, _ = eval_g(fam, 0.0)

    def value_grad(u):
        gu, gpu = eval_g(fam, u)
        return (float(np.dot(w, (1.0 + gu) * (1.0 + u * u) - (1.0 + g00))),
                w * (gpu * (1.0 + u * u) + 2.0 * u * (1.0 + gu)))

    alpha = 4.0 * math.pi
    values = [_ascend(value_grad, u0, r, alpha)[1]
              for _, u0 in _make_starts(r, alpha, ("eigen", "bubble", "flat"))]
    best = max(values)
    gap = max(1e-12, best - min(values))
    return {"lambda_g": best, "gap": min(gap, 0.02 * abs(best))}


def step1_testfun(dom: DomainModel, fam: PerturbationFamily, eps: float) -> dict:
    """Truncated-log test function at the disk center.

    v(r) = log((1+eps^2)/(eps^2+r^2)) vanishes on the boundary; it is
    rescaled to f with ||f||^2 = 4 pi exactly and the functional is
    evaluated with the substitution s = log(eps^2 + r^2), which resolves
    the eps-scale concentration.
    """
    if dom.shape is not Shape.UNIT_DISK:
        raise NotImplementedError("step1_testfun is radial at the disk center")
    if not 0.0 < eps <= 0.2:
        raise ValueError("eps must lie in (0, 0.2]")
    e2 = eps * eps
    # ||v||^2 = 2 pi int (2r/(e2+r^2))^2 r dr, analytic
    norm_sq = 4.0 * math.pi * (math.log1p(1.0 / e2) - 1.0 / (1.0 + e2))
    scale = math.sqrt(4.0 * math.pi / norm_sq)

    def integrand(s):
        # s = log(e2 + r^2), r dr = e^s ds / 2
        v = math.log1p(e2) - s
        f = scale * v
        gval, _ = eval_g(fam, f)
        return (1.0 + gval) * math.exp(f * f) * math.exp(s) * math.pi

    lo, hi = math.log(e2), math.log1p(e2)
    val = quad(integrand, lo, hi, limit=400)[0]
    return {"norm_sq": norm_sq, "J": val, "f_norm_sq": 4.0 * math.pi}


def _green_source(data: AsymptoticData):
    """q(0) and q' for q(x) = int_Omega G_x(y) F(4 pi G_0(y)) dy, x radial.

    On the disk q solves the radial Poisson problem q'' + q'/r = -F(4 pi G_0),
    q'(0) = 0, q(1) = 0; one cumulative trapezoid quadrature gives both.
    q' is returned as a function of the radius, because the radii where
    the model test function needs it depend on a scale fixed by q(0).
    """
    rr = np.geomspace(1e-10, 1.0, 4000)
    Fsrc = data.F(2.0 * np.log(1.0 / rr))
    # q'(rho) = -(1/rho) int_0^rho F s ds
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (Fsrc[1:] * rr[1:] + Fsrc[:-1] * rr[:-1])
                                           * np.diff(rr))])
    qp = -cum / rr
    # q(0) = -int_0^1 q'(rho) drho
    q0 = -float(np.cumsum(0.5 * (qp[1:] + qp[:-1]) * np.diff(rr))[-1])
    return q0, lambda r: np.interp(r, rr, qp)


def model_testfun_energy(dom: DomainModel, fam: PerturbationFamily,
                         data: AsymptoticData, profiles: dict, gamma: float) -> dict:
    """Energy of the model concentration profile at the disk center.

    Builds the four-bracket test function (log core, S0/S1 corrections,
    A-weighted S2 correction, Green-convolution tail), solves the height
    condition U(0) = gamma for the core scale mu~, and reports the
    normalized energy gap (||U||^2/4pi - 1 - I_0(gamma)) / zeta-check.
    """
    if dom.shape is not Shape.UNIT_DISK:
        raise NotImplementedError("model test function is radial at the disk center")
    g = gamma
    A = float(data.A(g))
    Bc = float(data.B(g))
    S0, S1v, S2v = profiles[0], profiles[1], profiles[2]
    robin_z = 0.0  # disk center
    S_int, q_prime = _green_source(data)
    coef_q = 4.0 * Bc / (g * g * math.exp(1.0 + robin_z))

    def height(L):
        # L = log(1/mu~^2); U(0) - gamma
        mu2 = math.exp(-L)
        inv_mu = math.exp(0.5 * L)
        # bracket (*): log(1/(r^2+mu~^2)) + H~ at r=0, H~ = log(1+mu~^2)
        tot = (L + math.log1p(mu2)) / g
        for i, P in ((0, S0), (1, S1v)):
            Htil = _bracket_const(P, inv_mu, L)
            tot += (P.A / (4.0 * math.pi) * (L + Htil) - P.B) / g ** (3 + 2 * i)
        Htil2 = _bracket_const(S2v, inv_mu, L)
        tot += A / g * (S2v.A / (4.0 * math.pi) * (L + Htil2) - S2v.B)
        tot += coef_q * S_int
        return tot - g

    # closed-form seed for the root bracket
    L_seed = g * g - 1.0 - robin_z + math.log1p(
        max(-0.9, -g * g * A / 2.0 - 4.0 * Bc * S_int / (g * math.exp(1.0 + robin_z))))
    try:
        L = brentq(height, L_seed - 5.0, L_seed + 5.0, xtol=1e-12)
    except ValueError as exc:
        raise RootFailError("height equation has no root in the bracket") from exc
    mu2 = math.exp(-L)
    mu = math.sqrt(mu2)
    inv_mu = 1.0 / mu

    H_m1 = math.log1p(mu2)
    H_i = [_bracket_const(P, inv_mu, L) for P in (S0, S1v, S2v)]

    # ||U||^2 = 2 pi int U'(r)^2 r dr with t = log(1 + r^2/mu^2)
    t_max = math.log1p(1.0 / mu2)
    t = np.linspace(1e-12, t_max, 6001)
    r2 = mu2 * np.expm1(t)
    r = np.sqrt(r2)
    dUdr = -2.0 * r / (r2 + mu2) / g
    dUdr += S0.derivative(r / mu) / (mu * g**3)
    dUdr += S1v.derivative(r / mu) / (mu * g**5)
    dUdr += A / g * S2v.derivative(r / mu) / mu
    dUdr += coef_q * q_prime(r)
    integrand = dUdr**2 * (r2 + mu2)  # times r dr = (r^2+mu^2)/2 dt
    norm_sq = 2.0 * math.pi * 0.5 * np.trapezoid(integrand, t)

    I_z = g**-4.0 + 0.5 * A + 4.0 * Bc * S_int / (g**3 * math.exp(1.0 + robin_z))
    zeta_check = max(g**-4.0, abs(A), abs(Bc) / g**3)
    gap = (norm_sq / (4.0 * math.pi) - 1.0 - I_z) / zeta_check
    L_closed = g * g - 1.0 - robin_z + math.log1p(
        -g * g * A / 2.0 - 4.0 * Bc * S_int / (g * math.exp(1.0 + robin_z)))
    # Height condition with the curvature constants (B_i terms) dropped, the
    # truncation from which the closed form above is derived; the full root
    # carries an extra B_1/gamma^4 that the closed form absorbs in O(gamma^-4).
    denom = 1.0 + S0.A / (4.0 * math.pi * g * g) + S1v.A / (4.0 * math.pi * g**4) \
        + A * S2v.A / (4.0 * math.pi)
    L_trunc = (g * g - robin_z * (1.0 + S0.A / (4.0 * math.pi * g * g))
               + B0_CONSTANT / (g * g) - g * coef_q * S_int) / denom
    return {"norm_sq": float(norm_sq), "I_z": I_z, "normalized_gap": float(gap),
            "log_inv_mu2": L, "log_inv_mu2_closed": L_closed,
            "log_inv_mu2_truncated": L_trunc, "mu": mu,
            "S_int": S_int, "H_tilde": [H_m1] + H_i}


def _bracket_const(P: RadialProfile, inv_mu: float, L: float) -> float:
    """Constant harmonic correction zeroing S_i(r/mu)+(A_i/4pi)(L+H)-B_i at r=1."""
    return 4.0 * math.pi / P.A * (P.B - P(inv_mu)) - L
