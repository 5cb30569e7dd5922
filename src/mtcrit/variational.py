"""Variational solvers on the radial disk: the constrained Moser problem,
the nonlinear eigenvalue Lambda_g, and the two test-function energies.

Radial functions on [0,1] are piecewise linear on a sinh-graded grid;
Dirichlet energy is the quadratic form of the radial P1 stiffness matrix
(2 pi int u'v' r dr) and integral functionals use the vertex-lumped
weights 2 pi int phi_j r dr, exact for linear integrands.

Both maximisations over the energy ball {E(u) <= alpha} run one
conditional-gradient (Frank-Wolfe) ascent, `_ascend`, from one start,
`_start`: each step moves toward the maximiser of the linearised
functional on the ball, the H^1_0 Riesz representative of the gradient
scaled to energy alpha.  It ends on "rtol", "no_ascent_step" or
"max_iter"; solve_subcritical reports the reason with its run, and
lambda_g_report widens its gap to inf unless both its ascents end on
"rtol".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .csvout import write_csv
from .domain import DomainModel, Shape
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
# _ascend stops after _MAX_ITER steps, or once a full step, or each of three
# accepted steps in a row, changes J by less than _RTOL relative
_MAX_ITER = 4000
_RTOL = 1e-12


def make_grid(n: int = 2000) -> np.ndarray:
    """Radial grid on [0,1], sinh-graded toward both endpoints."""
    x = np.linspace(-1.0, 1.0, n)
    r = 0.5 * (1.0 + np.sinh(_GRID_KAPPA * x) / math.sinh(_GRID_KAPPA))
    r[0], r[-1] = 0.0, 1.0
    return r


def _stiffness(r: np.ndarray) -> np.ndarray:
    """Element conductances k_e = pi (r_e + r_{e+1}) / h_e of the radial P1
    stiffness 2 pi int u' v' rho drho: E(u) = sum_e k_e (u_e - u_{e+1})^2."""
    h = np.diff(r)
    return math.pi * (r[:-1] + r[1:]) / h


def _energy(k: np.ndarray, u: np.ndarray) -> float:
    """Dirichlet energy of nodal values u on the chain of conductances k."""
    return float(np.sum(k * (u[1:] - u[:-1]) ** 2))


def solveh_banded(k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve K x = b for the stiffness K of the conductances k with the
    last node held at 0.  The flux k_e (x_e - x_{e+1}) through element e
    is the load on the nodes inside it, so one cumulative sum gives the
    fluxes and a reverse one the values.  A NaN or Inf in b raises
    ValueError, as in scipy.linalg.solveh_banded.  The name is the binding
    perfbench/tracing.py counts as one Riesz solve."""
    flux = np.cumsum(np.asarray_chkfinite(b))
    return np.cumsum((flux / k)[::-1])[::-1]


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
        self._k = _stiffness(self.grid)

    def energy(self) -> float:
        """Dirichlet energy via the trapezoid-on-gradient (stiffness) form."""
        return _energy(self._k, self.values)

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
    iterations: int = 0
    termination: str = ""

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "J": self.J_value, "gamma": self.gamma,
                "lambda": self.lam, "el_residual": self.el_residual,
                "saturated": self.saturated, "iterations": self.iterations,
                "termination": self.termination}


def _project(u: np.ndarray, k: np.ndarray, alpha: float) -> np.ndarray:
    e = _energy(k, u)
    if e > alpha:
        u = u * math.sqrt(alpha / e)
    return u


def _ascend(value_grad, u0: np.ndarray, r: np.ndarray, alpha: float):
    """Conditional-gradient (Frank-Wolfe) ascent on the H^1_0 ball of
    radius^2 alpha.

    value_grad takes a nodal vector (boundary node fixed at 0) and returns
    the functional and its nodal gradient from one evaluation, so every
    trial costs one call and the accepted trial's gradient feeds the next
    step.  Each step solves d = K^{-1} grad by `solveh_banded`;
    v = d sqrt(alpha / E(d)) maximises the linearised functional
    on the ball, and the trial is u + s (v - u) with s = 1, halved only
    while J does not rise (J convex along the step never falls at s = 1).
    Returns (u, J, grad at u, iterations, termination), where termination
    is "rtol" (a full step changed J by less than _RTOL relative, or three
    accepted steps in a row did), "no_ascent_step" (40 halvings found no
    rise) or "max_iter".
    """
    k = _stiffness(r)
    u = _project(u0.copy(), k, alpha)
    J, G = value_grad(u)
    stall = 0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        d = np.zeros_like(G)
        d[:-1] = solveh_banded(k, G[:-1])  # Dirichlet: the boundary node stays 0
        v = d * math.sqrt(alpha / max(_energy(k, d), 1e-300))
        s = 1.0
        for _ in range(40):
            u_try = _project(np.maximum(u + s * (v - u), 0.0), k, alpha)
            J_try, G_try = value_grad(u_try)
            if J_try > J:
                break
            if s == 1.0 and J - J_try <= _RTOL * abs(J):
                return u, J, G, it, "rtol"  # the full step sits on roundoff
            s *= 0.5
        else:
            return u, J, G, it, "no_ascent_step"
        rel = (J_try - J) / max(abs(J_try), 1e-300)
        u, J, G = u_try, J_try, G_try
        stall = stall + 1 if rel < _RTOL else 0
        if stall >= 3:
            return u, J, G, it, "rtol"
    return u, J, G, it, "max_iter"


def _apply_K(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v: the net flux out of each node."""
    return np.diff(k * (v[:-1] - v[1:]), prepend=0.0, append=0.0)


def _start(r: np.ndarray, alpha: float) -> np.ndarray:
    """The profile both ascents start from: 1 - r^2 scaled to energy alpha."""
    u = 0.3 * (1.0 - r * r)
    return u * math.sqrt(alpha / _energy(_stiffness(r), u))


def solve_subcritical(fam: PerturbationFamily, N: int, alpha: float,
                      n_grid: int = 2000) -> ExtremalRun:
    """Maximize the Moser functional over the H^1_0 ball of radius^2 alpha
    by one conditional-gradient ascent from `_start`.

    Reports the Lagrange multiplier of Delta u = lambda u H(u) e^{u^2}
    (Rayleigh quotient at the constrained maximizer) and the relative
    discrete Euler-Lagrange residual.
    """
    if not 0.0 < alpha < 4.0 * math.pi:
        raise ValueError("alpha must lie in (0, 4 pi)")
    if n_grid < 3:
        raise ValueError(f"n_grid must be >= 3 (got {n_grid})")
    r = make_grid(n_grid)
    w = _load_weights(r)

    def value_grad(u):
        psi, psi_p = eval_psi_N(fam, N, u)
        return float(np.dot(w, psi)), w * psi_p

    u, J, F, it, why = _ascend(value_grad, _start(r, alpha), r, alpha)
    gf = GridFunction(r, u)
    e = gf.energy()
    # F is the nodal weak form of Psi'_N(u), i.e. 2 u H(u) e^{u^2} up to
    # truncation; <K u, u> = E(u) since u(1) = 0
    denom = float(np.dot(F[:-1], u[:-1]))
    lam = 2.0 * e / denom if denom != 0.0 else 0.0
    Ku = _apply_K(_stiffness(r), u)
    resid_vec = Ku[:-1] - 0.5 * lam * F[:-1]
    el_res = float(np.linalg.norm(resid_vec) / max(np.linalg.norm(Ku[:-1]), 1e-300))
    return ExtremalRun(alpha=alpha, u=gf, J_value=J, gamma=float(np.max(u)),
                       lam=lam, el_residual=el_res,
                       saturated=abs(e - alpha) < 1e-6, iterations=it,
                       termination=why)


def lambda_g_report(fam: PerturbationFamily, dom: DomainModel | None = None,
                    n_grid: int = 2000) -> dict:
    """Maximize int ((1+g(u))(1+u^2) - (1+g(0))) over the 4 pi ball.

    Returns {"lambda_g": value on the n_grid grid, "gap": |value - value on
    the n_grid // 2 grid|, "termination": [reason on n_grid, reason on
    n_grid // 2]}.  The discretisation error is O(n_grid^-2), so the
    half-grid difference (about three times that error) bounds it.  If
    either ascent ends on anything but "rtol", its value is not a maximum
    and the gap is inf.  Disk-radial only.
    """
    if dom is not None and dom.shape is not Shape.UNIT_DISK:
        raise NotImplementedError("lambda_g is computed on the radial disk")
    if n_grid // 2 < 3:
        raise ValueError(f"n_grid must be >= 6, so that its half grid has 3 nodes "
                         f"(got {n_grid})")
    g00, _ = eval_g(fam, 0.0)
    alpha = 4.0 * math.pi

    def ascend(n):
        r = make_grid(n)
        w = _load_weights(r)

        def value_grad(u):
            gu, gpu = eval_g(fam, u)
            return (float(np.dot(w, (1.0 + gu) * (1.0 + u * u) - (1.0 + g00))),
                    w * (gpu * (1.0 + u * u) + 2.0 * u * (1.0 + gu)))

        _, J, _, _, why = _ascend(value_grad, _start(r, alpha), r, alpha)
        return J, why

    value, why = ascend(n_grid)
    half, why_half = ascend(n_grid // 2)
    converged = why == why_half == "rtol"
    return {"lambda_g": value, "gap": abs(value - half) if converged else math.inf,
            "termination": [why, why_half]}


def step1_testfun(dom: DomainModel, fam: PerturbationFamily, eps: float) -> dict:
    """Truncated-log test function at the disk center.

    v(r) = log((1+eps^2)/(eps^2+r^2)) vanishes on the boundary; it is
    rescaled to f with ||f||^2 = 4 pi exactly and the functional is
    evaluated with the substitution s = log(eps^2 + r^2), which resolves
    the eps-scale concentration.  J is compared with the family's blow-up
    level (1 + g(0)) |Omega| + pi e^{1+M}, the limit of the functional
    along sequences concentrating at a point; on the unit disk |Omega| = pi
    and M = 0.  It is returned as "blowup_level".
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
    level = (1.0 + eval_g(fam, 0.0)[0]) * math.pi + math.pi * math.e
    return {"norm_sq": norm_sq, "J": val, "f_norm_sq": 4.0 * math.pi,
            "blowup_level": level}


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
