"""Radial bubble solutions and verification of their expansions.

Shoots the concentrating radial solution B of

    B'' + B'/r = -(lambda/2) Psi_N'(B),   B(0) = gamma, B'(0) = 0,

(the -d_rr - d_r/r Laplacian convention) out to the concentration radius
rho where log(1 + rho^2/mu^2) = (1 - eps0) gamma^2, and checks the
two-term expansion of B and of its source against the correction
profiles S0, S1, S2.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .csvout import HERMITE_STRIDE, write_csv
from .ode import solve_ivp
from .perturbation import (EXP_BUDGET, PerturbationFamily, _Frozen, asymptotic_data, eval_H,
                           eval_psi_N, phi_N, xi)
from .profiles import StepFailureError, s0_explicit, source_laplacians

__all__ = [
    "BlowDownError",
    "BubbleSolution",
    "ExpansionReport",
    "OrderUnderflowError",
    "check_ladder",
    "shoot_bubble",
    "verify_expansion",
    "verify_source_expansion",
]


class BlowDownError(RuntimeError):
    """The shot solution hit zero before the concentration radius."""


class OrderUnderflowError(ValueError):
    """phi_{N-1}(gamma^2) of the bubble scaling is below the normal doubles."""


# Both expansion checks take their sups over y >= _Y_FLOOR, and the
# expansion check its r0_gap over _Y_CORE <= y < _Y_FLOOR; the source check
# weights its residual by e^{_DELTA0_TILDE t}.
_Y_FLOOR = 0.25
_Y_CORE = 0.01
_DELTA0_TILDE = 0.75
# Every shot starts from its series seed at y = _Y0.
_Y0 = 1e-8


class BubbleSolution(_Frozen):
    """Shot radial bubble with its scaling data.

    The profile is stored in the rescaled variable y = r/mu (so values
    near the core are well-separated).  Its fields are set once.
    """

    fam: PerturbationFamily
    N: int
    gamma: float
    lam: float
    mu: float
    y_grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray  # dB/dy

    def __init__(self, fam, N, gamma, lam, mu, y_grid, values, derivs):
        vars(self).update(fam=fam, N=N, gamma=gamma, lam=lam, mu=mu, y_grid=y_grid,
                          values=values, derivs=derivs)

    def to_csv(self, path: str) -> None:
        write_csv([path], ["r", "B", "dB_dr", "t"],
                  [self.y_grid * self.mu, self.values, self.derivs / self.mu,
                   np.log1p(self.y_grid**2)], stride=HERMITE_STRIDE)


def _mu_from_scaling(fam: PerturbationFamily, N: int, gamma: float) -> tuple[float, float]:
    """The unit disk's level lambda = 4 / (gamma^2 e) and the mu that solves
    lambda H(gamma) mu^2 gamma^2 phi_{N-1}(gamma^2) = 4; an N whose
    phi_{N-1}(gamma^2) is below the normal doubles is refused (OrderUnderflowError)."""
    H = eval_H(fam, gamma)
    if H <= 0:
        raise ValueError("H(gamma) must be positive")
    tail = phi_N(N - 1, gamma * gamma)
    if tail < sys.float_info.min:
        raise OrderUnderflowError(f"N = {N} is too large for gamma = {gamma:g}: phi_(N-1)"
                                  f"(gamma^2) = {tail:.3g} is below the normal doubles; "
                                  f"lower N or raise gamma")
    lam = 4.0 / (gamma * gamma * math.e)
    log_mu2 = (math.log(4.0) - math.log(lam) - math.log(H)
               - 2.0 * math.log(gamma) - math.log(tail))
    return lam, math.exp(0.5 * log_mu2)


def _check_eps0(eps0: float) -> None:
    """Refuse an eps0 outside (1/sqrt(e), 1), the shot's end t = (1 - eps0) gamma^2."""
    if not 1.0 / math.sqrt(math.e) < eps0 < 1.0:
        raise ValueError(f"eps0 must lie in (1/sqrt(e), 1) (got {eps0!r})")


@functools.lru_cache(maxsize=8)
def _shot_grid(gamma: float, eps0: float) -> np.ndarray:
    """A shot's y grid: 0, then 3000 geometric nodes from _Y0 to rho/mu.
    Read-only, and built once per rung: `check_ladder`, `ladder_reports`
    and the shot all read the same grid."""
    y_rho = math.sqrt(math.expm1((1.0 - eps0) * gamma * gamma))
    grid = np.concatenate([[0.0], np.geomspace(_Y0, y_rho, 3000)])
    grid.flags.writeable = False
    return grid


def shoot_bubble(fam: PerturbationFamily, N: int, gamma: float,
                 eps0: float = 0.75) -> BubbleSolution:
    """Integrate the bubble ODE in the core variable y = r/mu out to rho/mu.

    The shot depends on the multiplier only through lambda mu^2 / 2 =
    2 / (H(gamma) gamma^2 phi_{N-1}(gamma^2)), so lambda is fixed at the unit
    disk's level; it only places r = mu y.
    """
    _check_eps0(eps0)
    lam, mu = _mu_from_scaling(fam, N, gamma)
    grid = _shot_grid(gamma, eps0)
    c = 0.5 * lam * mu * mu

    blown_down = f"bubble at gamma = {gamma:g}, N = {N} reached zero before rho"

    def accel(y, B, dB):
        # the shot has blown down at its first probe with B <= 0
        if B <= 0.0:
            raise BlowDownError(blown_down)
        return -dB / y - c * eval_psi_N(fam, N, B)[1]

    _, psi_p0 = eval_psi_N(fam, N, gamma)
    seed = (gamma - c * psi_p0 * _Y0 * _Y0 / 4.0, -c * psi_p0 * _Y0 / 2.0)
    sol = solve_ivp(accel, (_Y0, grid[-1]), seed, t_eval=grid[1:], rtol=1e-11, atol=1e-12)
    if np.any(sol.y[0] <= 0.0):
        raise BlowDownError(blown_down)
    if not sol.success:
        raise StepFailureError(f"{sol.message} ({sol.nfev} evaluations)")
    values = np.concatenate([[gamma], sol.y[0]])
    derivs = np.concatenate([[0.0], sol.y[1]])
    return BubbleSolution(fam=fam, N=N, gamma=gamma, lam=lam, mu=mu, y_grid=grid,
                          values=values, derivs=derivs)


class ExpansionReport:
    gamma: float
    sup_normalized: float
    leading_sup: float | None  # None on source reports, which have no leading term
    r0_gap: float
    details: dict

    def __init__(self, gamma, sup_normalized, leading_sup, r0_gap, details=None):
        self.gamma = gamma
        self.sup_normalized = sup_normalized
        self.leading_sup = leading_sup
        self.r0_gap = r0_gap
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "sup_normalized": self.sup_normalized,
                "leading_sup": self.leading_sup, "r0_gap": self.r0_gap,
                "details": self.details}


def _A_and_xi(sol: BubbleSolution) -> tuple[float, float]:
    """The decay coefficient A(gamma) of the shot family and xi(N, gamma)."""
    return float(asymptotic_data(sol.fam).A(sol.gamma)), xi(sol.N, sol.gamma)


def verify_expansion(sol: BubbleSolution, profiles: dict, t_cap: float) -> ExpansionReport:
    """Compare the shot bubble to its profile expansion on {t <= t_cap}.

    profiles maps {1: S1, 2: S2} (S0 uses its explicit formula), and A is
    the decay coefficient of the shot family.  The residual is normalized
    by t * (gamma^-5 + (|A| + xi)/gamma), the paper-scale remainder bound.
    Below _Y_FLOOR the normalization t -> 0 amplifies integrator
    round-off, so the sup excludes that core (the quadratic vanishing
    there is reported separately as r0_gap).  Ladder comparisons pass a
    t_cap inside the smallest rho-window of the ladder, so the sups are
    taken over a common region.
    """
    g = sol.gamma
    y = sol.y_grid[1:]
    t = np.log1p(y * y)
    # the sups read the nodes t <= t_cap at y >= _Y_CORE, so the model is
    # evaluated on those alone
    read = (t <= t_cap) & (y >= _Y_CORE)
    y, t, B = y[read], t[read], sol.values[1:][read]
    A, x = _A_and_xi(sol)
    model = (g - t / g + s0_explicit(y) / g**3 + profiles[1](y) / g**5
             + (A - 2.0 * x) * profiles[2](y) / g)
    R = B - model
    m = y >= _Y_FLOOR
    norm = t[m] * (g**-5 + (abs(A) + x) / g)
    sup_norm = float(np.max(np.abs(R[m]) / norm))
    lead = float(np.max(np.abs(B[m] - (g - t[m] / g)) * g / t[m]))
    core = ~m
    near0 = float(np.max(np.abs(R[core]) / y[core] ** 2)) if np.any(core) else 0.0
    return ExpansionReport(gamma=g, sup_normalized=sup_norm, leading_sup=lead,
                           r0_gap=near0, details={"A": A, "xi": x, "t_cap": t_cap})


def verify_source_expansion(sol: BubbleSolution, profiles: dict,
                            t_cap: float) -> ExpansionReport:
    """Check the source identity lambda Psi'(B)/2 against its expansion.

    On {t <= t_cap} the right side is the leading source 4 e^{-2t} /
    (mu^2 gamma) times a bracket of relative corrections e^{2t} Lap(S_i)/4
    (Lap read off the profile equations; the e^{2t}/4 factor undoes the source
    weight each Lap(S_i) carries, which is what the expansion of Psi'
    around gamma produces order by order).  The sup residual is weighted
    by zeta e^{_DELTA0_TILDE t} relative to the local source size; the
    same _Y_FLOOR/t_cap windowing as verify_expansion applies.
    """
    g = sol.gamma
    y = sol.y_grid[1:]
    t = np.log1p(y * y)
    mask = (t <= t_cap) & (y >= _Y_FLOOR)
    y, t = y[mask], t[mask]
    B = sol.values[1:][mask]
    A, x = _A_and_xi(sol)
    zeta = max(g**-4.0, abs(A), x)

    _, psi_p = eval_psi_N(sol.fam, sol.N, B)
    lhs = 0.5 * sol.lam * psi_p
    weight = np.exp(-2.0 * t)
    base = 4.0 * weight / (sol.mu**2 * g)
    w = 0.25 * np.exp(2.0 * t)
    _, (lap0, lap1, lap2) = source_laplacians(y, t, weight, profiles[1], profiles[2])
    rhs = base * (1.0 + w * lap0 / g**2 + w * lap1 / g**4 + (A - 2.0 * x) * w * lap2)
    weighted = float(np.max(np.abs(lhs - rhs) / (base * zeta * np.exp(_DELTA0_TILDE * t))))

    _, psi_p0 = eval_psi_N(sol.fam, sol.N, g)
    lhs0 = 0.5 * sol.lam * psi_p0
    rhs0 = 4.0 / (sol.mu**2 * g)
    r0_gap = abs(lhs0 - rhs0) / abs(lhs0)
    return ExpansionReport(gamma=g, sup_normalized=weighted, leading_sup=None,
                           r0_gap=r0_gap, details={"zeta": zeta, "A": A, "xi": x})


def _ladder_window(gammas, eps0: float) -> tuple[float, float, list]:
    """The windows common to a ladder: t <= 0.8 (1 - eps0) gamma_min^2 for the
    expansion checks and t <= min(gamma_min, t_end) for the source checks,
    t_end = (1 - eps0) gamma_min^2 the end of the gamma_min shot; and for
    each gamma the largest y = r/mu at which the expansion check reads the
    shot and the profiles S1, S2: the last node of the shot's grid inside."""
    low = min(gammas)
    cap = 0.8 * (1.0 - eps0) * low ** 2
    ends = []
    for g in gammas:
        y = _shot_grid(g, eps0)
        # t = log1p(y^2) rises along the grid, so the window is a prefix of it
        ends.append(float(y[np.searchsorted(np.log1p(y * y), cap, side="right") - 1]))
    # t_end as the checks read it: np.log1p may round it one ulp past
    # (1 - eps0) gamma_min^2, and the window keeps that last node
    y = _shot_grid(low, eps0)
    return cap, min(low, float(np.log1p(y * y)[-1])), ends


def check_ladder(fam: PerturbationFamily, N: int, gammas, eps0: float) -> None:
    """Refuse with ValueError, before any solve, a ladder that
    `ladder_reports` cannot finish at order N: no gamma or one <= 0, an eps0
    that `shoot_bubble` refuses, a gamma^2 past EXP_BUDGET (eval_psi_N
    refuses it), a gamma <= 1 where the family's A(gamma) has no value, an
    expansion window with no node at y >= _Y_FLOOR (its sups would be over
    nothing), or a scaling that `shoot_bubble` refuses at gamma_min."""
    low = min(gammas, default=0.0)
    if not low > 0.0:
        raise ValueError(f"need at least one gamma, all > 0 (got {list(gammas)!r})")
    _check_eps0(eps0)
    top = max(gammas)
    if top * top > EXP_BUDGET:
        raise ValueError(f"gamma = {top:g} is past the exponent budget of Psi_N "
                         f"(gamma^2 <= {EXP_BUDGET:g})")
    if asymptotic_data(fam).A_pieces and low <= 1.0:
        raise ValueError(f"gamma = {low:g}: the decay coefficient A(gamma) of this "
                         f"family, a sum of power-log pieces, is defined only for gamma > 1")
    # A window t <= cap below t(_Y_FLOOR) holds no node at y >= _Y_FLOOR on any
    # grid, so it is refused before the grids are built: one too small for
    # (1 - eps0) gamma^2 to be a positive double has none to build.
    cap = 0.8 * (1.0 - eps0) * low ** 2
    ends = [] if cap < np.log1p(_Y_FLOOR * _Y_FLOOR) else _ladder_window(gammas, eps0)[2]
    if not ends or min(ends) < _Y_FLOOR:
        raise ValueError(f"with eps0 = {eps0:g} the expansion window t <= {cap:.6g} of "
                         f"gamma = {low:g} holds no node at y = r/mu >= {_Y_FLOOR:g}, "
                         f"where the sups are taken; raise the smallest gamma or lower eps0")
    _mu_from_scaling(fam, N, low)


def ladder_reports(fam: PerturbationFamily, N: int, gammas, profiles: dict,
                   eps0: float = 0.75) -> dict:
    """Run a gamma ladder on the unit disk and report both verification
    trends.

    profiles maps {1: S1, 2: S2}, solved once by the caller for the whole
    ladder.  The per-gamma sups are taken over the windows of
    `_ladder_window`, common to the whole ladder: the expansion residual is
    claimed uniformly on a gamma-dependent region, and comparing sups over
    nested regions of different sizes would conflate window growth with
    convergence.
    """
    gammas = sorted(gammas)
    cap_exp, cap_src, _ = _ladder_window(gammas, eps0)
    out = {"gammas": list(gammas), "expansion": [], "source": [], "solutions": []}
    for g in gammas:
        sol = shoot_bubble(fam, N, g, eps0=eps0)
        out["solutions"].append(sol)
        out["expansion"].append(verify_expansion(sol, profiles, t_cap=cap_exp))
        out["source"].append(verify_source_expansion(sol, profiles, t_cap=cap_src))
    exp_sups = [r.sup_normalized for r in out["expansion"]]
    src_sups = [r.sup_normalized for r in out["source"]]
    out["expansion_nonincreasing"] = all(a >= b for a, b in zip(exp_sups, exp_sups[1:]))
    out["source_nonincreasing"] = all(a >= b for a, b in zip(src_sups, src_sups[1:]))
    return out
