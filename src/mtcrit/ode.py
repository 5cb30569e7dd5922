"""Dormand-Prince 5(4) for the one ODE shape the toolkit integrates: a
scalar second-order equation u'' = accel(t, u, u'), whose state is two
Python floats.  The initial step, step control and 4th-order dense output
are scipy's RK45 (Hairer, Norsett, Wanner, Solving ODEs I, II.4; Shampine,
Math. Comp. 1986 for the dense output).

tests/test_numerics.py holds `solve_ivp` to scipy's RK45 and to a generic
stage loop over the tableau.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["OdeResult", "solve_ivp"]

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# error estimate: fifth-order minus embedded fourth-order weights, over all
# seven stages (the seventh is f at the new point)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# the tableau by name, for the written-out stages of `solve_ivp`
_C2, _C3, _C4, _C5, _C6 = _DP_C
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = _DP_A
_B1, _B2, _B3, _B4, _B5, _B6 = _DP_B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E
# dense output: y(t_old + x h) = y_old + h sum_k K_k (P_k . (x, x^2, x^3, x^4))
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 5.0
_ROOT2 = 2 ** 0.5
# floats kept per accepted step: t_old, t_new, h, u, u', then (u', u'') at
# each of the seven stages
_RECORD = 19


def _rms2(x: float, y: float) -> float:
    """The root mean square of x and y, its squares added from 0.0 on."""
    return math.sqrt(0.0 + x * x + y * y) / _ROOT2


class OdeResult:
    """y[0, j] is u and y[1, j] is u' at t_eval[j]; on failure, only the
    t_eval points the integration reached are filled in."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str

    def __init__(self, y, nfev, success, message):
        self.y = y
        self.nfev = nfev
        self.success = success
        self.message = message


def solve_ivp(accel, t_span, y0, t_eval, rtol: float, atol: float) -> OdeResult:
    """Integrate u'' = accel(t, u, u') forward over t_span from
    (u, u') = y0, reporting u and u' at the increasing points t_eval inside
    it.

    accel takes three floats and returns a float.  Steps, their acceptance
    and the first step size follow scipy's RK45 on the system (u, u')' =
    (u', accel): each stage's slope of u is that stage's u'.  Each accepted
    step keeps its stages, and the values at t_eval come from the dense
    output of the step that covers them (a point on a step's end belongs to
    that step).  A t_eval outside t_span, or not increasing, is refused
    with ValueError (scipy's messages) before accel is called.

    Each stage is written out: its sum is formed from 0.0 on, term by term
    left to right in the order of the tableau, zero weights included, and
    the error norm is sqrt(0.0 + e0^2 + e1^2) / sqrt(2).  So no float sum
    depends on the Python version.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t:
        raise ValueError("t_span must be increasing")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t) or np.any(t_eval > t_end):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    u, v = map(float, y0)

    a = accel(t, u, v)
    # initial step (Hairer-Norsett-Wanner II.4, as scipy's select_initial_step)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = _rms2(u / su, v / sv)
    d1 = _rms2(v / su, a / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    v1 = v + h0 * a
    a1 = accel(t + h0, u + h0 * v, v1)
    nfev = 2
    d2 = _rms2((v1 - v) / su, (a1 - a) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    h_abs = min(100.0 * h0, h1, t_end - t)

    steps = []  # _RECORD floats of each accepted step, one after the other
    success, message = True, "The solver successfully reached the end of the interval."
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: scipy's RK45 would loop forever
                success = False
                message = "Required step size is less than spacing between numbers."
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            # stage k is (v_k, a_k): the slope of u is the stage's u' itself
            v2 = v + (0.0 + a * _A21) * h
            a2 = accel(t + _C2 * h, u + (0.0 + v * _A21) * h, v2)
            v3 = v + (0.0 + a * _A31 + a2 * _A32) * h
            a3 = accel(t + _C3 * h, u + (0.0 + v * _A31 + v2 * _A32) * h, v3)
            v4 = v + (0.0 + a * _A41 + a2 * _A42 + a3 * _A43) * h
            a4 = accel(t + _C4 * h, u + (0.0 + v * _A41 + v2 * _A42 + v3 * _A43) * h, v4)
            v5 = v + (0.0 + a * _A51 + a2 * _A52 + a3 * _A53 + a4 * _A54) * h
            a5 = accel(t + _C5 * h,
                       u + (0.0 + v * _A51 + v2 * _A52 + v3 * _A53 + v4 * _A54) * h, v5)
            v6 = v + (0.0 + a * _A61 + a2 * _A62 + a3 * _A63 + a4 * _A64 + a5 * _A65) * h
            a6 = accel(t + _C6 * h, u + (0.0 + v * _A61 + v2 * _A62 + v3 * _A63 + v4 * _A64
                                         + v5 * _A65) * h, v6)
            u_new = u + h * (0.0 + v * _B1 + v2 * _B2 + v3 * _B3 + v4 * _B4 + v5 * _B5
                             + v6 * _B6)
            v_new = v + h * (0.0 + a * _B1 + a2 * _B2 + a3 * _B3 + a4 * _B4 + a5 * _B5
                             + a6 * _B6)
            a7 = accel(t + h, u_new, v_new)
            nfev += 6
            e0 = ((0.0 + v * _E1 + v2 * _E2 + v3 * _E3 + v4 * _E4 + v5 * _E5 + v6 * _E6
                   + v_new * _E7) * h / (atol + max(abs(u), abs(u_new)) * rtol))
            e1 = ((0.0 + a * _E1 + a2 * _E2 + a3 * _E3 + a4 * _E4 + a5 * _E5 + a6 * _E6
                   + a7 * _E7) * h / (atol + max(abs(v), abs(v_new)) * rtol))
            err = _rms2(e0, e1)
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if not success:
            break
        steps += (t, t_new, h, u, v, v, a, v2, a2, v3, a3, v4, a4, v5, a5, v6, a6,
                  v_new, a7)
        t, u, v, a = t_new, u_new, v_new, a7

    t_eval = t_eval[:np.searchsorted(t_eval, t, side="right")]
    if not steps:
        return OdeResult(y=np.empty((2, 0)), nfev=nfev, success=success, message=message)
    record = np.array(steps).reshape(-1, _RECORD)
    t_old, t_new, h, y_old = record[:, 0], record[:, 1], record[:, 2], record[:, 3:5]
    # contiguous, as the stage loop's array is: einsum's order of summation
    # may follow the strides of its operands
    stages = np.ascontiguousarray(record[:, 5:]).reshape(-1, 7, 2)
    step = np.searchsorted(t_new, t_eval, side="left")
    x = (t_eval - t_old[step]) / h[step]
    powers = np.cumprod(np.tile(x, (4, 1)), axis=0)                # (4, m)
    Q = np.einsum("skn,kj->snj", stages, _DP_P)[step]              # (m, 2, 4)
    out = h[step] * np.einsum("mnj,jm->nm", Q, powers) + y_old[step].T
    return OdeResult(y=out, nfev=nfev, success=success, message=message)
