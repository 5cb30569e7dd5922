"""Output oracles for the benchmark's operations.

Each oracle reads the reports an operation wrote and returns a list of
problems (empty when the output is right).  References come from closed
forms evaluated here with `math`/`mpmath`, from properties the paper
asserts, or (for the 2x1 rectangle, which has no closed form here) from
the values the program gave at commit 9bf5d06; none calls mtcrit.
"""

from __future__ import annotations

import csv
import json
import math
import os

import mpmath

mpmath.mp.dps = 30

L_DISK = (1.0 + 2.0 / math.e) / 2.0
LAMBDA0_DISK = float(4 * mpmath.pi / mpmath.besseljzero(0, 1) ** 2)   # 2.172914842...
M_SQUARE = float(2 * mpmath.log(4 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(0.25) ** 2))
A_REF = (4 * math.pi, 4 * math.pi * (3 + math.pi**2 / 6), 2 * math.pi)
B0_REF = math.pi**2 / 6 + 2.0
# (M, S) per rectangle (width, height), Zero family.  M of the square is
# closed form; the rest are the program's values at commit 9bf5d06.
RECT_REF = {(2.0, 1.0): (-0.918077123062379, 0.20764606956280546),
            (1.0, 1.0): (M_SQUARE, 0.14578045201541348)}

TOL_M = 1e-8          # Robin maximum; an M off by 1e-6 must fail
TOL_S_RECT = 1e-7     # S moves with the maximiser, located to ~1e-8
TOL_POINT = 1e-6      # maximiser location
TOL_LAMBDA0 = 1e-5    # relative; the P1 radial grid gives 7e-7
TOL_A = 1e-3          # relative; tail fits of the profile constants
TOL_A_CHECK = 5e-3    # relative; Laplacian integrals truncated at r_max >= 1000


def s0_reference(r: float) -> float:
    """S0 from its dilogarithm closed form, evaluated with mpmath."""
    r2 = mpmath.mpf(r) ** 2
    T = mpmath.log1p(r2)
    return float(-T + 2 * r2 / (1 + r2) - T * T / 2
                 + (1 - r2) / (1 + r2) * mpmath.polylog(2, -r2))


def expected_l(family: dict) -> float:
    """Closed-form limit for c = 0 families on the unit disk (M = 0, S = 1/2)."""
    if family.get("kind", "Zero") == "Zero" or family["a_prime"] > 2.0:
        return L_DISK
    return math.copysign(0.5, family["c_prime"])


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(name, got, want, tol, rel=False):
    scale = abs(want) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        return [f"{name} = {got!r}, expected {want!r} (tol {tol:g}{' rel' if rel else ''})"]
    return []


def _near_point(K, point) -> bool:
    return any(math.dist(k, point) <= TOL_POINT for k in K)


def check_criterion(rep: dict, family: dict) -> list[str]:
    l_want = expected_l(family)
    verdict = "ExtremalExists_l" if l_want > 0 else "NoExtremal_Truncations"
    probs = _close("M", rep["M"], 0.0, TOL_M)
    probs += _close("S", rep["S"], 0.5, 1e-6)
    probs += _close("l_closed", rep["l_closed"], l_want, 1e-12)
    probs += _close("pi_e_level", rep["pi_e_level"], math.pi * math.e, 1e-9, rel=True)
    if rep["verdict"] != verdict:
        probs.append(f"verdict {rep['verdict']}, expected {verdict}")
    if family.get("kind", "Zero") == "Zero":
        probs += _close("lambda_g", rep["lambda_g"], LAMBDA0_DISK, TOL_LAMBDA0, rel=True)
    return probs


def check_extremal(rep: dict, config: dict) -> list[str]:
    fracs = config.get("alpha_ladder", [0.7, 0.8, 0.9, 0.95])
    runs = rep["runs"]
    probs = []
    if [round(r["alpha"] / (4 * math.pi), 12) for r in runs] != [round(f, 12) for f in fracs]:
        probs.append(f"alphas {[r['alpha'] for r in runs]} do not follow the ladder {fracs}")
    if not all(r["saturated"] for r in runs):
        probs.append("a subcritical run is not saturated")
    J = [r["J"] for r in runs]
    if not all(a < b for a, b in zip(J, J[1:])):
        probs.append(f"J does not increase with alpha: {J}")
    if not all(math.isfinite(x) for x in (rep["step1"]["J"],
                                          rep["model_testfun"]["normalized_gap"])):
        probs.append("test-function energies are not finite")
    return probs


def check_bubble(rep: dict, config: dict, out_dir: str) -> list[str]:
    ladder = sorted(config.get("gamma_ladder", [3.0, 4.0, 5.0]))
    eps0 = config.get("eps0", 0.75)
    probs = []
    if rep["gammas"] != ladder:
        probs.append(f"gammas {rep['gammas']} != ladder {ladder}")
    sups = [r["sup_normalized"] for key in ("expansion", "source") for r in rep[key]]
    if not all(math.isfinite(x) for x in sups):
        probs.append("a residual sup is not finite")
    # the residuals shrink along the ladder 3, 4, 5 for g = 0; for slowly
    # decaying PowerLog families these heights are pre-asymptotic
    if config.get("family", {}).get("kind", "Zero") == "Zero":
        for key in ("expansion_nonincreasing", "source_nonincreasing"):
            if rep[key] is not True:
                probs.append(f"{key} is {rep[key]}")
    for g in ladder:
        B = [float(row["B"]) for row in _rows(os.path.join(out_dir, f"bubble_gamma{g:g}.csv"))]
        # B(0) = gamma, B decreases (r B')' < 0), and at the concentration
        # radius the leading term gamma - t/gamma gives B = eps0 gamma
        if B[0] != g or not all(a >= b for a, b in zip(B, B[1:])) or B[-1] <= 0:
            probs.append(f"bubble gamma={g:g} is not a positive decreasing profile from gamma")
        probs += _close(f"B(rho)/gamma at gamma={g:g}", B[-1] / g, eps0, 0.02)
    return probs


def check_profiles(rep: dict, out_dir: str) -> list[str]:
    probs = []
    for i, want in enumerate(A_REF):
        probs += _close(f"A_{i}", rep["constants"][f"S{i}"]["A"], want, TOL_A, rel=True)
        probs += _close(f"A_check[{i}]", rep["integrals"]["A_check"][i], want,
                        TOL_A_CHECK, rel=True)
    probs += _close("B_0", rep["constants"]["S0"]["B"], B0_REF, TOL_A, rel=True)
    probs += _close("I_S0", rep["integrals"]["I_S0"], 0.0, 1e-6)
    probs += _close("I_T0sq", rep["integrals"]["I_T0sq"], 2 * math.pi, 1e-6)
    rows = _rows(os.path.join(out_dir, "profile_S0.csv"))
    for row in rows[1::len(rows) // 6]:
        r = float(row["r"])
        probs += _close(f"S0({r:.4g})", float(row["S"]), s0_reference(r), 1e-7)
    return probs


def check_verify(rep: dict) -> list[str]:
    bad = [row["name"] for row in rep["rows"] if not row["pass"]]
    if bad or rep["all_pass"] is not True:
        return [f"verify rows failed: {bad}"]
    return []


def check_rect(rep: dict, config: dict) -> list[str]:
    w, h = config["domain"]["width"], config["domain"]["height"]
    M_ref, S_ref = RECT_REF[(w, h)]
    probs = _close("M", rep["M"], M_ref, TOL_M)
    probs += _close("S", rep["S"], S_ref, TOL_S_RECT)
    if len(rep["K"]) != 1 or not _near_point(rep["K"], (w / 2, h / 2)):
        probs.append(f"maximiser set {rep['K']} is not the centre ({w / 2}, {h / 2})")
    probs += _close("lambda_1", rep["lambda_1"], math.pi**2 * (1 / w**2 + 1 / h**2),
                    1e-12, rel=True)
    l_want = (1.0 + 4.0 * rep["S"] * math.exp(-1.0 - rep["M"])) / 2.0
    probs += _close("l_closed", rep["l_closed"], l_want, 1e-12, rel=True)
    probs += _close("l_grid", rep["l_grid"], l_want, 1e-9, rel=True)
    return probs


REPORTS = {"criterion": "criterion.json", "extremal": "extremal.json",
           "bubble": "bubble.json", "profiles": "profiles.json",
           "verify": "verify.json", "rect": "robin.json"}


def check(op: dict, exit_code: int, out_dir: str) -> list[str]:
    """Problems with one finished operation; [] when its output is right."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    cmd, config = op["cmd"], op["config"] or {}
    try:
        rep = _load(out_dir, REPORTS[cmd])
        if cmd == "criterion":
            return check_criterion(rep, config.get("family", {}))
        if cmd == "extremal":
            return check_extremal(rep, config)
        if cmd == "bubble":
            return check_bubble(rep, config, out_dir)
        if cmd == "profiles":
            return check_profiles(rep, out_dir)
        if cmd == "verify":
            return check_verify(rep)
        return check_rect(rep, config)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
