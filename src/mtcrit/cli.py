"""Batch front-end: parse a scenario config, run one subcommand, and write
its machine-readable reports and plot data.

Subcommands
    criterion   existence verdict for a (domain, family) scenario
    profiles    correction profiles by quadrature, CSV curves + constants
    bubble      bubble gamma ladder with both expansion checks
    extremal    subcritical solver ladder and the two test functions
    verify      the invariant suite as a pass/fail table

This module checks a config's JSON shape, field names and curve-file
names alone.  Every numerical condition is the check of the API function
that needs it, which `_checked` calls before the first solve.

A subcommand, `cmd_*`, computes and returns its report's payload, its
curve files, its stdout lines and its exit code; `main` then writes the
report, COMMAND.json, and the curves and prints the lines, so a run that
fails writes and prints nothing.  A group of curve files that share their
first column is (names, header, columns[, stride]), as write_csv takes it.
Exit codes: 0 ok; 1 error; 2 an inconclusive verdict, or a usage error on
the command line, which runs nothing.  Identical config + seed give
byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

# CPython's built-in SHA-256 (_sha2 from 3.12 on, _sha256 before): hashlib
# loads OpenSSL's libcrypto, about 3.4 MB of peak memory, for one short hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .criterion import (classify, closed_form_l, limit_l, ratio_curve_csv,
                        LOG_GAMMA_GRID, Verdict)
from .csvout import HERMITE_STRIDE, write_csv
from .domain import DomainModel, _disk_only, lambda1, robin_report
from .numerics import left_sum
from .perturbation import PerturbationFamily, _check_order, asymptotic_data, phi_N
from .profiles import (A_CONSTANTS, B0_CONSTANT, R_MAX, csv_grid, ode_profile,
                       profile_integrals, s0_explicit, solve_profile)
from .bubble import OrderUnderflowError, _check_eps0, check_ladder, ladder_reports
from .cmdline import parse_args
from .variational import (_check_alpha, _check_step1_eps, height_seed, lambda_g_report,
                          model_testfun_energy, solve_subcritical, step1_testfun)


class ConfigError(ValueError):
    """Malformed or missing configuration field."""


# The top-level keys a scenario config may carry (README, "Command line").
CONFIG_KEYS = frozenset({"family", "domain", "gamma_ladder", "alpha_ladder",
                         "step1_eps", "model_gamma", "r_max", "eps0", "N"})
# The curve file of each rung of the bubble and extremal ladders.
_BUBBLE_CSV, _EXTREMAL_CSV = "bubble_gamma{:g}.csv", "extremal_alpha{:.4f}.csv"


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_int=_parse_int)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}): {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object ({path})")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"field {', '.join(map(repr, unknown))}: unknown config key")
    for key, value in cfg.items():
        # json.load reads NaN, Infinity and overflowing literals as floats, the
        # integer ones through _parse_int
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ConfigError(f"field '{key}': must not hold NaN or Infinity (nor a "
                              f"number too large for a double)") from None
    return cfg


def _parse_int(text: str):
    """json's integer hook: an int, or Infinity when a double cannot hold the
    literal, so _load_config refuses it with NaN and Infinity and int()
    never parses a literal past its digit limit."""
    return int(text) if math.isfinite(float(text)) else math.inf


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(cfg: dict, key: str, default: float) -> float:
    """A scalar field: a JSON number, not a bool or a string."""
    value = cfg.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"field '{key}': must be a number (got {value!r})")
    return float(value)


def _numbers(cfg: dict, key: str, default: list) -> list:
    """A ladder field: a non-empty JSON list of numbers, returned as floats."""
    value = cfg.get(key, default)
    if not isinstance(value, list) or not value or not all(map(_is_number, value)):
        raise ConfigError(f"field '{key}': must be a non-empty list of numbers (got {value!r})")
    return [float(v) for v in value]


def _distinct_files(key: str, values: list, names) -> None:
    """Refuse two rungs of a ladder whose curve files would share a name."""
    seen = {}
    for v, name in zip(values, names):
        if name in seen:
            raise ConfigError(f"field '{key}': {seen[name]!r} and {v!r} would both write {name}")
        seen[name] = v


def _checked(key: str, check, *args):
    """check(*args), its ValueError raised as a ConfigError naming the field
    `key`; an OrderUnderflowError names N, the order the scaling refuses."""
    try:
        return check(*args)
    except ValueError as exc:
        key = "N" if isinstance(exc, OrderUnderflowError) else key
        raise ConfigError(f"field '{key}': {exc}") from None


def _family(cfg: dict) -> PerturbationFamily:
    return _checked("family", PerturbationFamily.from_json, cfg.get("family", {}))


def _disk_domain(cfg: dict, command: str) -> DomainModel:
    """The scenario domain, refused by `_disk_only` unless it is the unit disk:
    Lambda_g, the subcritical solver, the test functions and the shots are radial."""
    dom = _checked("domain", DomainModel.from_json, cfg.get("domain", {}))
    _checked("domain", _disk_only, dom, command)
    return dom


def _write_report(out_dir: str, name: str, payload: dict, cfg: dict) -> None:
    payload = {**payload, "config_hash": _config_hash(cfg), "version": __version__}
    # serialised before the file is opened, so a report is whole or absent
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def cmd_criterion(cfg: dict) -> tuple:
    fam = _family(cfg)
    dom = _disk_domain(cfg, "criterion")
    data = asymptotic_data(fam)

    rep_robin = robin_report(dom, data.F)
    lam_rep = lambda_g_report(fam, dom)
    l_grid = limit_l(data, rep_robin.M, rep_robin.S)[0]
    report = classify(rep_robin.M, rep_robin.S, lam_rep["lambda_g"],
                      closed_form_l(fam, rep_robin.M, rep_robin.S), lambda_gap=lam_rep["gap"],
                      diagnostics={"log_gamma_grid": list(LOG_GAMMA_GRID),
                                   "lambda_1": lambda1(dom)})
    payload = {**report.to_json(), "l_grid": l_grid,
               "lambda_termination": lam_rep["termination"]}
    curves = [(["ratio_curve.csv"], ["log_gamma", "ratio"],
               ratio_curve_csv(data, rep_robin.M, rep_robin.S))]
    line = (f"verdict: {report.verdict.value}  l_closed={report.l_closed:.6f} "
            f"(+-{report.l_confidence:.2g})  Lambda_g={lam_rep['lambda_g']:.6f}")
    return payload, curves, [line], 2 if report.verdict is Verdict.INCONCLUSIVE else 0


def cmd_profiles(cfg: dict) -> tuple:
    # r_max is the extent of the curve files alone: the profiles reach oo
    r_max = _number(cfg, "r_max", R_MAX)
    grid = _checked("r_max", csv_grid, r_max)
    profiles = {i: solve_profile(i) for i in range(3)}
    constants = {f"S{i}": {**P.metadata(), "r_max": r_max} for i, P in profiles.items()}
    payload = {"constants": constants, "integrals": profile_integrals(profiles),
               "reference": {"A": list(A_CONSTANTS), "B0": B0_CONSTANT}}
    # r, S and S' of each profile, the grid formatted once for the three files
    curves = [([f"profile_S{i}.csv" for i in profiles], ["r", "S", "dS_dr"],
               [grid, *(col for P in profiles.values() for col in P.evaluate(grid))],
               HERMITE_STRIDE)]
    lines = [f"{name}: A={c['A']:.8f} B={c['B']:.8f}" for name, c in constants.items()]
    return payload, curves, lines, 0


def cmd_bubble(cfg: dict) -> tuple:
    fam = _family(cfg)
    _disk_domain(cfg, "bubble")
    N = cfg.get("N", 1)
    _checked("N", _check_order, N)
    gammas = _numbers(cfg, "gamma_ladder", [3.0, 4.0, 5.0])
    _distinct_files("gamma_ladder", gammas, map(_BUBBLE_CSV.format, gammas))
    eps0 = _number(cfg, "eps0", 0.75)
    _checked("eps0", _check_eps0, eps0)
    _checked("gamma_ladder", check_ladder, fam, N, gammas, eps0)
    # both bubble checks use the explicit S0, so only S1 and S2 are solved
    profiles = {i: solve_profile(i) for i in (1, 2)}
    ladder = ladder_reports(fam, N, gammas, profiles, eps0=eps0)
    payload = {
        "gammas": ladder["gammas"],
        "expansion": [r.to_json() for r in ladder["expansion"]],
        "source": [r.to_json() for r in ladder["source"]],
        "expansion_nonincreasing": ladder["expansion_nonincreasing"],
        "source_nonincreasing": ladder["source_nonincreasing"],
    }
    # each shot's r = mu y, B, dB/dr and t = log(1 + y^2)
    curves = [([_BUBBLE_CSV.format(s.gamma)], ["r", "B", "dB_dr", "t"],
               [s.y_grid * s.mu, s.values, s.derivs / s.mu, np.log1p(s.y_grid**2)],
               HERMITE_STRIDE) for s in ladder["solutions"]]
    lines = [f"gamma={g:g}: expansion sup={e.sup_normalized:.6f} "
             f"source sup={s.sup_normalized:.6f}"
             for g, e, s in zip(ladder["gammas"], ladder["expansion"], ladder["source"])]
    lines.append(f"trends: expansion nonincreasing={ladder['expansion_nonincreasing']} "
                 f"source nonincreasing={ladder['source_nonincreasing']}")
    return payload, curves, lines, 0


def cmd_extremal(cfg: dict) -> tuple:
    fam = _family(cfg)
    dom = _disk_domain(cfg, "extremal")
    N = cfg.get("N", 1)
    _checked("N", _check_order, N)
    fracs = _numbers(cfg, "alpha_ladder", [0.7, 0.8, 0.9, 0.95])
    alphas = [f * 4.0 * math.pi for f in fracs]
    for a in alphas:
        _checked("alpha_ladder", _check_alpha, a)
    _distinct_files("alpha_ladder", fracs, map(_EXTREMAL_CSV.format, alphas))
    eps = _number(cfg, "step1_eps", 0.005)
    _checked("step1_eps", _check_step1_eps, eps)
    gam = _number(cfg, "model_gamma", 5.0)
    data = asymptotic_data(fam)
    _checked("model_gamma", height_seed, data, gam)

    runs = [solve_subcritical(fam, N, a) for a in alphas]
    grid = runs[0].r
    if not all(np.array_equal(r.r, grid) for r in runs):
        raise RuntimeError("the rungs of the ladder do not share one grid")
    s1 = step1_testfun(dom, fam, eps)
    profiles = {i: solve_profile(i) for i in range(3)}
    mt = model_testfun_energy(dom, fam, data, profiles, gam)
    payload = {"runs": [r.to_json() for r in runs], "model_testfun": mt,
               "step1": {"eps": eps, **{k: float(v) for k, v in s1.items()}}}
    lines = [f"alpha={r.alpha:.4f}: J={r.J_value:.6f} saturated={r.saturated} "
             f"lambda={r.lam:.6f} el_residual={r.el_residual:.2e}" for r in runs]
    lines += [f"step1 eps={eps}: J={s1['J']:.6f} (blow-up level {s1['blowup_level']:.6f})",
              f"model gamma={gam:g}: normalized gap={mt['normalized_gap']:+.4f}"]
    curves = [([_EXTREMAL_CSV.format(r.alpha) for r in runs], ["r", "u"],
               [grid] + [r.u for r in runs])]
    return payload, curves, lines, 0


def _verify_rows(seed: int) -> list:
    rng = random.Random(seed)
    rows = []

    def row(name, ok, detail):
        rows.append((name, bool(ok), detail))

    # Series identities on random triples.  Partial-sum terms t^k/k! are
    # built by the recursion term *= t/(k+1): one rounding per step and no
    # pow overflow at t ~ 400, N ~ 200.
    def series_terms(t, n):
        out, term = [], 1.0
        for k in range(n + 1):
            out.append(term)
            term *= t / (k + 1)
        return out

    worst_alg, worst_phi = 0.0, 0.0
    for _ in range(100):
        N = rng.randint(1, 200)
        T = rng.uniform(0.0, 400.0)
        G = rng.uniform(T, 400.0)
        pT, pG = phi_N(N, T), phi_N(N, G)
        shift = math.exp(G - T)
        lhs = pG - pT * shift
        tG, tT = series_terms(G, N), series_terms(T, N + 3)
        ssum = left_sum(a - b * shift for a, b in zip(tG, tT))
        # backward-error scale: the largest magnitude appearing in the
        # identity (the tails can be exponentially smaller than the sums)
        scale = max(abs(pG), abs(pT) * shift, max(tG), max(tT) * shift, 1.0)
        worst_alg = max(worst_alg, abs(lhs + ssum) / scale)
        k = rng.randint(0, 3)
        lhs_phi = phi_N(N + k, T)
        rhs_phi = pT - left_sum(tT[N + 1:N + k + 1])
        worst_phi = max(worst_phi, abs(lhs_phi - rhs_phi) / max(abs(pT), 1e-300))
    row("AlgRelat residual", worst_alg < 1e-12, f"{worst_alg:.2e}")
    row("FormulaPhi residual", worst_phi < 1e-12, f"{worst_phi:.2e}")

    # Domain geometry.
    dom = DomainModel()
    l1 = lambda1(dom)
    row("lambda_1 disk", abs(l1 - 5.783185962946783) < 1e-6, f"{l1:.9f}")
    # the series report held to the disk's closed forms: M = 0 at the centre,
    # and S = I_1 = Gamma(kappa + 2) / 4 with kappa = 1 for g = 0
    rr = robin_report(dom, asymptotic_data(PerturbationFamily()).F)
    gap_M, gap_K = abs(rr.M), math.dist(rr.K[0], dom.centre())
    row("Robin max disk", gap_M <= 1e-12 and gap_K <= 1e-6,
        f"M={rr.M:.2e} closed-form gap {gap_M:.1e}, maximizer {gap_K:.1e}")
    gap_S = abs(rr.S - math.gamma(3.0) / 4)
    row("Green S integral disk", gap_S <= 1e-10, f"S={rr.S:.15f} closed-form gap {gap_S:.1e}")

    # Profile constants ("NoteSi A_i" are the Laplacian integrals).
    profiles = {i: solve_profile(i) for i in range(3)}
    ints = profile_integrals(profiles)
    for i, (got, want) in enumerate(zip(ints["A_check"], A_CONSTANTS)):
        row(f"NoteSi A_{i}", abs(got - want) < 1e-13 * want, f"{got:.6f} vs {want:.6f}")
    row("I_S0 = 0", abs(ints["I_S0"]) < 1e-14, f"{ints['I_S0']:.2e}")
    row("I_T0sq = 2 pi", abs(ints["I_T0sq"] - 2 * math.pi) < 1e-13, f"{ints['I_T0sq']:.9f}")
    rprobe = np.geomspace(1e-3, 100.0, 500)
    gap = float(np.max(np.abs(profiles[0](rprobe) - s0_explicit(rprobe))))
    row("S0 quadrature vs explicit", gap < 1e-12, f"sup={gap:.2e}")
    # S1 has no closed form: hold the quadrature to the ODE integrator
    rprobe = np.geomspace(1e-3, 1000.0, 400)
    gap = float(np.max(np.abs(profiles[1](rprobe) - ode_profile(1, rprobe)[0])))
    row("S1 quadrature vs ODE", gap < 1e-8, f"sup={gap:.2e}")
    return rows


def cmd_verify(cfg: dict, seed: int) -> tuple:
    rows = _verify_rows(seed)
    width = max(len(name) for name, _, _ in rows)
    all_ok = all(ok for _, ok, _ in rows)
    payload = {"rows": [{"name": n, "pass": ok, "detail": d} for n, ok, d in rows],
               "all_pass": all_ok, "seed": seed}
    lines = [f"{n:<{width}}  {'pass' if ok else 'FAIL'}  {d}" for n, ok, d in rows]
    return payload, [], lines, 0 if all_ok else 1


# name -> (the subcommand's compute step, its line in `mtcrit -h`, its
# options), read by cmdline.parse_args.  An option maps to its default
# and its line in `mtcrit COMMAND -h`; --seed belongs to verify alone, the
# only subcommand that draws random cases.
_OPTIONS = {"--config": (None, "JSON scenario file"), "--out": (".", "output directory")}
_COMMANDS = {
    "criterion": (cmd_criterion, "existence verdict for a scenario", _OPTIONS),
    "profiles": (cmd_profiles, "solve the correction profiles", _OPTIONS),
    "bubble": (cmd_bubble, "bubble gamma ladder with expansion checks", _OPTIONS),
    "extremal": (cmd_extremal, "subcritical solver + test functions", _OPTIONS),
    "verify": (cmd_verify, "run the invariant suite", {**_OPTIONS, "--seed": (0, "RNG seed")}),
}


def main(argv=None) -> int:
    command, options = parse_args(sys.argv[1:] if argv is None else argv, _COMMANDS)
    try:
        cfg = _load_config(options.pop("config"))
        out = options.pop("out")
        payload, curves, lines, code = _COMMANDS[command][0](cfg, **options)
        # every solve has returned: the writes start only now
        os.makedirs(out, exist_ok=True)
        _write_report(out, f"{command}.json", payload, cfg)
        for curve in curves:
            write_csv(out, *curve)
        print(*lines, sep="\n")
        return code
    except Exception as exc:  # a refused config names its field, a failure its type
        kind = "" if isinstance(exc, ConfigError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
