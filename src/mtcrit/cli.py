"""Batch front-end: parse a scenario config, dispatch computations, and
emit machine-readable reports and plot data.

Subcommands
    criterion   existence verdict for a (domain, family) scenario
    profiles    correction profiles by quadrature, CSV curves + constants
    bubble      bubble gamma ladder with both expansion checks
    extremal    subcritical solver ladder and the two test functions
    verify      the invariant suite as a pass/fail table

Exit codes: 0 ok, 1 error, 2 inconclusive verdict.  Reports are JSON
(with the config hash and tool version embedded) next to CSV curve
files; identical config + seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys

import numpy as np

from . import __version__
from .criterion import (classify, closed_form_l, limit_l, ratio_curve_csv,
                        LOG_GAMMA_GRID, Verdict)
from .domain import DomainModel, Shape, lambda1, robin_report
from .perturbation import PerturbationFamily, asymptotic_data, phi_N
from .profiles import (A_CONSTANTS, B0_CONSTANT, R_MAX, R_MAX_CEILING, R_MAX_FLOOR,
                       ode_profile, profile_integrals, s0_explicit, solve_profile)
from .bubble import OrderUnderflowError, check_ladder, ladder_reports
from .variational import (height_seed, lambda_g_report, model_testfun_energy,
                          solve_subcritical, step1_testfun)


class ConfigError(ValueError):
    """Malformed or missing configuration field."""


# The top-level keys a scenario config may carry (README, "Command line").
CONFIG_KEYS = frozenset({"family", "domain", "gamma_ladder", "alpha_ladder",
                         "step1_eps", "model_gamma", "r_max", "eps0", "N"})
# The curve file of each rung of the bubble and extremal ladders.
_BUBBLE_CSV, _EXTREMAL_CSV = "bubble_gamma{:g}.csv", "extremal_alpha{:.4f}.csv"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:16]


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
    """A ladder field: a JSON list of numbers, returned as floats."""
    value = cfg.get(key, default)
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ConfigError(f"field '{key}': must be a list of numbers (got {value!r})")
    return [float(v) for v in value]


def _distinct_files(key: str, values: list, names) -> None:
    """Refuse two rungs of a ladder whose curve files would share a name."""
    seen = {}
    for v, name in zip(values, names):
        if name in seen:
            raise ConfigError(f"field '{key}': {seen[name]!r} and {v!r} would both write {name}")
        seen[name] = v


def _family(cfg: dict) -> PerturbationFamily:
    try:
        return PerturbationFamily.from_json(cfg.get("family", {}))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"field 'family': {exc}") from exc


def _order(cfg: dict) -> int:
    """The truncation order N: an integer >= 1 (N = 1 is the full exponential)."""
    N = cfg.get("N", 1)
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ConfigError(f"field 'N': must be an integer >= 1 (got {N!r})")
    return N


def _disk_domain(cfg: dict, command: str) -> DomainModel:
    """The scenario domain, refused unless it is the unit disk: Lambda_g,
    the subcritical solver and the test functions are radial."""
    try:
        dom = DomainModel.from_json(cfg.get("domain", {}))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"field 'domain': {exc}") from exc
    if dom.shape is not Shape.UNIT_DISK:
        raise ConfigError(f"field 'domain': {command} supports only the unit disk "
                          f"(got {dom.shape.value})")
    return dom


def _write_report(out_dir: str, name: str, payload: dict, cfg: dict) -> str:
    payload = dict(payload)
    payload["config_hash"] = _config_hash(cfg)
    payload["version"] = __version__
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# criterion


def cmd_criterion(cfg: dict, args) -> int:
    fam = _family(cfg)
    dom = _disk_domain(cfg, "criterion")
    data = asymptotic_data(fam)

    rep_robin = robin_report(dom, data.F)
    lam_rep = lambda_g_report(fam, dom)
    l_closed = closed_form_l(fam, rep_robin.M, rep_robin.S)
    l_grid, conf = limit_l(data, rep_robin.M, rep_robin.S)
    report = classify(rep_robin.M, rep_robin.S, lam_rep["lambda_g"], l_grid, conf,
                      l_closed=l_closed, lambda_gap=lam_rep["gap"],
                      diagnostics={"log_gamma_grid": list(LOG_GAMMA_GRID),
                                   "lambda_1": lambda1(dom)})
    _write_report(args.out, "criterion.json",
                  {**report.to_json(), "lambda_termination": lam_rep["termination"]}, cfg)
    ratio_curve_csv(os.path.join(args.out, "ratio_curve.csv"),
                    data, rep_robin.M, rep_robin.S)
    print(f"verdict: {report.verdict.value}  l_grid={l_grid:.6f} "
          f"(+-{report.l_confidence:.2g})  Lambda_g={lam_rep['lambda_g']:.6f}")
    return 2 if report.verdict is Verdict.INCONCLUSIVE else 0


# ---------------------------------------------------------------------------
# profiles


def cmd_profiles(cfg: dict, args) -> int:
    r_max = _number(cfg, "r_max", R_MAX)
    if not R_MAX_FLOOR <= r_max <= R_MAX_CEILING:
        raise ConfigError(f"field 'r_max': must be >= {R_MAX_FLOOR:g} and "
                          f"<= {R_MAX_CEILING:g} (got {r_max:g})")
    profiles = {i: solve_profile(i, r_max=r_max) for i in range(3)}
    constants = {}
    for i, P in profiles.items():
        P.to_csv(os.path.join(args.out, f"profile_S{i}.csv"))
        constants[f"S{i}"] = P.metadata()
    ints = profile_integrals(profiles)
    payload = {"constants": constants, "integrals": ints,
               "reference": {"A": list(A_CONSTANTS), "B0": B0_CONSTANT}}
    _write_report(args.out, "profiles.json", payload, cfg)
    for i in profiles:
        print(f"S{i}: A={constants[f'S{i}']['A']:.8f} B={constants[f'S{i}']['B']:.8f}")
    return 0


# ---------------------------------------------------------------------------
# bubble


def cmd_bubble(cfg: dict, args) -> int:
    fam = _family(cfg)
    N = _order(cfg)
    gammas = _numbers(cfg, "gamma_ladder", [3.0, 4.0, 5.0])
    if not gammas or any(g <= 0 for g in gammas):
        raise ConfigError("field 'gamma_ladder': need >= 1 value, all > 0")
    _distinct_files("gamma_ladder", gammas, map(_BUBBLE_CSV.format, gammas))
    eps0 = _number(cfg, "eps0", 0.75)
    if not math.sqrt(1.0 / math.e) < eps0 < 1.0:
        raise ConfigError("field 'eps0': must lie in (1/sqrt(e), 1)")
    try:
        check_ladder(fam, N, gammas, eps0, R_MAX)
    except OrderUnderflowError as exc:
        raise ConfigError(f"field 'N': {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"field 'gamma_ladder': {exc}") from None
    # both bubble checks use the explicit S0, so only S1 and S2 are solved
    profiles = {i: solve_profile(i) for i in (1, 2)}
    out = ladder_reports(fam, N, gammas, profiles, eps0=eps0)
    payload = {
        "gammas": out["gammas"],
        "expansion": [r.to_json() for r in out["expansion"]],
        "source": [r.to_json() for r in out["source"]],
        "expansion_nonincreasing": out["expansion_nonincreasing"],
        "source_nonincreasing": out["source_nonincreasing"],
    }
    _write_report(args.out, "bubble.json", payload, cfg)
    for sol in out["solutions"]:
        sol.to_csv(os.path.join(args.out, _BUBBLE_CSV.format(sol.gamma)))
    for g, e, s in zip(out["gammas"], out["expansion"], out["source"]):
        print(f"gamma={g:g}: expansion sup={e.sup_normalized:.6f} "
              f"source sup={s.sup_normalized:.6f}")
    print(f"trends: expansion nonincreasing={out['expansion_nonincreasing']} "
          f"source nonincreasing={out['source_nonincreasing']}")
    return 0


# ---------------------------------------------------------------------------
# extremal


def cmd_extremal(cfg: dict, args) -> int:
    fam = _family(cfg)
    dom = _disk_domain(cfg, "extremal")
    N = _order(cfg)
    fracs = _numbers(cfg, "alpha_ladder", [0.7, 0.8, 0.9, 0.95])
    alphas = [f * 4.0 * math.pi for f in fracs]
    if not alphas or any(not 0.0 < a < 4.0 * math.pi for a in alphas):
        raise ConfigError("field 'alpha_ladder': need >= 1 value; alpha must lie "
                          "in (0, 4 pi)")
    _distinct_files("alpha_ladder", fracs, map(_EXTREMAL_CSV.format, alphas))
    eps = _number(cfg, "step1_eps", 0.005)
    if not 0.0 < eps <= 0.2:
        raise ConfigError(f"field 'step1_eps': must lie in (0, 0.2] (got {eps!r})")
    gam = _number(cfg, "model_gamma", 5.0)
    if gam <= 1.0:  # A and B carry log(gamma)
        raise ConfigError(f"field 'model_gamma': must be > 1 (got {gam!r})")
    data = asymptotic_data(fam)
    try:
        height_seed(data, gam)
    except ValueError as exc:
        raise ConfigError(f"field 'model_gamma': {exc}") from None

    runs = [solve_subcritical(fam, N, a) for a in alphas]
    payload = {"runs": [r.to_json() for r in runs]}
    for r in runs:
        r.to_csv(os.path.join(args.out, _EXTREMAL_CSV.format(r.alpha)))
        print(f"alpha={r.alpha:.4f}: J={r.J_value:.6f} saturated={r.saturated} "
              f"lambda={r.lam:.6f} el_residual={r.el_residual:.2e}")

    s1 = step1_testfun(dom, fam, eps)
    payload["step1"] = {"eps": eps, **{k: float(v) for k, v in s1.items()}}
    print(f"step1 eps={eps}: J={s1['J']:.6f} (blow-up level {s1['blowup_level']:.6f})")

    profiles = {i: solve_profile(i) for i in range(3)}
    mt = model_testfun_energy(dom, fam, data, profiles, gam)
    payload["model_testfun"] = mt
    print(f"model gamma={gam:g}: normalized gap={mt['normalized_gap']:+.4f}")
    _write_report(args.out, "extremal.json", payload, cfg)
    return 0


# ---------------------------------------------------------------------------
# verify


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
        ssum = sum(a - b * shift for a, b in zip(tG, tT))
        # backward-error scale: the largest magnitude appearing in the
        # identity (the tails can be exponentially smaller than the sums)
        scale = max(abs(pG), abs(pT) * shift, max(tG), max(tT) * shift, 1.0)
        worst_alg = max(worst_alg, abs(lhs + ssum) / scale)
        k = rng.randint(0, 3)
        lhs_phi = phi_N(N + k, T)
        rhs_phi = pT - sum(tT[N + 1:N + k + 1])
        worst_phi = max(worst_phi, abs(lhs_phi - rhs_phi) / max(abs(pT), 1e-300))
    row("AlgRelat residual", worst_alg < 1e-12, f"{worst_alg:.2e}")
    row("FormulaPhi residual", worst_phi < 1e-12, f"{worst_phi:.2e}")

    # Domain geometry.
    dom = DomainModel(shape=Shape.UNIT_DISK)
    l1 = lambda1(dom)
    row("lambda_1 disk", abs(l1 - 5.783185962946783) < 1e-6, f"{l1:.9f}")
    data0 = asymptotic_data(PerturbationFamily())
    rr = robin_report(dom, data0.F)
    row("Robin max disk", abs(rr.M) < 1e-8, f"M={rr.M:.2e}")
    row("Green S integral disk", abs(rr.S - 0.5) < 1e-4, f"S={rr.S:.8f}")

    # Profile constants ("NoteSi A_i" are the Laplacian integrals).
    profiles = {i: solve_profile(i) for i in range(3)}
    ints = profile_integrals(profiles)
    for i, (got, want) in enumerate(zip(ints["A_check"], A_CONSTANTS)):
        row(f"NoteSi A_{i}", abs(got - want) < 5e-3 * want, f"{got:.6f} vs {want:.6f}")
    row("I_S0 = 0", abs(ints["I_S0"]) < 1e-6, f"{ints['I_S0']:.2e}")
    row("I_T0sq = 2 pi", abs(ints["I_T0sq"] - 2 * math.pi) < 1e-6, f"{ints['I_T0sq']:.9f}")
    rprobe = np.geomspace(1e-3, 100.0, 500)
    gap = float(np.max(np.abs(profiles[0](rprobe) - s0_explicit(rprobe))))
    row("S0 quadrature vs explicit", gap < 1e-7, f"sup={gap:.2e}")
    # S1 has no closed form: hold the quadrature to the ODE integrator
    rprobe = np.geomspace(1e-3, 1000.0, 400)
    gap = float(np.max(np.abs(profiles[1](rprobe) - ode_profile(1, rprobe)[0])))
    row("S1 quadrature vs ODE", gap < 1e-7, f"sup={gap:.2e}")
    return rows


def cmd_verify(cfg: dict, args) -> int:
    rows = _verify_rows(args.seed)
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        status = "pass" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    payload = {"rows": [{"name": n, "pass": ok, "detail": d} for n, ok, d in rows],
               "all_pass": all_ok, "seed": args.seed}
    _write_report(args.out, "verify.json", payload, cfg)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mtcrit",
        description="Existence criterion toolkit for perturbed "
                    "Moser-Trudinger extremals")
    p.add_argument("--version", action="version", version=f"mtcrit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, help_ in [
        ("criterion", cmd_criterion, "existence verdict for a scenario"),
        ("profiles", cmd_profiles, "solve the correction profiles"),
        ("bubble", cmd_bubble, "bubble gamma ladder with expansion checks"),
        ("extremal", cmd_extremal, "subcritical solver + test functions"),
        ("verify", cmd_verify, "run the invariant suite"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", default=None, help="JSON scenario file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.set_defaults(func=fn)
        if name == "verify":  # the only subcommand that draws random cases
            sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical failures map to exit 1 with a name
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
