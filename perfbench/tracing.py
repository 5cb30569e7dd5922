"""Per-layer tracing of one mtcrit operation, installed from outside.

Wrappers replace module attributes at the binding each caller looks up
(for example `mtcrit.cli.robin_report`, which the CLI bound at import,
next to `mtcrit.domain.robin_report`, which the API caller uses).  Entry
points get spans (inclusive time plus the time their child spans cover);
hot inner calls get counters with accumulated time, and no span, so that
they cost as little as possible.  A binding that no longer exists is an
error: a refactor must not silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# metric stem -> (layer, bindings).  Spans nest; a layer's time counts only
# its outermost spans, so limit_l -> closed_form_l is not counted twice.
SPANS = {
    "domain.robin_report": ("domain", [("mtcrit.cli", "robin_report"),
                                       ("mtcrit.domain", "robin_report")]),
    "domain.integrate_around_pole": ("domain", [("mtcrit.domain", "integrate_around_pole")]),
    "variational.lambda_g": ("variational", [("mtcrit.cli", "lambda_g_report")]),
    "variational.subcritical": ("variational", [("mtcrit.cli", "solve_subcritical")]),
    "variational.testfun": ("variational", [("mtcrit.cli", "step1_testfun"),
                                            ("mtcrit.cli", "model_testfun_energy")]),
    "profiles.solve_profile": ("profiles", [("mtcrit.cli", "solve_profile"),
                                            ("mtcrit.profiles", "solve_profile")]),
    "profiles.profile_integrals": ("profiles", [("mtcrit.cli", "profile_integrals")]),
    "bubble.ladder": ("bubble", [("mtcrit.cli", "ladder_reports")]),
    "bubble.shoot": ("bubble", [("mtcrit.bubble", "shoot_bubble")]),
    "bubble.verify": ("bubble", [("mtcrit.bubble", "verify_expansion"),
                                 ("mtcrit.bubble", "verify_source_expansion")]),
    "criterion.entry": ("criterion", [("mtcrit.cli", "closed_form_l"),
                                      ("mtcrit.cli", "limit_l"),
                                      ("mtcrit.cli", "classify"),
                                      ("mtcrit.cli", "ratio_curve_csv"),
                                      ("mtcrit.criterion", "closed_form_l"),
                                      ("mtcrit.criterion", "limit_l")]),
}

# metric stem -> bindings.  `nfev` marks solvers whose result carries it.
COUNTERS = {
    "domain.robin": [("mtcrit.domain", "robin")],
    "domain.green": [("mtcrit.domain", "green")],
    "domain.minimize": [("mtcrit.domain", "minimize")],
    "variational.riesz": [("mtcrit.variational", "solveh_banded")],
    "variational.psi": [("mtcrit.variational", "eval_psi_N")],
    "variational.ascend": [("mtcrit.variational", "_ascend")],
    "variational.project": [("mtcrit.variational", "_project")],
    "perturbation.eval_g": [("mtcrit.perturbation", "eval_g"),
                            ("mtcrit.variational", "eval_g")],
    "profiles.ode": [("mtcrit.profiles", "solve_ivp")],
    "bubble.ode": [("mtcrit.bubble", "solve_ivp")],
    "bubble.psi": [("mtcrit.bubble", "eval_psi_N")],
    "criterion.ratio": [("mtcrit.criterion", "ratio_value")],
}
NFEV = {"domain.minimize", "profiles.ode", "bubble.ode"}


class Tracer:
    """Spans and counters of one process; read with `summary()`."""

    def __init__(self):
        self._stack = []          # open spans: [start, child_s, layer]
        self.spans = {}           # stem -> [calls, inclusive_s, self_s]
        self.layer_s = {}         # layer -> time of its outermost spans
        self.top_level_s = 0.0    # time covered by spans with no parent
        self.counters = {}        # stem -> [calls, time_s, nfev]
        self.profile_keys = set()
        self.profile_repeats = 0

    def span(self, stem: str, layer: str, fn):
        rec = self.spans.setdefault(stem, [0, 0.0, 0.0])
        self.layer_s.setdefault(layer, 0.0)
        bind = inspect.signature(fn).bind if stem == "profiles.solve_profile" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if bind is not None:
                ba = bind(*args, **kwargs)
                ba.apply_defaults()
                key = tuple(ba.arguments.items())
                self.profile_repeats += key in self.profile_keys
                self.profile_keys.add(key)
            outer = all(f[2] != layer for f in self._stack)
            frame = [time.perf_counter(), 0.0, layer]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if outer:
                    self.layer_s[layer] += dur
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_level_s += dur
        return wrapper

    def counter(self, stem: str, fn):
        rec = self.counters.setdefault(stem, [0, 0.0, 0])
        nfev = stem in NFEV

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[0] += 1
                rec[1] += time.perf_counter() - t0
            if nfev:
                rec[2] += int(out.nfev)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every binding in SPANS and COUNTERS; raise if one is gone."""
        plan = [(b, stem, layer) for stem, (layer, binds) in SPANS.items() for b in binds]
        plan += [(b, stem, None) for stem, binds in COUNTERS.items() for b in binds]
        originals = []
        for (mod_name, attr), stem, layer in plan:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise RuntimeError(f"trace binding {mod_name}.{attr} no longer exists; "
                                   f"update perfbench/tracing.py")
            originals.append((mod, attr, fn, stem, layer))
        for mod, attr, fn, stem, layer in originals:
            wrapped = self.span(stem, layer, fn) if layer else self.counter(stem, fn)
            setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        return {"spans": self.spans, "layer_s": self.layer_s,
                "top_level_s": self.top_level_s, "counters": self.counters,
                "profile_repeats": self.profile_repeats,
                "span_calls": sum(r[0] for r in self.spans.values()),
                "counter_calls": sum(r[0] for r in self.counters.values())}


def wrapper_costs(n: int = 20000) -> tuple[float, float]:
    """Seconds one span call and one counter call add over a bare call."""
    def noop():
        return None

    t = Tracer()
    span, counter = t.span("calibrate", "calibrate", noop), t.counter("calibrate", noop)
    out = []
    for fn in (noop, span, counter):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        out.append((time.perf_counter() - t0) / n)
    return max(out[1] - out[0], 0.0), max(out[2] - out[0], 0.0)


def layer_metrics(ops: list[dict]) -> dict:
    """Per-layer metrics of one round from the op results of that round.

    Each op result carries "wall_s" (operation time), "bytes_written" and
    "trace" (a Tracer summary plus "overhead_est_s").
    """
    def span(stem, i):
        return sum(op["trace"]["spans"].get(stem, [0, 0.0, 0.0])[i] for op in ops)

    def count(stem, i):
        return sum(op["trace"]["counters"].get(stem, [0, 0.0, 0])[i] for op in ops)

    def layer(name):
        return sum(op["trace"]["layer_s"].get(name, 0.0) for op in ops)

    accepted = count("variational.riesz", 0) - count("variational.ascend", 0)
    trials = count("variational.project", 0) - count("variational.ascend", 0)
    return {
        "domain.robin_report_s": span("domain.robin_report", 1),
        "domain.robin_calls": count("domain.robin", 0),
        "domain.robin_s": count("domain.robin", 1),
        "domain.minimize_nfev": count("domain.minimize", 2),
        "domain.green_calls": count("domain.green", 0),
        "domain.green_s": count("domain.green", 1),
        "domain.integrate_around_pole_s": span("domain.integrate_around_pole", 1),
        "variational.lambda_g_s": span("variational.lambda_g", 1),
        "variational.subcritical_s": span("variational.subcritical", 1),
        "variational.riesz_solves": count("variational.riesz", 0),
        "variational.psi_evals": count("variational.psi", 0),
        "variational.step_accept_ratio": accepted / trials if trials else 0.0,
        "variational.testfun_s": span("variational.testfun", 1),
        "perturbation.eval_g_calls": count("perturbation.eval_g", 0),
        "perturbation.eval_g_s": count("perturbation.eval_g", 1),
        "profiles.solve_profile_calls": span("profiles.solve_profile", 0),
        "profiles.solve_profile_repeats": sum(op["trace"]["profile_repeats"] for op in ops),
        "profiles.solve_profile_s": span("profiles.solve_profile", 1),
        "profiles.ode_nfev": count("profiles.ode", 2),
        "profiles.profile_integrals_s": span("profiles.profile_integrals", 1),
        "bubble.ladder_s": span("bubble.ladder", 1),
        "bubble.shoot_calls": span("bubble.shoot", 0),
        "bubble.shoot_s": span("bubble.shoot", 1),
        "bubble.ode_nfev": count("bubble.ode", 2),
        "bubble.psi_evals": count("bubble.psi", 0),
        "bubble.verify_s": span("bubble.verify", 1),
        "criterion.s": layer("criterion"),
        "criterion.ratio_evals": count("criterion.ratio", 0),
        "cli.self_s": sum(op["wall_s"] - op["trace"]["top_level_s"] for op in ops),
        "cli.bytes_written": sum(op["bytes_written"] for op in ops),
        "trace.wall_s": sum(op["wall_s"] for op in ops),
        "trace.overhead_est_s": sum(op["trace"]["overhead_est_s"] for op in ops),
    }
