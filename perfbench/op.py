"""Run one benchmark operation in this (fresh) interpreter.

    python3 perfbench/op.py OPDIR SRC [--trace]
    python3 perfbench/op.py --setup SRC     (print the set-up time only)

OPDIR holds config.json (optional) and spec.json ({"cmd", "args"}); the
program writes its reports to OPDIR/out and this script writes its
timings to OPDIR/result.json.  `cmd` is a mtcrit subcommand, run through
`mtcrit.cli.main` as the `mtcrit` console script does, or "rect", which
computes the Robin data of one rectangle through the public API (the CLI
cannot: `criterion` refuses rectangles in `lambda_g_report`).

Set-up is measured from process spawn to the end of `import mtcrit.cli`,
against a spawn time the parent passes in PERFBENCH_SPAWNED.  A short
calibration kernel runs before and after the timed operation, outside
it, so that the parent can scale times to a reference CPU speed.
"""

import time

import mtcrit.cli  # timed: this import is the program's set-up

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def rect_report(config_path: str, out_dir: str) -> int:
    """M, K, S, lambda_1 and l for one rectangle, via the public API."""
    import mtcrit.criterion as criterion
    import mtcrit.domain as domain
    from mtcrit.perturbation import PerturbationFamily, asymptotic_data

    with open(config_path) as fh:
        cfg = json.load(fh)
    dom = domain.DomainModel.from_json(cfg["domain"])
    fam = PerturbationFamily.from_json(cfg.get("family", {}))
    data = asymptotic_data(fam)
    rep = domain.robin_report(dom, data.F)
    l_closed = criterion.closed_form_l(fam, rep.M, rep.S)
    l_grid, conf = criterion.limit_l(data, rep.M, rep.S)
    payload = {**rep.to_json(), "lambda_1": domain.lambda1(dom),
               "l_closed": l_closed, "l_grid": l_grid, "l_confidence": conf}
    with open(os.path.join(out_dir, "robin.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    return 0


def calibrate(reps: int = 3) -> float:
    """Shortest of `reps` timings of a fixed mix of interpreter loops and
    small-array NumPy calls, the two kinds of work mtcrit does: a measure
    of the CPU speed at this moment."""
    import numpy as np

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(150_000):
            s += i * i
        a = np.linspace(0.1, 1.0, 64)
        for _ in range(1500):
            a = np.cos(np.log1p(a)) + 0.1
        best = min(best, time.perf_counter() - t0)
    return best


def bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main() -> int:
    op_dir, src = sys.argv[1], sys.argv[2]
    traced = "--trace" in sys.argv[3:]
    here = os.path.realpath(mtcrit.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"mtcrit was imported from {here}, not from {src}")
    result = {"setup_s": T_IMPORTED - float(os.environ["PERFBENCH_SPAWNED"]),
              "calib_before_s": calibrate()}
    if op_dir == "--setup":
        print(json.dumps(result))
        return 0
    with open(os.path.join(op_dir, "spec.json")) as fh:
        spec = json.load(fh)
    config = os.path.join(op_dir, "config.json")
    out_dir = os.path.join(op_dir, "out")

    tracer = None
    if traced:
        from tracing import Tracer, wrapper_costs
        tracer = Tracer()
        tracer.install()

    t0 = time.monotonic()
    error = None
    try:
        if spec["cmd"] == "rect":
            code = rect_report(config, out_dir)
        else:
            argv = [spec["cmd"], "--out", out_dir] + spec["args"]
            if os.path.exists(config):
                argv += ["--config", config]
            code = mtcrit.cli.main(argv)
    except Exception as exc:  # the op is reported as failed, with its name
        code, error = 1, f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.monotonic() - t0
    result["calib_after_s"] = calibrate()
    result["exit"] = code
    result["error"] = error
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["bytes_written"] = bytes_under(out_dir)
    if tracer is not None:
        summary = tracer.summary()
        c_span, c_counter = wrapper_costs()
        summary["overhead_est_s"] = (summary["span_calls"] * c_span
                                     + summary["counter_calls"] * c_counter)
        result["trace"] = summary
    with open(os.path.join(op_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
