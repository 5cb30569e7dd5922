"""The mtcrit benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload disk-verdict --seed 0 --seconds 10 --trace 0

Generates the workload's scenarios from the seed, then runs rounds of
operations until --seconds have passed (always at least one round).
Every operation runs in a fresh interpreter (perfbench/op.py), one at a
time, with BLAS/OpenMP pinned to one thread, against the checkout's
`src/`; its output is checked by perfbench/oracles.py.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
    setup_s      median time from spawning an operation's interpreter to
                 the end of `import mtcrit.cli` (at least 5 samples a run)
    wall_s       median over rounds of the summed operation times of one
                 round, set-up excluded
    peak_rss_mb  largest resident memory of any operation's process
Both times are scaled to a reference CPU speed: each operation's process
times a calibration kernel right before and right after its work
(perfbench/op.py), and the operation's time is multiplied by KERNEL_REF_S
over the mean of the two (set-up by KERNEL_REF_S over the first).  The
host this benchmark was built on changes speed by up to 70% within
seconds; the scaling takes out much of that and none of a change of the
program.  Raw times are printed above the result line, and the traced run
reports raw times.
--trace 1 reports the per-layer metrics of perfbench/tracing.py, medians
over rounds of per-round sums.  Workloads are described in
perfbench/scenarios.py and perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracles
import scenarios
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OP_SCRIPT = os.path.join(HERE, "op.py")
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
OP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0     # no round starts that would end past this
MIN_SETUP_SAMPLES = 5
KERNEL_REF_S = 0.015     # calibration kernel time on the reference CPU


def child_env(src: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], env: dict, stdout, stderr) -> subprocess.CompletedProcess:
    """Run op.py with the spawn time in the environment."""
    env = dict(env, PERFBENCH_SPAWNED=repr(time.monotonic()))
    return subprocess.run([sys.executable, OP_SCRIPT, *args], env=env, stdout=stdout,
                          stderr=stderr, timeout=OP_TIMEOUT_S, check=False)


def run_op(op: dict, op_dir: str, src: str, env: dict, traced: bool) -> dict:
    """Run one operation; the result carries its timings and "problems"."""
    with open(os.path.join(op_dir, "spec.json"), "w") as fh:
        json.dump({"cmd": op["cmd"], "args": op["args"]}, fh)
    with open(os.path.join(op_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(op_dir, "stderr.txt"), "w") as err:
        try:
            proc = spawn([op_dir, src] + (["--trace"] if traced else []), env, out, err)
        except subprocess.TimeoutExpired:
            return {"id": op["id"], "problems": [f"timeout after {OP_TIMEOUT_S:g} s"]}
    try:
        with open(os.path.join(op_dir, "result.json")) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(op_dir, "stderr.txt")) as fh:
            tail = fh.read()[-400:]
        return {"id": op["id"], "problems": [f"runner exit {proc.returncode}: {tail}"]}
    res["id"] = op["id"]
    res["problems"] = oracles.check(op, res["exit"], os.path.join(op_dir, "out"))
    if res["error"]:
        res["problems"].append(res["error"])
    return res


def setup_probe(src: str, env: dict) -> dict:
    proc = spawn(["--setup", src], env, subprocess.PIPE, subprocess.DEVNULL)
    return json.loads(proc.stdout)


def scaled_setup(res: dict) -> float:
    return res["setup_s"] * KERNEL_REF_S / res["calib_before_s"]


def scaled_wall(res: dict) -> float:
    return res["wall_s"] * KERNEL_REF_S / (0.5 * (res["calib_before_s"] + res["calib_after_s"]))


def summarize_ops(rounds: list[list[dict]]) -> None:
    """Per-subcommand operation times, for the reader (not a metric line)."""
    by_cmd = {}
    for results in rounds:
        for r in results:
            if "wall_s" in r:
                by_cmd.setdefault(r["id"].split("-")[0], []).append(r["wall_s"])
    for cmd, walls in sorted(by_cmd.items()):
        print(f"  {cmd:<10} n={len(walls):<3} median {statistics.median(walls):.4f} s  "
              f"per round {sum(walls) / len(rounds):.4f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mtcrit benchmark")
    p.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mtcrit", "cli.py")):
        print("error: run from the root of a mtcrit checkout (src/mtcrit missing)",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    env = child_env(src)
    ops = scenarios.operations(args.workload, args.seed)
    root = os.path.abspath(os.path.join(".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}"))

    rounds = []
    start = time.monotonic()
    try:
        while True:
            round_dir = os.path.join(root, f"round{len(rounds)}")
            scenarios.write_configs(ops, round_dir)
            t0 = time.monotonic()
            rounds.append([run_op(op, os.path.join(round_dir, op["id"]), src, env, traced)
                           for op in ops])
            shutil.rmtree(round_dir)
            now = time.monotonic()
            if now - start >= args.seconds or now - start + (now - t0) > RUN_BUDGET_S:
                break
        setup = [r for results in rounds for r in results if "setup_s" in r]
        while not traced and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(setup_probe(src, env))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass

    flat = [r for results in rounds for r in results]
    failed = [r for r in flat if r["problems"]]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(ops)} operations, {len(failed)} failed, trace={args.trace}")
    for r in failed:
        print(f"  FAIL {r['id']}: {'; '.join(r['problems'])}")
    summarize_ops(rounds)

    if traced:
        per_round = [tracing.layer_metrics([r for r in results if "trace" in r])
                     for results in rounds]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        print(f"  tracing overhead: estimated {metrics['trace.overhead_est_s']:.4f} s of "
              f"traced wall {metrics['trace.wall_s']:.4f} s a round (raw); the measured "
              f"overhead is trace.wall_s minus the raw wall_s a --trace 0 run on the "
              f"same seed prints")
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        raw = [sum(r.get("wall_s", 0.0) for r in results) for results in rounds]
        walls = [sum(scaled_wall(r) for r in results if "wall_s" in r) for results in rounds]
        print(f"  raw (unscaled) medians: wall_s {statistics.median(raw):.4f} s, setup_s "
              f"{statistics.median(r['setup_s'] for r in setup):.4f} s")
        metrics = {"setup_s": statistics.median(scaled_setup(r) for r in setup),
                   "wall_s": statistics.median(walls),
                   "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in flat) / 1024.0}
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    result = {"correct": not failed, "attempted": len(flat), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
