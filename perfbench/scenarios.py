"""Seeded scenario generator for the mtcrit benchmark.

Each workload is a list of operations.  An operation is one program
invocation: a `mtcrit` subcommand with its config file, or (for the
rectangles) one call sequence into the public API.  The generator is a
pure function of (workload, seed); `write_configs` turns the operations
into config JSON files, the only input the program sees.

    python3 perfbench/scenarios.py --workload disk-verdict --seed 0 --out DIR

Why each workload and range was chosen is recorded in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random

WORKLOADS = ("disk-verdict", "disk-bubble", "rect-robin")

# PowerLog families drawn per verdict branch (c = 0, so only the infinity
# branch g ~ c' t^-a' (log t)^-b' is active).  a' >= 2.3 keeps the fast
# branch off the border a' = 2.  The slow branches are narrower than the
# admissible set: elsewhere in a' < 2 `criterion` exits 1 with NoLimitError
# (or says Inconclusive) although the closed-form l is exact; NOTES.md maps
# that defect.  Inside these boxes the grid spread stays below 0.17.
BRANCHES = {
    "fast-decay": {"a_prime": (2.3, 4.0), "c_prime": (-0.9, 2.0)},     # l = (1+2/e)/2
    "slow-positive": {"a_prime": (0.1, 1.5), "c_prime": (0.5, 2.0)},   # l = +1/2
    "slow-negative": {"a_prime": (0.1, 0.4), "c_prime": (-0.9, -0.5)},  # l = -1/2
}
B_PRIME = (0.1, 1.5)
FAMILIES_PER_BRANCH = 2
# profile_integrals rejects r_max < 1000 after all three ODE solves, so the
# generated radius stays in the range every profiles path accepts
R_MAX = (1000.0, 4000.0)
VERIFY_RUNS = 3
RECTANGLES = ((2.0, 1.0), (1.0, 1.0))


def families(rng: random.Random) -> list[dict]:
    """Zero plus FAMILIES_PER_BRANCH PowerLog families from every branch."""
    out = [{"kind": "Zero"}]
    for _ in range(FAMILIES_PER_BRANCH):
        for ranges in BRANCHES.values():
            out.append({
                "kind": "PowerLog",
                "c_prime": round(rng.uniform(*ranges["c_prime"]), 6),
                "a_prime": round(rng.uniform(*ranges["a_prime"]), 6),
                "b_prime": round(rng.uniform(*B_PRIME), 6),
            })
    return out


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one round of `workload`, in execution order.

    Each operation is {"id", "cmd", "config", "args"}: `cmd` is a mtcrit
    subcommand or "rect" (public-API Robin data of one rectangle),
    `config` the JSON the program reads, `args` extra CLI arguments.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "rect-robin":
        rects = list(RECTANGLES)
        rng.shuffle(rects)
        for w, h in rects:
            dom = {"shape": "Rectangle", "width": w, "height": h}
            ops.append({"id": f"rect-{w:g}x{h:g}", "cmd": "rect",
                        "config": {"domain": dom, "family": {"kind": "Zero"}}, "args": []})
        return ops
    # both disk workloads see the same families for a given seed
    fams = families(random.Random(f"families:{seed}"))
    if workload == "disk-verdict":
        for k, fam in enumerate(fams):
            for cmd in ("criterion", "extremal"):
                ops.append({"id": f"{cmd}-{k}", "cmd": cmd,
                            "config": {"family": fam}, "args": []})
        return ops
    for k, fam in enumerate(fams):
        ops.append({"id": f"bubble-{k}", "cmd": "bubble",
                    "config": {"family": fam}, "args": []})
    r_max = round(rng.uniform(*R_MAX), 3)
    ops.append({"id": "profiles", "cmd": "profiles", "config": {"r_max": r_max}, "args": []})
    for k in range(VERIFY_RUNS):
        ops.append({"id": f"verify-{k}", "cmd": "verify", "config": None,
                    "args": ["--seed", str(rng.randrange(10**6))]})
    return ops


def write_configs(ops: list[dict], root: str) -> None:
    """Create root/<id>/ with config.json (when the op has one) and an
    empty out/ directory for the program's reports."""
    for op in ops:
        d = os.path.join(root, op["id"])
        os.makedirs(os.path.join(d, "out"), exist_ok=True)
        if op["config"] is not None:
            with open(os.path.join(d, "config.json"), "w") as fh:
                json.dump(op["config"], fh, sort_keys=True, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the config files")
    args = p.parse_args(argv)
    ops = operations(args.workload, args.seed)
    write_configs(ops, args.out)
    for op in ops:
        print(op["id"], json.dumps(op["config"], sort_keys=True), *op["args"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
