"""Every output byte of a fixed set of runs, pinned by SHA-256.

Each case runs `mtcrit.cli.main` in process on one config: the five
subcommands on Zero and two PowerLog families (one on each side of the
verdict), and three `bubble` configs that fail or are refused.  Two more
cases pin the Robin data of the 2x1 rectangle and of the unit square.  The
table `output_digests.json` holds, for each case, the exit code, the
SHA-256 of stdout, of stderr and of every file the run leaves in --out,
and the leaves of each JSON report.  A mismatch names the file and, for a
report, the first field that differs, with its old and new value.

Updating the table is a declared output change: list the moved values in
CHANGES.md and rewrite the table with `PYTHONPATH=src python
tests/test_outputs.py`.  The digests are exact, so they hold on the CPython
and NumPy versions that recorded them; elsewhere these tests skip.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mtcrit import cli, domain
from mtcrit.perturbation import PerturbationFamily, asymptotic_data

TABLE_PATH = Path(__file__).with_name("output_digests.json")
FAMILIES = {
    "Zero": {"kind": "Zero"},
    "PowerLog": {"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                 "b_prime": 0.682198},
    "PowerLogSlow": {"kind": "PowerLog", "c_prime": -0.785475, "a_prime": 0.175441,
                     "b_prime": 1.107909},
}
CASES = {
    **{f"{cmd}-{name}": (cmd, {"family": fam}) for cmd in cli._COMMANDS
       for name, fam in FAMILIES.items()},
    # a late blow-down at gamma = 3, a low rung that blows down, and an
    # order refused before any solve
    "bubble-N23": ("bubble", {"N": 23}),
    "bubble-N2-low-rung": ("bubble", {"N": 2, "gamma_ladder": [0.75]}),
    "bubble-N287": ("bubble", {"N": 287}),
    "robin-2x1": ("robin", {"shape": "Rectangle", "width": 2.0, "height": 1.0}),
    "robin-square": ("robin", {"shape": "Rectangle", "width": 1.0, "height": 1.0}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(value, path: str = "") -> dict:
    """path -> value of every leaf of a JSON value, in key order."""
    if isinstance(value, dict):
        return {k: v for key in sorted(value)
                for k, v in _leaves(value[key], f"{path}.{key}" if path else key).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: value}


def record(case: str) -> dict:
    """The exit code, the digests and the report leaves of one case."""
    cmd, cfg = CASES[case]
    if cmd == "robin":
        rep = domain.robin_report(domain.DomainModel.from_json(cfg),
                                  asymptotic_data(PerturbationFamily()).F)
        files, code, out, err = {"robin.json": json.dumps(
            rep.to_json(), sort_keys=True, indent=2).encode()}, 0, "", ""
    else:
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "config.json")
            config.write_text(json.dumps(cfg))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([cmd, "--config", str(config), "--out", str(Path(tmp, "out"))])
            outs = sorted(Path(tmp, "out").glob("*")) if Path(tmp, "out").exists() else []
            files = {p.name: p.read_bytes() for p in outs}
            out, err = stdout.getvalue(), stderr.getvalue()
    return {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode()),
            "files": {name: _sha(data) for name, data in files.items()},
            "reports": {name: _leaves(json.loads(data)) for name, data in files.items()
                        if name.endswith(".json")}}


def mismatches(want: dict, got: dict) -> list:
    """What differs between a recorded case and a new one, one line each."""
    out = [f"{key}: {want[key]} -> {got[key]}" for key in ("exit", "stdout", "stderr")
           if want[key] != got[key]]
    for name in sorted(set(want["files"]) | set(got["files"])):
        if name not in got["files"] or name not in want["files"]:
            out.append(f"{name}: {'missing' if name in want['files'] else 'not in the table'}")
        elif want["files"][name] != got["files"][name]:
            old, new = want["reports"].get(name, {}), got["reports"].get(name, {})
            field = next((k for k in sorted(set(old) | set(new))
                          if k not in old or k not in new or old[k] != new[k]), None)
            out.append(f"{name}: bytes differ" if field is None else
                       f"{name}: bytes differ, first at field {field}: "
                       f"{old.get(field, 'absent')!r} -> {new.get(field, 'absent')!r}")
    return out


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


TABLE = json.loads(TABLE_PATH.read_text()) if TABLE_PATH.exists() else {}
pinned = pytest.mark.skipif(
    TABLE.get("versions") != _versions(),
    reason=f"the digests were recorded on {TABLE.get('versions')}, not {_versions()}")


def test_the_table_covers_every_case():
    assert sorted(TABLE["cases"]) == sorted(CASES)


@pinned
@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_the_table(case):
    problems = mismatches(TABLE["cases"][case], record(case))
    assert not problems, f"{case}: " + "; ".join(problems)


@pinned
def test_one_ulp_in_one_curve_value_fails(monkeypatch):
    # the first rung's maximiser moves by one ulp at one node after every
    # reported number was formed: only that rung's curve file differs
    real, calls = cli.solve_subcritical, []

    def nudged(*args, **kwargs):
        run = real(*args, **kwargs)
        if not calls:
            run.u[1000] = math.nextafter(run.u[1000], math.inf)
        calls.append(run.alpha)
        return run

    monkeypatch.setattr(cli, "solve_subcritical", nudged)
    assert mismatches(TABLE["cases"]["extremal-Zero"], record("extremal-Zero")) == [
        "extremal_alpha8.7965.csv: bytes differ"]


@pinned
def test_a_report_mismatch_names_its_first_field(monkeypatch):
    real = cli.closed_form_l
    monkeypatch.setattr(cli, "closed_form_l",
                        lambda *args: math.nextafter(real(*args), math.inf))
    want = TABLE["cases"]["criterion-Zero"]
    old = want["reports"]["criterion.json"]["l_closed"]
    assert mismatches(want, record("criterion-Zero")) == [
        f"criterion.json: bytes differ, first at field l_closed: {old!r} -> "
        f"{math.nextafter(old, math.inf)!r}"]


if __name__ == "__main__":
    TABLE_PATH.write_text(json.dumps({"versions": _versions(),
                                      "cases": {case: record(case) for case in CASES}},
                                     sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {TABLE_PATH}", file=sys.stderr)
