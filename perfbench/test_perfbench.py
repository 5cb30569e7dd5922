"""Self-tests of the benchmark harness (not of mtcrit).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import os

import pytest

import oracles
import run
import scenarios
import tracing

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_same_scenarios(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    scenarios.write_configs(scenarios.operations(workload, 7), str(a))
    scenarios.write_configs(scenarios.operations(workload, 7), str(b))
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def test_seeds_differ_and_cover_every_branch():
    fams = [op["config"]["family"] for op in scenarios.operations("disk-verdict", 1)
            if op["cmd"] == "criterion"]
    other = [op["config"]["family"] for op in scenarios.operations("disk-verdict", 2)
             if op["cmd"] == "criterion"]
    assert fams != other
    assert fams[0] == {"kind": "Zero"}
    pl = fams[1:]
    assert any(f["a_prime"] > 2 for f in pl)
    assert any(f["a_prime"] < 2 and f["c_prime"] > 0 for f in pl)
    assert any(f["a_prime"] < 2 and f["c_prime"] < 0 for f in pl)
    assert {oracles.expected_l(f) for f in fams} == {oracles.L_DISK, 0.5, -0.5}


def _criterion_zero(tmp_path, **changes):
    rep = {"M": 0.0, "S": 0.5, "l_closed": oracles.L_DISK, "verdict": "ExtremalExists_l",
           "pi_e_level": math.pi * math.e, "lambda_g": 2.1729163833204144}
    rep.update(changes)
    (tmp_path / "criterion.json").write_text(json.dumps(rep))
    op = {"cmd": "criterion", "config": {"family": {"kind": "Zero"}}}
    return oracles.check(op, 0, str(tmp_path))


def test_good_criterion_report_passes(tmp_path):
    assert _criterion_zero(tmp_path) == []


@pytest.mark.parametrize("changes", [{"verdict": "NoExtremal_Truncations"},
                                     {"M": 1e-6}, {"S": 0.5 + 1e-5},
                                     {"lambda_g": 2.18}])
def test_corrupted_criterion_report_fails(tmp_path, changes):
    assert _criterion_zero(tmp_path, **changes)


def test_corrupted_rect_report_fails(tmp_path):
    M, S = oracles.RECT_REF[(2.0, 1.0)]
    rep = {"M": M, "S": S, "K": [[1.0, 0.5]], "lambda_1": 1.25 * math.pi**2,
           "l_closed": (1 + 4 * S * math.exp(-1 - M)) / 2}
    rep["l_grid"] = rep["l_closed"]
    op = {"cmd": "rect", "config": {"domain": {"shape": "Rectangle", "width": 2.0,
                                               "height": 1.0}}}
    (tmp_path / "robin.json").write_text(json.dumps(rep))
    assert oracles.check(op, 0, str(tmp_path)) == []
    (tmp_path / "robin.json").write_text(json.dumps(dict(rep, M=M + 1e-6)))
    assert oracles.check(op, 0, str(tmp_path))
    (tmp_path / "robin.json").write_text(json.dumps(dict(rep, K=[[1.0, 0.4]])))
    assert oracles.check(op, 0, str(tmp_path))


def test_error_exit_and_missing_report_fail(tmp_path):
    op = {"cmd": "verify", "config": None}
    assert oracles.check(op, 1, str(tmp_path)) == ["exit code 1"]
    assert oracles.check(op, 0, str(tmp_path))[0].startswith("unreadable output")


def test_square_robin_maximum_closed_form():
    assert oracles.M_SQUARE == pytest.approx(-1.2347715, abs=5e-8)
    assert oracles.LAMBDA0_DISK == pytest.approx(2.172915, abs=1e-6)


def test_traced_self_times_within_wall(tmp_path):
    op = {"id": "criterion-0", "cmd": "criterion",
          "config": {"family": {"kind": "Zero"}}, "args": []}
    scenarios.write_configs([op], str(tmp_path))
    res = run.run_op(op, str(tmp_path / op["id"]), SRC, run.child_env(SRC), traced=True)
    assert res["problems"] == []
    tr, wall = res["trace"], res["wall_s"]
    span_self = sum(rec[2] for rec in tr["spans"].values())
    assert all(rec[2] >= 0.0 for rec in tr["spans"].values())
    assert 0.0 <= tr["top_level_s"] <= wall
    assert span_self + (wall - tr["top_level_s"]) <= wall + 1e-9
    m = tracing.layer_metrics([res])
    assert m["domain.robin_report_s"] > 0 and m["variational.lambda_g_s"] > 0
    assert m["domain.robin_calls"] > 0 and m["criterion.ratio_evals"] > 0
    assert 0.0 <= m["cli.self_s"] <= wall


def test_missing_binding_is_an_error(monkeypatch):
    monkeypatch.setitem(tracing.COUNTERS, "domain.gone", [("mtcrit.domain", "no_such_fn")])
    with pytest.raises(RuntimeError, match="no longer exists"):
        tracing.Tracer().install()
