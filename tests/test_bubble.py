"""Tests for the bubble shooter and its expansion checks."""

import functools
import io
import math
import re
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from mtcrit import perturbation
from mtcrit import (
    BlowDownError,
    PerturbationFamily,
    asymptotic_data,
    eval_psi_N,
    ladder_reports,
    phi_N,
    shoot_bubble,
    verify_expansion,
    verify_source_expansion,
)
from mtcrit import bubble, cli
from mtcrit import profiles as profiles_module
from mtcrit.bubble import OrderUnderflowError, _ladder_window, check_ladder
from mtcrit.csvout import HERMITE_STRIDE, csv_texts

# Zero and the PowerLog family of the recorded bubble and extremal reports in
# test_cli, as a config names them
CURVE_FAMILIES = {"Zero": {"kind": "Zero"},
                  "PowerLog": {"kind": "PowerLog", "c_prime": 1.256171, "a_prime": 2.593292,
                               "b_prime": 0.682198}}


def test_shoot_basic(fam0):
    sol = shoot_bubble(fam0, 1, 5.0)
    assert sol.values[0] == pytest.approx(5.0)
    assert sol.derivs[0] == 0.0
    # Monotone decreasing profile out to the concentration radius (the
    # first step from the series seed is O(y0^2) and may round to zero).
    assert np.all(np.diff(sol.values) <= 0)
    assert sol.values[-1] < sol.values[0]
    assert np.all(sol.values > 0)
    # t = log(1 + (r/mu)^2) at rho equals (1 - eps0) gamma^2.
    assert math.log1p(sol.y_grid[-1] ** 2) == pytest.approx((1.0 - 0.75) * 25.0, rel=1e-12)


def test_scaling_relation(fam0):
    # For g = 0, H = 1 and the mu-scaling reads
    # lam * mu^2 * gamma^2 * phi_0(gamma^2) = 4, lam the unit disk's level.
    g = 4.0
    sol = shoot_bubble(fam0, 1, g)
    assert sol.lam == 4.0 / (g * g * math.e)
    resid = abs(sol.lam * sol.mu**2 * g * g * phi_N(0, g * g) / 4.0 - 1.0)
    assert resid < 1e-12
    with pytest.raises(ValueError, match="t > 0"):
        shoot_bubble(fam0, 1, 0.0)


def test_source_matches_at_origin(fam0):
    g = 5.0
    sol = shoot_bubble(fam0, 1, g)
    _, psi_p0 = eval_psi_N(fam0, 1, g)
    lhs = 0.5 * sol.lam * psi_p0
    rhs = 4.0 / (sol.mu**2 * g)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_eps0_validation(fam0):
    with pytest.raises(ValueError):
        shoot_bubble(fam0, 1, 4.0, eps0=0.3)
    with pytest.raises(ValueError):
        shoot_bubble(fam0, 1, 4.0, eps0=1.0)


def test_blow_down(fam0):
    # The rescaled equation is multiplier-invariant, so force the failure
    # by the order: at gamma = 3, N = 22 is the last order that reaches rho.
    assert shoot_bubble(fam0, 22, 3.0).values[-1] > 0.0
    with pytest.raises(BlowDownError, match="gamma = 3, N = 30"):
        shoot_bubble(fam0, 30, 3.0)


def test_a_blown_down_shot_stops_at_its_first_probe_below_zero(tmp_path, capsys, monkeypatch):
    # at gamma = 3, N = 23 the shot blows down; it stops at the first stage
    # whose B is <= 0 (the shot integrated on to rho, 277 evaluations more)
    probes = []

    def recording(accel, *args, **kwargs):
        def probed(y, B, dB):
            probes.append(B)
            return accel(y, B, dB)

        return real(probed, *args, **kwargs)

    real = bubble.solve_ivp
    monkeypatch.setattr(bubble, "solve_ivp", recording)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"N": 23}')
    assert cli.main(["bubble", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("error: BlowDownError: bubble at gamma = 3, N = 23 "
                                       "reached zero before rho\n")
    assert probes[-1] <= 0.0 < min(probes[:-1])


def test_ladder_trends(ladder0):
    exp_sups = [r.sup_normalized for r in ladder0["expansion"]]
    src_sups = [r.sup_normalized for r in ladder0["source"]]
    assert all(np.isfinite(exp_sups)) and all(np.isfinite(src_sups))
    assert ladder0["expansion_nonincreasing"]
    assert ladder0["source_nonincreasing"]
    # The leading-order residual is itself bounded on the common window.
    for rep in ladder0["expansion"]:
        assert np.isfinite(rep.leading_sup)
        assert rep.r0_gap < 1e-4


def test_source_window_is_common_to_the_ladder(monkeypatch, fam0, profiles):
    # the gamma = 3 shot ends at t = (1 - eps0) 9 = 2.25 < gamma_min, so every
    # rung's source sup is taken over t <= 2.25; a gamma_min below that end
    # caps the window itself
    caps = []

    def spy(sol, profiles, t_cap):
        caps.append((sol.gamma, t_cap))
        return verify_source_expansion(sol, profiles, t_cap)

    monkeypatch.setattr(bubble, "verify_source_expansion", spy)
    ladder_reports(fam0, 1, [5.0, 3.0, 4.0], profiles)
    assert caps == [(3.0, 2.25), (4.0, 2.25), (5.0, 2.25)]
    assert _ladder_window([5.0, 6.0], 0.75)[1] == 5.0


@pytest.mark.parametrize("low", [2.77, 2.99, 3.0])
def test_source_window_holds_the_whole_smallest_shot(low):
    # np.log1p puts the last node of the 2.77 and 2.99 shots one ulp past
    # (1 - eps0) gamma^2; the source window still reads it
    y = bubble._shot_grid(low, 0.75)[1:]
    assert np.all(np.log1p(y * y) <= _ladder_window([low, low + 1.0], 0.75)[1])


@functools.lru_cache(maxsize=None)
def _bubble_curves(name: str) -> dict:
    """gamma -> the curve file spec (names, header, columns, stride) that
    `mtcrit bubble` writes on the default ladder for CURVE_FAMILIES[name]."""
    _, curves, _, code = cli.cmd_bubble({"family": CURVE_FAMILIES[name]})
    assert code == 0
    return {float(names[0][len("bubble_gamma"):-len(".csv")]): (names, header, columns, stride)
            for names, header, columns, stride in curves}


def _text(header, columns, stride) -> str:
    (text,) = csv_texts(header, columns, 1, stride)
    return text


def test_csv_round_trip():
    names, header, columns, stride = _bubble_curves("Zero")[3.0]
    rows = _text(header, columns, stride).strip().splitlines()
    assert names == ["bubble_gamma3.csv"]
    assert rows[0] == "r,B,dB_dr,t"
    # every 5th of the 3001 nodes, the last one among them
    assert len(columns[0]) == 3001 and len(rows) == 1 + 601


@pytest.mark.parametrize("gamma", [3.0, 4.0, 5.0])
@pytest.mark.parametrize("name", list(CURVE_FAMILIES))
def test_csv_rebuilds_the_shot_by_hermite_interpolation(name, gamma):
    # measured: at most 2.6e-9 relative on these six shots
    _, header, columns, stride = _bubble_curves(name)[gamma]
    sol = shoot_bubble(PerturbationFamily.from_json(CURVE_FAMILIES[name]), 1, gamma)
    assert np.array_equal(columns[0], sol.y_grid * sol.mu) and np.array_equal(columns[1],
                                                                              sol.values)
    r, B, dB_dr, _ = np.loadtxt(io.StringIO(_text(header, columns, stride)), delimiter=",",
                                skiprows=1, unpack=True)
    rebuilt = CubicHermiteSpline(r, B, dB_dr)(sol.y_grid * sol.mu)
    assert np.max(np.abs(rebuilt / sol.values - 1.0)) < 1e-8


@pytest.mark.parametrize("cut", [0, 3], ids=["on-stride", "off-stride"])
def test_csv_rows_are_the_full_files_rows(cut):
    # the kept rows are the bytes of the stride-1 file at nodes 0, 5, 10, ...
    # and at the last node, also where (n - 1) % 5 != 0
    _, header, columns, stride = _bubble_curves("Zero")[3.0]
    n = len(columns[0]) - cut
    columns = [c[:n] for c in columns]
    assert stride == HERMITE_STRIDE == 5
    full = _text(header, columns, 1).encode().split(b"\r\n")
    kept = _text(header, columns, stride).encode().split(b"\r\n")
    assert len(full) == n + 2
    assert kept == full[:1] + [full[1 + i] for i in range(n)
                               if i % 5 == 0 or i == n - 1] + [b""]


def test_powerlog_family_shoots():
    fam = PerturbationFamily(kind="PowerLog", c=0.01, a=3.0, b=0.0)
    g = 5.0
    sol = shoot_bubble(fam, 1, g)
    assert sol.values[0] == pytest.approx(g)
    assert np.all(sol.values > 0)


def test_powerlog_shot_takes_the_scalar_path(monkeypatch):
    # ode.solve_ivp (Dormand-Prince on two Python floats) passes B to the
    # shot's acceleration as a float: each call must pick its branch by plain
    # comparisons, never by the array masks.
    def no_masks(*args, **kwargs):
        raise AssertionError("the mask path of eval_g was taken")

    monkeypatch.setattr(perturbation, "_eval_power_log", no_masks)
    fam = PerturbationFamily(kind="PowerLog", c=-0.3, a=0.4, b=0.7, g0=0.2,
                             c_prime=1.5, a_prime=0.5, b_prime=1.2, R_prime=3.0)
    # the shot sweeps B from gamma > R' down into the blend; the near-zero
    # branch, below 1/R', takes a scalar call of its own
    sol = shoot_bubble(fam, 1, 4.0)
    assert sol.values[0] == 4.0 and sol.values[-1] < fam.R_prime
    psi, dpsi = eval_psi_N(fam, 1, 0.5 / fam.R_prime)
    assert type(psi) is float and type(dpsi) is float


def test_every_psi_evaluation_of_the_ladder_calls_the_bubble_binding(monkeypatch, fam0,
                                                                      profiles):
    # perfbench/tracing.py counts bubble.psi_evals by wrapping
    # mtcrit.bubble.eval_psi_N: a shot calls it once per evaluation of its
    # acceleration, once for its seed and twice in its source check, so a
    # path around the binding would leave the count low
    calls, nfev = [], []
    real_psi, real_solve = bubble.eval_psi_N, bubble.solve_ivp

    def counting_solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(bubble, "eval_psi_N", lambda *args: calls.append(args) or real_psi(*args))
    monkeypatch.setattr(bubble, "solve_ivp", counting_solve)
    ladder_reports(fam0, 1, [3.0, 4.0, 5.0], profiles=profiles)
    assert len(nfev) == 3 and len(calls) == sum(nfev) + 3 * 3


def test_a_ladder_builds_each_rung_grid_once(fam0, profiles):
    # check_ladder's and ladder_reports' windows and the shots read one
    # cached, read-only grid per rung: 3 built where 11 were
    bubble._shot_grid.cache_clear()
    gammas = [3.0, 4.0, 5.0]
    check_ladder(fam0, 1, gammas, 0.75)
    rep = ladder_reports(fam0, 1, gammas, profiles=profiles)
    assert bubble._shot_grid.cache_info().misses == 3
    for sol in rep["solutions"]:
        assert sol.y_grid is bubble._shot_grid(sol.gamma, 0.75)
        assert not sol.y_grid.flags.writeable


@pytest.mark.parametrize("gamma,eps0,past_old_r_max", [
    (8.722451639024623, 0.75, False), (8.722451639024625, 0.75, True),
    (7.962472532402823, 0.7, False), (7.962472532402824, 0.7, True),
])
def test_check_ladder_refuses_what_verify_expansion_refuses(fam0, profiles, gamma, eps0,
                                                            past_old_r_max):
    # each pair straddles, by one float, the largest gamma whose expansion
    # window fits inside r = 2000, where the profiles used to end and both
    # refused the larger of the two; the profiles now reach oo, so both take
    # each ladder, and the window's reach is still read off the shot's grid
    cap, _, (reach,) = _ladder_window([gamma], eps0)
    sol = shoot_bubble(fam0, 1, gamma, eps0=eps0)
    assert reach == np.max(sol.y_grid[np.log1p(sol.y_grid ** 2) <= cap])
    assert (reach > 2000.0) == past_old_r_max
    check_ladder(fam0, 1, [gamma], eps0)
    rep = verify_expansion(sol, profiles, t_cap=cap)
    assert np.isfinite(rep.sup_normalized) and np.isfinite(rep.r0_gap)


def test_expansion_check_evaluates_the_profiles_where_its_sups_read(fam0, profiles):
    # the model is built only on the nodes t <= t_cap at y >= 0.01, about 750
    # of the 3001 at gamma = 5, and not on the whole shot
    sol = shoot_bubble(fam0, 1, 5.0)
    cap = _ladder_window([3.0, 4.0, 5.0], 0.75)[0]
    sizes = []

    def counting(P):
        return lambda r: sizes.append(np.size(r)) or P(r)

    rep = verify_expansion(sol, {i: counting(profiles[i]) for i in (1, 2)}, t_cap=cap)
    y = sol.y_grid[1:]
    read = np.count_nonzero((np.log1p(y * y) <= cap) & (y >= 0.01))
    assert 700 < read < 800 and sizes == [read, read]
    assert rep.sup_normalized == verify_expansion(sol, profiles, t_cap=cap).sup_normalized


def test_source_check_evaluates_each_node_once(monkeypatch, fam0, profiles):
    # the three Laplacians share the check's T0 = t, its e^{-2t} and one
    # explicit S0 (one dilogarithm) at each node of the window; S1 and S2
    # are read there once each
    sol = shoot_bubble(fam0, 1, 5.0)
    cap = _ladder_window([3.0, 4.0, 5.0], 0.75)[1]
    dilogs, sizes = [], []
    real_li2 = profiles_module.li2_neg

    def counting(P):
        return lambda r: sizes.append(np.size(r)) or P(r)

    def refuse(*args):
        raise AssertionError("the source check recomputed T0")

    monkeypatch.setattr(profiles_module, "li2_neg", lambda x: dilogs.append(np.size(x))
                        or real_li2(x))
    monkeypatch.setattr(profiles_module, "_t0", refuse)
    rep = verify_source_expansion(sol, {i: counting(profiles[i]) for i in (1, 2)}, cap)
    y = sol.y_grid[1:]
    window = np.count_nonzero((np.log1p(y * y) <= cap) & (y >= bubble._Y_FLOOR))
    assert window > 100 and dilogs == [window] and sizes == [window, window]
    monkeypatch.undo()
    assert rep.to_json() == verify_source_expansion(sol, profiles, cap).to_json()


def test_check_ladder_refuses_gamma_past_the_budget(fam0):
    top = math.sqrt(700.0)
    check_ladder(fam0, 1, [3.0, top], 0.75)
    with pytest.raises(ValueError, match="exponent budget"):
        check_ladder(fam0, 1, [3.0, math.nextafter(top, 30.0)], 0.75)


@pytest.mark.parametrize("gammas", [[], [0.0], [-3.0], [3.0, -0.0], [5e-324, -1.0]])
def test_check_ladder_refuses_an_empty_or_non_positive_ladder(monkeypatch, fam0, gammas):
    # refused by its own condition before any grid or scaling is built: []
    # used to end in max()'s "empty sequence" and [-3.0] in eval_H's "t > 0"
    seen = []
    for name in ("_shot_grid", "_mu_from_scaling", "asymptotic_data"):
        monkeypatch.setattr(bubble, name, lambda *a, _n=name, **k: seen.append(_n))
    with pytest.raises(ValueError, match=r"^need at least one gamma, all > 0 \(got "
                                         + re.escape(repr(gammas)) + r"\)$"):
        check_ladder(fam0, 1, gammas, 0.75)
    assert seen == []


def test_check_ladder_refuses_the_eps0_of_shoot_bubble(fam0):
    for eps0 in (1.0 / math.sqrt(math.e), 1.0, 0.5):
        with pytest.raises(ValueError, match=re.escape(f"(got {eps0!r})")) as shot:
            shoot_bubble(fam0, 1, 3.0, eps0=eps0)
        with pytest.raises(ValueError) as ladder:
            check_ladder(fam0, 1, [3.0], eps0)
        assert str(ladder.value) == str(shot.value)
    check_ladder(fam0, 1, [3.0], math.nextafter(1.0 / math.sqrt(math.e), 1.0))


@pytest.mark.parametrize("gamma,refused", [(0.5, True), (0.7, False)])
def test_check_ladder_refuses_an_empty_window(fam0, profiles, gamma, refused):
    # verify_expansion takes its sups over the window's nodes at
    # y >= _Y_FLOOR; at gamma = 0.5 the window t <= 0.05 ends at y = 0.23
    sol = shoot_bubble(fam0, 1, gamma)
    cap, _, _ = _ladder_window([gamma], 0.75)
    if refused:
        with pytest.raises(ValueError, match="holds no node"):
            check_ladder(fam0, 1, [gamma], 0.75)
        with pytest.raises(ValueError, match="zero-size"):
            verify_expansion(sol, profiles, t_cap=cap)
    else:
        check_ladder(fam0, 1, [gamma], 0.75)
        verify_expansion(sol, profiles, t_cap=cap)


@pytest.mark.parametrize("gammas,refused", [([1.0], True), ([0.9, 2.0], True),
                                            ([1.1, 2.0], False)])
def test_check_ladder_refuses_gamma_where_A_has_no_value(gammas, refused):
    # A(gamma) = c' a' gamma^-(a'+2) (log gamma)^-b' is inf at gamma = 1 and
    # nan below it
    fam = PerturbationFamily(kind="PowerLog", c_prime=0.5, a_prime=1.0, b_prime=0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = asymptotic_data(fam).A(np.array(gammas))
    assert np.all(np.isfinite(A)) != refused
    if refused:
        with pytest.raises(ValueError, match="only for gamma > 1"):
            check_ladder(fam, 1, gammas, 0.75)
    else:
        check_ladder(fam, 1, gammas, 0.75)


# gamma_min -> the first N at which phi_{N-1}(gamma_min^2) in the bubble
# scaling is below the normal doubles
N_UNDERFLOW = {1.0: 171, 2.0: 231, 3.0: 287, 5.0: 399, 10.0: 722}


@pytest.mark.parametrize("gamma", N_UNDERFLOW)
def test_check_ladder_refuses_orders_past_the_underflow(fam0, gamma):
    # eps0 = 0.9 keeps the expansion window of gamma = 10 inside r_max
    N = N_UNDERFLOW[gamma]
    assert phi_N(N - 2, gamma * gamma) >= sys.float_info.min > phi_N(N - 1, gamma * gamma)
    check_ladder(fam0, N - 1, [gamma, 12.0], 0.9)
    for order in (N, N + 5, 10**12):
        with pytest.raises(OrderUnderflowError, match=f"N = {order} is too large"):
            check_ladder(fam0, order, [12.0, gamma], 0.9)


def test_orders_below_the_underflow_still_blow_down(fam0):
    # N = 286 passes the check on the default ladder and its shot still
    # hits zero before rho (Psi_N ~ (1 + g)(1 + t^2) for N >> gamma^2)
    check_ladder(fam0, 286, [3.0, 4.0, 5.0], 0.75)
    with pytest.raises(BlowDownError):
        shoot_bubble(fam0, 286, 3.0)


def test_shoot_refuses_an_order_past_the_underflow(fam0):
    with pytest.raises(ValueError, match="N = 287 is too large for gamma = 3"):
        shoot_bubble(fam0, 287, 3.0)
