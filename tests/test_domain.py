"""Robin data on the disk and the rectangle; Green and Robin functions and
the pole quadrature on the disk."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from mtcrit import (
    DomainModel,
    PoleCoincidenceError,
    Shape,
    first_bessel_zero,
    lambda1,
    robin_report,
)
import mtcrit.domain as domain
import mtcrit.numerics as numerics
from mtcrit.domain import green, integrate_around_pole, robin, robin_search
from mtcrit.perturbation import PowerProfile

RECT = DomainModel(shape=Shape.RECTANGLE, width=2.0, height=1.0)
RECTS = {f"{w:g}x{h:g}": DomainModel(shape=Shape.RECTANGLE, width=w, height=h)
         for w, h in ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (6.0, 1.0))}


def _random_interior(rng):
    """A point of the unit disk at least 0.02 from its boundary."""
    while True:
        p = rng.uniform(-0.95, 0.95, size=2)
        if math.hypot(*p) < 0.98:
            return p


def test_first_bessel_zero():
    with mpmath.workdps(30):
        j01 = float(mpmath.besseljzero(0, 1))
    assert abs(first_bessel_zero() - j01) <= math.ulp(j01)


def test_lambda1_disk(disk):
    assert lambda1(disk) == pytest.approx(5.783185962946783, abs=1e-9)


@pytest.mark.parametrize("dom", [DomainModel()], ids=["disk"])
def test_green_symmetry(dom):
    rng = np.random.default_rng(3)
    for _ in range(12):
        x = _random_interior(rng)
        y = _random_interior(rng)
        if np.hypot(*(x - y)) < 1e-3:
            continue
        assert green(dom, x, y) == pytest.approx(green(dom, y, x),
                                                 rel=1e-10, abs=1e-12)


def test_green_boundary_decay():
    disk = DomainModel()
    val = green(disk, np.zeros(2), np.array([1.0 - 1e-6, 0.0]))
    assert 0.0 <= val < 4e-7


def test_green_pole_coincidence(disk):
    with pytest.raises(PoleCoincidenceError):
        green(disk, np.array([0.1, 0.2]), np.array([0.1, 0.2]))


def test_green_positive_and_log_singular(disk):
    x = np.array([0.2, -0.1])
    close = green(disk, x, x + np.array([1e-8, 0.0]))
    far = green(disk, x, x + np.array([0.5, 0.5]))
    assert close > far > 0.0
    # log(1/|x-y|^2)/4pi singular part plus the regular (Robin) part
    expected = (math.log(1e16) + robin(disk, x)) / (4.0 * math.pi)
    assert close == pytest.approx(expected, rel=1e-9)


def test_robin_disk_formula(disk):
    for r in (0.0, 0.3, 0.7):
        assert robin(disk, np.array([r, 0.0])) == pytest.approx(
            2.0 * math.log1p(-r * r), abs=1e-13)


@pytest.mark.parametrize("dom,x", [(DomainModel(), np.array([0.15, -0.2]))], ids=["disk"])
def test_robin_is_green_diagonal_limit(dom, x):
    eps = 1e-5  # small enough for the limit, large enough for cosh-cos
    y = x + np.array([eps, 0.0])
    # 4 pi G = log(1/|x-y|^2) + H_x(y); H continuous on the diagonal
    H_near = 4.0 * math.pi * green(dom, x, y) - math.log(1.0 / eps**2)
    assert H_near == pytest.approx(robin(dom, x), abs=1e-4)


def test_integrate_around_pole_log_kernel(disk):
    # int_D log(1/|y|^2)/(4 pi) dy = 1/4
    val = integrate_around_pole(disk, np.zeros(2),
                                lambda r, pts: np.log(1.0 / r**2) / (4.0 * math.pi))
    assert val == pytest.approx(0.25, rel=1e-8)


def test_robin_report_disk(disk, robin0):
    # c_1 = 1: the maximizer is the centre exactly and M the Robin function
    # there, with no search
    assert robin0.K == [(0.0, 0.0)]
    assert robin0.M == robin(disk, disk.centre())
    assert robin0.S == 0.5


def test_disk_robin_max_is_positive_zero(disk, data0):
    # the centre's Robin value 2 log1p(-0.0) is -0.0; the report's M is 0.0,
    # so criterion.json writes "M": 0.0 and verify prints M=0.00e+00
    assert math.copysign(1.0, robin_report(disk, data0.F).M) == 1.0


def test_robin_search_agrees_with_the_disk_series(disk, robin0, data0):
    # the search and the pole quadrature find the series' M to 1e-12, its
    # maximizer to 1e-6 and its S to 1e-10 (measured: 0, 0 and 1.8e-14)
    found = robin_search(disk, data0.F)
    assert abs(found.M - robin0.M) <= 1e-12
    assert math.dist(found.K[0], robin0.K[0]) <= 1e-6
    assert abs(found.S - robin0.S) <= 1e-10


@pytest.mark.parametrize("kappa", [0.0, 0.01, 0.1, 0.25, 0.5, 1.0])
def test_disk_series_S_is_the_first_moment(disk, kappa):
    # S = I_1 = Gamma(kappa + 2) / 4 to the bit, and e^{-M} S meets the
    # rectangle's lower bound with equality (ROADMAP item 12)
    rep = robin_report(disk, PowerProfile(kappa))
    want = math.gamma(kappa + 2) / 4
    assert rep.S == want
    assert math.exp(-rep.M) * rep.S == want


def test_domain_json_round_trip():
    # from_json reads every key of the config's domain object, an absent key
    # takes its field's default, and each side is kept as a float
    assert DomainModel.from_json({"shape": "Rectangle", "width": 2.0, "height": 3.0}) \
        == DomainModel(shape=Shape.RECTANGLE, width=2.0, height=3.0)
    assert DomainModel.from_json({}) == DomainModel()
    rect = DomainModel.from_json({"shape": "Rectangle", "width": 2})
    assert (rect.width, rect.height) == (2.0, 1.0)
    assert type(rect.width) is float and type(rect.height) is float


@pytest.mark.parametrize("shape", list(Shape))
@pytest.mark.parametrize("side,value", [
    ("width", "2"), ("width", True), ("height", None), ("width", math.nan),
    ("height", math.inf), ("width", -math.inf)])
def test_domain_refuses_a_side_that_is_no_finite_number(shape, side, value):
    # both shapes carry both sides, so both check them
    with pytest.raises(ValueError, match=f"{side} must be a finite number"):
        DomainModel(shape=shape, **{side: value})
    with pytest.raises(ValueError, match=f"{side} must be a finite number"):
        DomainModel.from_json({"shape": shape.value, side: value})


def test_domain_shape_is_converted():
    # a valid shape name is the Shape it names, and the side checks apply
    assert DomainModel(shape="UnitDisk").shape is Shape.UNIT_DISK
    assert DomainModel(shape="UnitDisk").centre().tolist() == [0.0, 0.0]
    assert DomainModel(shape="Rectangle", width=2.0) == DomainModel(Shape.RECTANGLE, 2.0)
    with pytest.raises(ValueError, match="sides must be positive"):
        DomainModel(shape="Rectangle", width=-1.0)


@pytest.mark.parametrize("sides,named", [
    ({"width": 3.0}, "width = 3.0"), ({"height": 0.5}, "height = 0.5"),
    ({"width": 2, "height": 2.0}, "width = 2.0, height = 2.0")])
def test_unit_disk_refuses_a_side(sides, named):
    # a side of a unit disk would mean nothing; its default may be given
    with pytest.raises(ValueError, match=f"a unit disk takes no side \\(got {named}\\)"):
        DomainModel(**sides)
    with pytest.raises(ValueError, match=named):
        DomainModel.from_json({"shape": "UnitDisk", **sides})
    assert DomainModel.from_json({"width": 1, "height": 1.0}) == DomainModel()


@pytest.mark.parametrize("shape", ["Ellipse", "unitdisk", None, 0])
def test_domain_refuses_an_unknown_shape(shape):
    with pytest.raises(ValueError, match="not a valid Shape"):
        DomainModel(shape=shape)


# -- the disk-only functions refuse a rectangle -------------------------------


@pytest.mark.parametrize("name", ["green", "robin", "integrate_around_pole", "robin_search"])
def test_disk_only_functions_refuse_a_rectangle(monkeypatch, name):
    # each refuses up front: no F, no integrand and no search is called
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)

    monkeypatch.setattr(domain, "minimize", spy)
    x = RECT.centre()
    call = {"green": lambda: green(RECT, x, [0.5, 0.5]),
            "robin": lambda: robin(RECT, x),
            "integrate_around_pole": lambda: integrate_around_pole(RECT, x, spy),
            "robin_search": lambda: robin_search(RECT, spy)}[name]
    with pytest.raises(ValueError, match=f"^{name} serves the unit disk only, not a Rectangle"):
        call()
    assert seen == []


def test_rect_report_calls_no_disk_path(monkeypatch, data0):
    # a rectangle's report reads its series alone, which is all the
    # rect-robin workload runs; the disk's calls robin once, for its M
    calls = []

    def spy(name):
        real = getattr(domain, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(domain, name, counting)

    for name in ("green", "robin", "minimize", "integrate_around_pole"):
        spy(name)
    for name in ("2x1", "1x1"):
        robin_report(RECTS[name], data0.F)
    assert calls == []
    robin_report(DomainModel(), data0.F)
    assert calls == ["robin"]


# -- the rectangle's Robin function by a plain image sum, the tests' oracle ---


def _plain_strip4pi(a, u, v, u0, v0):
    """4 pi G of the strip 0 < u < a: the cosh/cos kernel with both cosines
    taken afresh and every term beyond |dv| = 35 masked to 0.0."""
    u = np.asarray(u, dtype=float)
    dv = math.pi * (np.asarray(v, dtype=float) - v0) / a
    safe = np.abs(dv) < 35.0
    ch = np.cosh(np.where(safe, dv, 0.0))
    num = ch - np.cos(math.pi * (u + u0) / a)
    den = np.where(safe, ch - np.cos(math.pi * (u - u0) / a), 1.0)
    return np.where(safe, np.log(np.where(safe, num, 1.0) / den), 0.0)


def _plain_robin(dom, p):
    """The Robin function of a rectangle at points p (n,2): the diagonal
    limit of 4 pi G + log|x-y|^2, summed over 64 reflection layers each way
    across the strip 0 < u < a that runs across the shorter side.  The
    source's own strip term adds its regular part in closed form; every
    image term is evaluated at y = x, each sign's layers in one broadcast
    array summed by np.sum.  Past a few layers every term is masked to 0.0."""
    p = np.asarray(p, dtype=float)
    if dom.width <= dom.height:
        a, b, u0, v0 = dom.width, dom.height, p[:, 0], p[:, 1]
    else:
        a, b, u0, v0 = dom.height, dom.width, p[:, 1], p[:, 0]
    n = np.arange(-64, 65)
    shift = 2.0 * b * n[:, None]
    total = np.log((1.0 - np.cos(2.0 * math.pi * u0 / a)) * 2.0 * a * a / math.pi**2)
    total += np.sum(_plain_strip4pi(a, u0, v0, u0, v0 + shift[n != 0]), axis=0)
    total -= np.sum(_plain_strip4pi(a, u0, v0, u0, -v0 + shift), axis=0)
    return total


def _robin_oracle(dom, p):
    """The Robin function at points p (n,2): 2 log(1 - |p|^2) on the disk,
    the plain image sum on a rectangle."""
    if dom.shape is Shape.UNIT_DISK:
        return 2.0 * np.log1p(-np.sum(p * p, axis=1))
    return _plain_robin(dom, p)


def _wall_distance(dom, p):
    x, y = p
    if dom.shape is Shape.UNIT_DISK:
        return 1.0 - math.hypot(x, y)
    return min(x, dom.width - x, y, dom.height - y)


# -- the pole quadrature on the disk ------------------------------------------


@pytest.mark.parametrize("dom", [DomainModel()], ids=["disk"])
def test_integrate_around_pole_chunks_are_bit_identical(monkeypatch, data0, dom):
    z = dom.centre()
    sizes = []

    def integrand(r, pts):
        sizes.append(len(r))
        assert pts.shape == (len(r), 2)
        Gv = green(dom, z, pts)
        return Gv * data0.F(4.0 * math.pi * Gv)

    chunked = integrate_around_pole(dom, z, integrand)
    assert max(sizes) <= domain.CHUNK < sum(sizes)
    nodes = domain._N_THETA * (domain._N_PANELS + 1) * domain._N_R
    monkeypatch.setattr(domain, "CHUNK", nodes + 1)
    sizes.clear()
    assert integrate_around_pole(dom, z, integrand) == chunked
    assert max(sizes) == nodes


@pytest.mark.parametrize("z", [(0.0, 0.0), (0.3, -0.4), (-0.6, 0.2), (-0.7, -0.3)],
                         ids=["centre", "r050", "r063", "r076"])
def test_integrate_around_pole_measures_disk_area(disk, z):
    # every ray from an off-centre pole has its own length
    val = integrate_around_pole(disk, np.array(z), lambda r, pts: np.ones_like(r))
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_rect_robin_report_peak_memory(data0):
    # allocation sizes are deterministic: the exp-sinh sum over 233 nodes
    # peaked at 20 KB here, so no list of the series' terms fits under the
    # bound; the 4000-term Legendre recurrence it replaced peaked at 0.45 MB,
    # and the image-sum path before it at 1.81 MB
    tracemalloc.start()
    try:
        robin_report(RECT, data0.F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6


@pytest.mark.parametrize("dom,bound", [(DomainModel(), 1.5e6)], ids=["disk"])
def test_pole_quadrature_frees_its_points_before_the_weights(data0, dom, bound):
    # the points (twice the size of one node array) are freed before the node
    # weights are formed in place: 1.75 MB when the weights were a chain of
    # temporaries beside them, 1.39 MB now.  The quadrature is reached
    # through robin_search; the disk's report reads its series.
    tracemalloc.start()
    try:
        robin_search(dom, data0.F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.fixture(scope="module")
def rect_reports(data0):
    return {name: robin_report(RECTS[name], data0.F) for name in ("2x1", "1x2", "1x1")}


# (M, {kappa: S}) of the 2x1 rectangle and the unit square for profiles
# F(t) = t^kappa, from the image-sum Green function integrated around the
# centre: kappa = 1, the Zero family, at commit 9bf5d06 (perfbench's
# RECT_REF, which holds the square's M in closed form), kappa = 1/4 and 1/2
# at commit a5790e8, the last to hold the image sums
IMAGE_SUM_REF = {"2x1": (-0.918077123062379, {1.0: 0.20764606956280546,
                                              0.25: 0.12461028689348835,
                                              0.5: 0.14253997961185058}),
                 "1x1": (-1.2347714907031282, {1.0: 0.14578045201541348,
                                               0.25: 0.08308244379990463,
                                               0.5: 0.09719424082420214})}


@pytest.mark.parametrize("name", list(IMAGE_SUM_REF))
def test_rect_series_matches_the_image_sum_record(rect_reports, name):
    M_ref, S_ref = IMAGE_SUM_REF[name]
    rep = rect_reports[name]
    assert rep.M == pytest.approx(M_ref, rel=0.0, abs=1e-12)
    assert rep.S == pytest.approx(S_ref[1.0], rel=0.0, abs=1e-12)


def test_square_robin_max_closed_form(rect_reports):
    rep = rect_reports["1x1"]
    M_ref = 2 * mpmath.log(4 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(0.25) ** 2)
    assert rep.M == pytest.approx(float(M_ref), rel=0.0, abs=1e-14)
    assert rep.K == [(0.5, 0.5)]


def test_rect_report_invariant_under_transpose(rect_reports):
    wide, tall = rect_reports["2x1"], rect_reports["1x2"]
    assert (wide.M, wide.S) == (tall.M, tall.S)
    assert wide.K == [(1.0, 0.5)] and tall.K == [(0.5, 1.0)]


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("name", ["2x1", "1x2", "1x1"])
def test_rect_series_matches_the_image_sum_path(name, kappa):
    # the recorded image-sum values, for profiles F(t) = t^kappa whose series
    # converge more slowly as kappa falls; the transpose 1x2 reads the 2x1
    # record (the series is exactly invariant, the quadrature was within 1e-14)
    M_ref, S_ref = IMAGE_SUM_REF[name.replace("1x2", "2x1")]
    rep = robin_report(RECTS[name], PowerProfile(kappa))
    assert rep.M == pytest.approx(M_ref, rel=0.0, abs=1e-12)
    assert rep.S == pytest.approx(S_ref[kappa], rel=0.0, abs=1e-9)


KAPPAS = [0.0, 0.01, 0.1, 0.25, 0.5, 1.0]


@pytest.mark.parametrize("kappa", KAPPAS)
def test_radial_moments_match_their_closed_form(disk, kappa):
    # the disk's S is the first moment I_1 = int_0^inf s (2s)^kappa e^{-2s} ds
    # = Gamma(kappa + 2) / 4, to MOMENT_RTOL against 40-digit mpmath
    with mpmath.workdps(40):
        want = float(mpmath.gamma(mpmath.mpf(kappa) + 2) / 4)
    assert robin_report(disk, PowerProfile(kappa)).S == pytest.approx(
        want, rel=domain.MOMENT_RTOL)


@pytest.mark.parametrize("x", [0.0, 0.5, 0.94, 0.999])
def test_product_generating_function_matches_legendre_values(x):
    # G(t) = sum_n P_n(x)^2 t^n as 1 / AGM, against scipy's Legendre values
    # summed by math.fsum; at t = 0.9 the terms past n = 600 are below 1e-27
    terms = scipy.special.legendre_p_all(600, x)[0] ** 2
    for t in (0.1, 0.5, 0.9):
        want = math.fsum(terms * t ** np.arange(601.0))
        got = domain._legendre_product_gf(np.array([t]), np.array([1.0 - t]), 1.0 - x * x)
        assert float(got[0]) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("dom", [DomainModel(), RECTS["2x1"],
                                 DomainModel(shape=Shape.RECTANGLE, width=50.0, height=1.0)],
                         ids=["disk", "2x1", "50x1"])
def test_robin_report_calls_no_F_and_no_rule(monkeypatch, data0, dom):
    # S is read off F.kappa: F is never called, and the rectangle's exp-sinh
    # sum forms its own nodes, so no tabulated quadrature rule is asked for
    calls = []

    class Counting(PowerProfile):
        def __call__(self, t):
            calls.append("F")
            return super().__call__(t)

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was asked for")

    monkeypatch.setattr(domain, "gauss_legendre", refuse)
    monkeypatch.setattr(numerics, "_legendre_rule", refuse)
    robin_report(dom, Counting(data0.kappa))
    assert calls == []


ELONGATED = [(3.0, 1.0), (6.0, 1.0), (1.0, 6.0), (10.0, 1.0)]


@pytest.mark.parametrize("w,h", ELONGATED, ids=["3x1", "6x1", "1x6", "10x1"])
def test_elongated_rect_has_one_maximizer(data0, w, h):
    # The Robin function of a convex domain has one critical point, here the
    # centre.  Along the long axis it is flat to rounding, so a search that
    # started off the centre could stop anywhere along it.
    dom = DomainModel(shape=Shape.RECTANGLE, width=w, height=h)
    rep = robin_report(dom, data0.F)
    centre = np.array([w / 2, h / 2])
    assert len(rep.K) == 1
    assert np.hypot(*(np.array(rep.K[0]) - centre)) < 1e-6
    assert rep.M == pytest.approx(_plain_robin(dom, centre[None, :])[0], rel=0.0, abs=1e-12)


def _scan_max(dom):
    """Largest Robin value on the 41x41 grid kept 5% inside the domain (the
    scan robin_report once started from), nodes within half that margin of
    the boundary, relative to the inradius, left out."""
    m = 0.05
    if dom.shape is Shape.UNIT_DISK:
        xs = ys = np.linspace(-1.0 + m, 1.0 - m, 41)
    else:
        xs = np.linspace(m * dom.width, (1 - m) * dom.width, 41)
        ys = np.linspace(m * dom.height, (1 - m) * dom.height, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([X.ravel(), Y.ravel()])
    inradius = _wall_distance(dom, dom.centre())
    grid = grid[[_wall_distance(dom, p) > 0.5 * m * inradius for p in grid]]
    return float(np.max(_robin_oracle(dom, grid)))


SCANNED = [(1.0, 0.02), (0.04, 0.04), (2.0, 0.049), (0.001, 0.002), (50.0, 1.0),
           (1000.0, 500.0)]


@pytest.mark.parametrize("w,h", [(None, None)] + SCANNED,
                         ids=["disk", "1x0.02", "0.04x0.04", "2x0.049", "0.001x0.002",
                              "50x1", "1000x500"])
def test_robin_report_matches_scan_oracle(data0, w, h):
    # Sides under 0.05, where an absolute 0.025 margin leaves no grid node,
    # and sides far above 1.
    dom = DomainModel() if w is None else DomainModel(shape=Shape.RECTANGLE,
                                                      width=w, height=h)
    rep = robin_report(dom, data0.F)
    centre = dom.centre()
    assert rep.M >= _scan_max(dom)
    assert len(rep.K) == 1
    assert np.hypot(*(np.array(rep.K[0]) - centre)) <= 1e-6 * _wall_distance(dom, centre)
    assert rep.M == pytest.approx(_robin_oracle(dom, centre[None, :])[0], rel=0.0, abs=1e-12)


# -- the rectangle series against an independent reference ------------------

# every rectangle this module builds
BUILT = sorted({(d.width, d.height) for d in RECTS.values()} | set(ELONGATED)
               | set(SCANNED))
REF_TERMS = 2_000_000


@functools.cache
def _series_reference(ratio, kappa=1.0):
    """(2 log(1/K(m)), S/C^2, theta) for F(t) = t^kappa of a rectangle with
    sides 1 x ratio, ratio >= 1: m from mpmath's theta functions and K(m)
    from its ellipk; REF_TERMS terms P_n(x)^2 Gamma(kappa + 2) /
    (4 (2n+1)^(2+kappa)) from scipy's Legendre values, added by math.fsum.
    The terms left out are within _truncation_bound of the sum."""
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.pi * ratio)
        m = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
        log_scale = float(-2 * mpmath.log(mpmath.ellipk(m)))
        x = float(1 - 2 * m)
        theta = float(2 * mpmath.asin(mpmath.sqrt(m)))
    terms = scipy.special.legendre_p_all(REF_TERMS - 1, x)[0]
    terms *= terms
    terms /= np.arange(1.0, 2.0 * REF_TERMS, 2.0) ** (2.0 + kappa)
    return log_scale, math.gamma(kappa + 2.0) / 4.0 * math.fsum(terms), theta


def _truncation_bound(kappa, theta):
    """The relative error of S cut after K terms, for F(t) = t^kappa.  S is
    at least C^2 I_1, and a term left out has P_n^2 <= min(1, 1 / (K theta))
    (Bernstein), so the cut loses at most
    sum_{n >= K} (2n + 1)^-s <= (2K)^(-1-kappa) / (2 (1 + kappa)) of that
    share: 1.6e-14 at kappa = 1 and 2.2e-9 at kappa = 1/4 where K theta <= 1."""
    K = REF_TERMS
    rho = 1.0 if K * theta <= 1.0 else 1.0 / (K * theta)
    return (2.0 * K) ** (-1.0 - kappa) / (2.0 * (1.0 + kappa)) * rho


@pytest.mark.parametrize("w,h", BUILT, ids=[f"{w:g}x{h:g}" for w, h in BUILT])
def test_rect_series_within_its_bound_of_a_long_reference(data0, w, h):
    # M to 1e-14 relative; S within MOMENT_RTOL, plus the reference's own
    # truncation bound
    a, b = sorted((w, h))
    log_scale, S_norm, theta = _series_reference(b / a)
    rep = robin_report(DomainModel(shape=Shape.RECTANGLE, width=w, height=h), data0.F)
    assert rep.M == pytest.approx(2.0 * math.log(a) + log_scale, rel=1e-14, abs=1e-14)
    S_ref = math.exp(rep.M) * S_norm
    assert abs(rep.S - S_ref) <= (_truncation_bound(1.0, theta) + domain.MOMENT_RTOL) * S_ref


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("name", ["2x1", "1x2", "1x1"])
def test_rect_series_within_its_bound_over_kappa(name, kappa):
    # profiles F(t) = t^kappa, whose series converge more slowly as kappa
    # falls: S within MOMENT_RTOL, plus the reference's truncation bound
    dom = RECTS[name]
    a, b = sorted((dom.width, dom.height))
    _, S_norm, theta = _series_reference(b / a, kappa)
    rep = robin_report(dom, PowerProfile(kappa))
    S_ref = math.exp(rep.M) * S_norm
    assert abs(rep.S - S_ref) <= (_truncation_bound(kappa, theta) + domain.MOMENT_RTOL) * S_ref


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0])
def test_rect_series_is_above_the_disk(kappa):
    # e^{-M} S = sum_k |c_k / c_1|^2 k^2 I_k >= I_1 = Gamma(kappa + 2) / 4,
    # with equality only on the disk (ROADMAP item 12)
    for w, h in BUILT:
        rep = robin_report(DomainModel(shape=Shape.RECTANGLE, width=w, height=h),
                           PowerProfile(kappa))
        assert math.exp(-rep.M) * rep.S >= math.gamma(kappa + 2) / 4


@pytest.mark.parametrize("kappa", [0.25, 1.0])
def test_rect_series_near_7_to_1(kappa):
    # where 4000 theta is about 1, the 4000-term cut with its strip tail was
    # off by 1.4e-9 at kappa = 1 and 2.2e-6 at kappa = 1/4; the exp-sinh sum
    # is within 1e-14, plus the reference's own truncation bound
    _, S_norm, theta = _series_reference(7.0, kappa)
    rep = robin_report(DomainModel(shape=Shape.RECTANGLE, width=7.0, height=1.0),
                       PowerProfile(kappa))
    S_ref = math.exp(rep.M) * S_norm
    assert abs(rep.S - S_ref) <= (_truncation_bound(kappa, theta) + 1e-14) * S_ref


@pytest.mark.parametrize("ratio", [1.0, 1.3, 2.0, 3.0, 7.0, 20.0, 50.0])
def test_exp_sinh_sum_holds_at_half_the_step(monkeypatch, ratio):
    # halving the step doubles the nodes over the same span; S moves by at
    # most 1e-15 relative for every kappa
    dom = DomainModel(shape=Shape.RECTANGLE, width=ratio, height=1.0)
    coarse = [robin_report(dom, PowerProfile(kappa)).S for kappa in KAPPAS]
    monkeypatch.setattr(domain, "_EXP_SINH_STEP", domain._EXP_SINH_STEP / 2.0)
    fine = [robin_report(dom, PowerProfile(kappa)).S for kappa in KAPPAS]
    for S, S_fine in zip(coarse, fine):
        assert abs(S - S_fine) <= 1e-15 * S_fine


@pytest.mark.parametrize("kappa", KAPPAS)
def test_long_strip_S_matches_the_whole_series(kappa):
    # At 50:1, theta is about 1e-33, so P_n(x)^2 = 1 for every n that counts
    # and S = C^2 Gamma(s) / 4 sum over odd k of k^-s = C^2 Gamma(s) / 4
    # (1 - 2^-s) zeta(s), s = kappa + 2: the exp-sinh sum against the whole
    # series, in 40-digit mpmath (measured: at most 2e-16)
    rep = robin_report(DomainModel(shape=Shape.RECTANGLE, width=50.0, height=1.0),
                       PowerProfile(kappa))
    with mpmath.workdps(40):
        q = mpmath.exp(-50 * mpmath.pi)
        m = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
        s = mpmath.mpf(kappa) + 2
        want = float(mpmath.gamma(s) / 4 * (1 - 2**-s) * mpmath.zeta(s) / mpmath.ellipk(m) ** 2)
    assert abs(rep.S - want) <= 1e-15 * want
