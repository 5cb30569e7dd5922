"""Green/Robin geometry on the disk and the rectangle."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from mtcrit import (
    DomainModel,
    PoleCoincidenceError,
    Shape,
    first_bessel_zero,
    lambda1,
    robin_report,
)
import mtcrit.domain as domain
from mtcrit.domain import _image_layers, _robin_array, green, integrate_around_pole, robin

RECT = DomainModel(shape=Shape.RECTANGLE, width=2.0, height=1.0)
RECTS = {f"{w:g}x{h:g}": DomainModel(shape=Shape.RECTANGLE, width=w, height=h)
         for w, h in ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (6.0, 1.0))}


def _random_interior(dom, rng):
    while True:
        if dom.shape is Shape.UNIT_DISK:
            p = rng.uniform(-0.95, 0.95, size=2)
        else:
            p = rng.uniform(0.05, 0.95, size=2) * [dom.width, dom.height]
        if dom.boundary_distance(p) > 0.02:
            return p


def test_first_bessel_zero():
    with mpmath.workdps(30):
        j01 = float(mpmath.besseljzero(0, 1))
    assert abs(first_bessel_zero() - j01) <= math.ulp(j01)


def test_lambda1_disk(disk):
    assert lambda1(disk) == pytest.approx(5.783185962946783, abs=1e-9)


@pytest.mark.parametrize("dom", [DomainModel(), RECT], ids=["disk", "rect"])
def test_green_symmetry(dom):
    rng = np.random.default_rng(3)
    for _ in range(12):
        x = _random_interior(dom, rng)
        y = _random_interior(dom, rng)
        if np.hypot(*(x - y)) < 1e-3:
            continue
        assert green(dom, x, y) == pytest.approx(green(dom, y, x),
                                                 rel=1e-10, abs=1e-12)


def test_green_boundary_decay():
    disk = DomainModel()
    val = green(disk, np.zeros(2), np.array([1.0 - 1e-6, 0.0]))
    assert 0.0 <= val < 4e-7
    center = np.array([1.0, 0.5])
    val_r = green(RECT, center, np.array([2.0 - 1e-6, 0.5]))
    assert 0.0 <= val_r < 4e-6


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


@pytest.mark.parametrize("dom,x", [
    (DomainModel(), np.array([0.15, -0.2])),
    (RECT, np.array([0.8, 0.45])),
], ids=["disk", "rect"])
def test_robin_is_green_diagonal_limit(dom, x):
    eps = 1e-5  # small enough for the limit, large enough for cosh-cos
    y = x + np.array([eps, 0.0])
    # 4 pi G = log(1/|x-y|^2) + H_x(y); H continuous on the diagonal
    H_near = 4.0 * math.pi * green(dom, x, y) - math.log(1.0 / eps**2)
    assert H_near == pytest.approx(robin(dom, x), abs=1e-4)


def test_rectangle_robin_maximized_at_center():
    c = robin(RECT, np.array([1.0, 0.5]))
    for p in ([1.5, 0.5], [1.0, 0.75], [0.4, 0.3]):
        assert robin(RECT, np.array(p)) < c


def test_integrate_around_pole_log_kernel(disk):
    # int_D log(1/|y|^2)/(4 pi) dy = 1/4
    val = integrate_around_pole(disk, np.zeros(2),
                                lambda r, pts: np.log(1.0 / r**2) / (4.0 * math.pi))
    assert val == pytest.approx(0.25, rel=1e-8)


def test_robin_report_disk(robin0):
    assert robin0.M == pytest.approx(0.0, abs=1e-8)
    assert all(np.hypot(*p) < 1e-4 for p in robin0.K)
    assert robin0.S == pytest.approx(0.5, abs=1e-4)


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


# -- rectangle image sums against a plain per-layer reference ---------------


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


def _strip_coords(dom, p):
    p = np.asarray(p, dtype=float)
    if dom.width <= dom.height:
        return dom.width, dom.height, p[..., 0], p[..., 1]
    return dom.height, dom.width, p[..., 1], p[..., 0]


def _plain_green4pi(dom, x, y, layers):
    a, b, u0, v0 = _strip_coords(dom, x)
    _, _, u, v = _strip_coords(dom, y)
    total = np.zeros(len(u))
    for n in range(-layers, layers + 1):
        total += _plain_strip4pi(a, u, v, u0, v0 + 2.0 * n * b)
        total -= _plain_strip4pi(a, u, v, u0, -v0 + 2.0 * n * b)
    return total


def _robin_64(dom, x):
    a, b, u0, v0 = _strip_coords(dom, x)
    total = math.log((1.0 - math.cos(2.0 * math.pi * u0 / a)) * 2.0 * a * a / math.pi**2)
    for n in range(-64, 65):
        if n != 0:
            total += float(_plain_strip4pi(a, u0, v0, u0, v0 + 2.0 * n * b))
        total -= float(_plain_strip4pi(a, u0, v0, u0, -v0 + 2.0 * n * b))
    return total


def _plain_robin(dom, p):
    """The Robin function with every layer of one sign in one broadcast
    array, summed over the layers by np.sum."""
    a, b, u0, v0 = _strip_coords(dom, p)
    layers = _image_layers(a, b)
    n = np.arange(-layers, layers + 1)
    shift = 2.0 * b * n[:, None]
    total = np.log((1.0 - np.cos(2.0 * math.pi * u0 / a)) * 2.0 * a * a / math.pi**2)
    total += np.sum(_plain_strip4pi(a, u0, v0, u0, v0 + shift[n != 0]), axis=0)
    total -= np.sum(_plain_strip4pi(a, u0, v0, u0, -v0 + shift), axis=0)
    return total


def _probe_points(dom, rng):
    """Random interior points plus points 1e-3 from each wall and corner."""
    w, h, d = dom.width, dom.height, 1e-3
    inner = rng.uniform(0.02, 0.98, size=(20, 2)) * [w, h]
    walls = [[d, h / 3], [w - d, h / 2], [w / 4, d], [w / 2, h - d],
             [d, d], [w - d, d], [d, h - d], [w - d, h - d]]
    return np.vstack([inner, walls])


@pytest.mark.parametrize("name", list(RECTS))
def test_rect_image_sum_matches_64_layers(name):
    dom = RECTS[name]
    rng = np.random.default_rng(11)
    pts = _probe_points(dom, rng)
    for x in pts[::3]:
        ys = pts[np.hypot(*(pts - x).T) > 1e-9]
        # layers past _image_layers add exact zeros, so the sums agree to the bit
        want = _plain_green4pi(dom, x, ys, 64) / (4.0 * math.pi)
        assert np.array_equal(green(dom, x, ys), want)
    for p in pts:
        # summed in another order than _robin_array's np.sum over layers
        assert robin(dom, p) == pytest.approx(_robin_64(dom, p), rel=1e-14, abs=1e-14)


def test_rect_kernel_is_bit_identical_to_plain_layer_sum(monkeypatch):
    # the in-place kernel with its three branches (every term clipped, none
    # clipped, some clipped) against the masked kernel on every layer
    branches = set()
    kernel = domain._strip_green4pi

    def spy(dv, cp, cm, tmp):
        lo, hi = dv.min(), dv.max()
        branches.add("clipped" if lo >= 35.0 or hi <= -35.0 else
                     "inside" if -35.0 < lo and hi < 35.0 else "mixed")
        return kernel(dv, cp, cm, tmp)

    monkeypatch.setattr(domain, "_strip_green4pi", spy)
    rng = np.random.default_rng(23)
    for w, h in ((2.0, 1.0), (1.0, 1.0), (50.0, 1.0), (0.04, 0.04)):
        dom = DomainModel(shape=Shape.RECTANGLE, width=w, height=h)
        a, b, _, _ = _strip_coords(dom, np.zeros(2))
        pts = _probe_points(dom, rng)
        for x in pts[::4]:
            ys = pts[np.hypot(*(pts - x).T) > 1e-9]
            want = _plain_green4pi(dom, x, ys, _image_layers(a, b)) / (4.0 * math.pi)
            assert np.array_equal(green(dom, x, ys), want)
            assert green(dom, x, ys[0]) == want[0]
        assert np.array_equal(_robin_array(dom, pts), _plain_robin(dom, pts))
        for p in pts[::5]:
            assert _robin_array(dom, p[None, :])[0] == _plain_robin(dom, p[None, :])[0]
    assert branches == {"clipped", "inside", "mixed"}


@pytest.mark.parametrize("dom", [DomainModel(), RECT], ids=["disk", "2x1"])
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
    segment = domain._N_THETA * (domain._N_PANELS + 1) * domain._N_R
    monkeypatch.setattr(domain, "CHUNK", segment + 1)
    sizes.clear()
    assert integrate_around_pole(dom, z, integrand) == chunked
    assert max(sizes) == segment


def test_rect_robin_report_peak_memory(data0):
    # allocation sizes are deterministic; the per-segment image sums of the
    # unchunked kernel peaked at 3.38 MB here
    tracemalloc.start()
    try:
        robin_report(RECT, data0.F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


@pytest.mark.parametrize("dom,bound", [(DomainModel(), 1.5e6), (RECT, 2.0e6)],
                         ids=["disk", "2x1"])
def test_pole_quadrature_frees_its_points_before_the_weights(data0, dom, bound):
    # the points (twice the size of one node array) are freed before the node
    # weights are formed in place: 1.75 MB (disk) and 2.35 MB (2x1) when the
    # weights were a chain of temporaries beside them, 1.39 and 1.81 MB now
    tracemalloc.start()
    try:
        robin_report(dom, data0.F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.fixture(scope="module")
def rect_reports(data0):
    return {name: robin_report(RECTS[name], data0.F) for name in ("2x1", "1x2", "1x1")}


def test_square_robin_max_closed_form(rect_reports):
    rep = rect_reports["1x1"]
    M_ref = 2 * mpmath.log(4 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(0.25) ** 2)
    assert rep.M == pytest.approx(float(M_ref), abs=1e-10)
    assert len(rep.K) == 1
    assert rep.K[0] == pytest.approx((0.5, 0.5), abs=1e-6)


def test_rect_report_invariant_under_transpose(rect_reports):
    wide, tall = rect_reports["2x1"], rect_reports["1x2"]
    assert wide.M == pytest.approx(tall.M, abs=1e-12)
    assert wide.S == pytest.approx(tall.S, rel=1e-10)
    assert len(wide.K) == len(tall.K) == 1
    assert wide.K[0] == pytest.approx((1.0, 0.5), abs=1e-6)
    assert wide.K[0] == pytest.approx(tall.K[0][::-1], abs=1e-6)


@pytest.mark.parametrize("w,h", [(3.0, 1.0), (6.0, 1.0), (1.0, 6.0), (10.0, 1.0)],
                         ids=["3x1", "6x1", "1x6", "10x1"])
def test_elongated_rect_has_one_maximizer(data0, w, h):
    # The Robin function of a convex domain has one critical point, here the
    # centre.  Along the long axis it is flat to rounding, so a search that
    # started off the centre could stop anywhere along it.
    dom = DomainModel(shape=Shape.RECTANGLE, width=w, height=h)
    rep = robin_report(dom, data0.F)
    centre = np.array([w / 2, h / 2])
    assert len(rep.K) == 1
    assert np.hypot(*(np.array(rep.K[0]) - centre)) < 1e-6
    assert rep.M == pytest.approx(robin(dom, centre), rel=0.0, abs=1e-12)


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
    inradius = dom.boundary_distance(dom.centre())
    grid = grid[[dom.boundary_distance(p) > 0.5 * m * inradius for p in grid]]
    return float(np.max(_robin_array(dom, grid)))


@pytest.mark.parametrize("w,h", [(None, None), (1.0, 0.02), (0.04, 0.04), (2.0, 0.049),
                                 (0.001, 0.002), (50.0, 1.0), (1000.0, 500.0)],
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
    assert np.hypot(*(np.array(rep.K[0]) - centre)) <= 1e-6 * dom.boundary_distance(centre)
    assert rep.M == pytest.approx(robin(dom, centre), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name", list(RECTS))
def test_integrate_around_pole_measures_rect_area(name):
    dom = RECTS[name]
    z = np.array([0.3 * dom.width, 0.7 * dom.height])
    val = integrate_around_pole(dom, z, lambda r, pts: np.ones_like(r))
    assert val == pytest.approx(dom.width * dom.height, rel=1e-12)
