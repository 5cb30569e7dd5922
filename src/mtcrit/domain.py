"""Planar domain models: Green function, Robin function, first Dirichlet
eigenvalue and singularity-aware quadrature.

Sign convention throughout: the Laplacian is -d_xx - d_yy, so the Green
function is written

    G_x(y) = (1/4 pi) * ( log(1/|x-y|^2) + H_x(y) ),

with H_x harmonic and equal to -log(1/|x-.|^2) on the boundary.  The Robin
function is x -> H_x(x); its maximum M, its maximizer K and the associated
integral S drive the existence criterion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import CHUNK, gauss_legendre, minimize

__all__ = [
    "Shape",
    "DomainModel",
    "RobinReport",
    "PoleCoincidenceError",
    "DegenerateMaxError",
    "green",
    "robin",
    "robin_report",
    "lambda1",
    "first_bessel_zero",
    "integrate_around_pole",
]


class PoleCoincidenceError(ValueError):
    """Green function requested at coincident points."""


class DegenerateMaxError(RuntimeError):
    """The Robin search stalled, or its maximizer escaped to the boundary
    margin."""


class Shape(str, Enum):
    UNIT_DISK = "UnitDisk"
    RECTANGLE = "Rectangle"


@dataclass(frozen=True)
class DomainModel:
    """Unit disk or axis-aligned rectangle [0,w] x [0,h].

    Each side must be a finite real number, not a bool (ValueError naming
    the side), and is kept as a float.  A unit disk leaves both sides at
    their default; a rectangle's sides must be positive.
    """

    shape: Shape = Shape.UNIT_DISK
    width: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "shape", Shape(self.shape))
        sides = [f for f in fields(self) if f.name != "shape"]
        for f in sides:
            side = getattr(self, f.name)
            if (isinstance(side, bool) or not isinstance(side, numbers.Real)
                    or not math.isfinite(side)):
                raise ValueError(f"{f.name} must be a finite number (got {side!r})")
            object.__setattr__(self, f.name, float(side))
        if self.shape is Shape.UNIT_DISK:
            given = [f"{f.name} = {getattr(self, f.name)!r}" for f in sides
                     if getattr(self, f.name) != f.default]
            if given:
                raise ValueError(f"a unit disk takes no side (got {', '.join(given)})")
        elif self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")

    def contains(self, p) -> bool:
        x, y = float(p[0]), float(p[1])
        if self.shape is Shape.UNIT_DISK:
            return math.hypot(x, y) < 1.0
        return 0.0 < x < self.width and 0.0 < y < self.height

    def centre(self) -> np.ndarray:
        """The centre of symmetry."""
        if self.shape is Shape.UNIT_DISK:
            return np.zeros(2)
        return np.array([self.width / 2.0, self.height / 2.0])

    def boundary_distance(self, p) -> float:
        x, y = float(p[0]), float(p[1])
        if self.shape is Shape.UNIT_DISK:
            return 1.0 - math.hypot(x, y)
        return min(x, self.width - x, y, self.height - y)

    @staticmethod
    def from_json(obj: dict) -> "DomainModel":
        """Read one key per field; an absent key takes the field's default
        and any other key is refused."""
        if not isinstance(obj, dict):
            raise ValueError("must be a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(DomainModel)})
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return DomainModel(**obj)


# -- Green and Robin functions ----------------------------------------------


def _green_disk(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact reflection formula on the unit disk, vectorized over y rows."""
    x = np.asarray(x, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d2 = np.sum((y - x) ** 2, axis=1)
    r2 = float(np.dot(x, x))
    if r2 == 0.0:
        num = 1.0
    else:
        ystar = x / r2
        num = r2 * np.sum((y - ystar) ** 2, axis=1)
    return (1.0 / (4.0 * math.pi)) * np.log(num / d2)


# Images with |dv| >= _CLIP contribute ~exp(-_CLIP) relative to the nearest
# ones: below double precision long before cosh overflows.  The strip
# kernel makes them exactly 0.0, which also bounds the image sum.
_CLIP = 35.0


def _strip_green4pi(dv: np.ndarray, cp, cm, tmp: np.ndarray) -> np.ndarray | None:
    """4 pi times the Green function of the strip 0 < u < a (Dirichlet),
    computed in place.

    Closed form obtained by summing the image lattice in the u-direction:
    the images at 2ma +/- u0 collapse to the cosh/cos kernel

        log((cosh dv - cos(pi (u + u0) / a)) / (cosh dv - cos(pi (u - u0) / a))),

    with dv = pi (v - v0) / a.  dv is overwritten with the kernel and
    returned; cp and cm are the two cosines, which do not depend on v0, and
    tmp is a scratch array shaped like dv.  Returns None, leaving dv as it
    is, when every |dv| >= _CLIP: those terms are exactly 0.0.  Only when
    some terms are clipped and some are not does the kernel need a mask.
    """
    lo, hi = dv.min(), dv.max()
    if lo >= _CLIP or hi <= -_CLIP:
        return None
    keep = True if -_CLIP < lo and hi < _CLIP else np.abs(dv) < _CLIP
    np.cosh(dv, out=dv, where=keep)
    np.subtract(dv, cm, out=tmp, where=keep)
    np.subtract(dv, cp, out=dv, where=keep)
    np.divide(dv, tmp, out=dv, where=keep)
    np.log(dv, out=dv, where=keep)
    if keep is not True:
        dv[~keep] = 0.0
    return dv


def _strip_frame(dom: DomainModel, p: np.ndarray):
    """Strip width a, period half-length b and strip coordinates (u, v) of
    the points p (..., 2).

    The strip runs across the shorter side (a <= b), so each reflection
    across the far walls gains a factor exp(-2 pi b / a).
    """
    if dom.width <= dom.height:
        return dom.width, dom.height, p[..., 0], p[..., 1]
    return dom.height, dom.width, p[..., 1], p[..., 0]


def _image_layers(a: float, b: float) -> int:
    """Reflection layers that can be nonzero anywhere in the rectangle.

    Every image of layer n lies at least (2|n| - 2) b away in v from every
    point with 0 <= v <= b, so |dv| >= pi (2|n| - 2) b / a.  Beyond the
    bound below (one layer spare for rounding) all image terms reach
    _CLIP and are exactly 0.0, so summing more layers changes nothing.
    """
    return int(_CLIP * a / (2.0 * math.pi * b)) + 2


def _rect_green4pi(dom: DomainModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4 pi G_x(y) on the rectangle for y (n,2): the strip kernel reflected
    across the far walls.

    Layers are summed one at a time, each vectorized over the points, in
    two buffers reused across layers, so that memory stays linear in the
    number of points.
    """
    a, b, u0, v0 = _strip_frame(dom, x)
    _, _, u, v = _strip_frame(dom, y)
    cp = np.cos(math.pi * (u + u0) / a)
    cm = np.cos(math.pi * (u - u0) / a)
    dv = np.empty(u.shape[0])
    tmp = np.empty_like(dv)
    layers = _image_layers(a, b)
    total = np.zeros(u.shape[0])
    for n in range(-layers, layers + 1):
        for centre, accumulate in ((v0 + 2.0 * n * b, np.add), (-v0 + 2.0 * n * b, np.subtract)):
            np.subtract(v, centre, out=dv)
            dv *= math.pi
            dv /= a
            term = _strip_green4pi(dv, cp, cm, tmp)
            if term is not None:
                accumulate(total, term, out=total)
    return total


def green(dom: DomainModel, x, y) -> np.ndarray | float:
    """Dirichlet Green function G_x(y); y may be an (n,2) array."""
    x = np.asarray(x, dtype=float)
    y_in = np.asarray(y, dtype=float)
    y2 = np.atleast_2d(y_in)
    if np.any(np.sum((y2 - x) ** 2, axis=1) < 1e-28):
        raise PoleCoincidenceError("x and y coincide")
    if dom.shape is Shape.UNIT_DISK:
        out = _green_disk(x, y2)
    else:
        out = _rect_green4pi(dom, x, y2) / (4.0 * math.pi)
    return float(out[0]) if y_in.ndim == 1 else out


def _robin_array(dom: DomainModel, p: np.ndarray) -> np.ndarray:
    """Robin function at interior points p (n,2), broadcast over layers x points."""
    if dom.shape is Shape.UNIT_DISK:
        return 2.0 * np.log1p(-np.sum(p * p, axis=1))
    # diagonal limit of 4 pi G + log|x-y|^2: the n=0 source strip term
    # contributes its regular part in closed form, every image term is
    # evaluated directly at y = x
    a, b, u0, v0 = _strip_frame(dom, p)
    layers = _image_layers(a, b)
    n = np.arange(-layers, layers + 1)
    shift = 2.0 * b * n[:, None]
    cp = np.cos(math.pi * (u0 + u0) / a)
    cm = np.cos(math.pi * (u0 - u0) / a)
    total = np.log((1.0 - np.cos(2.0 * math.pi * u0 / a)) * 2.0 * a * a / math.pi**2)
    for centres, accumulate in ((v0 + shift[n != 0], np.add), (-v0 + shift, np.subtract)):
        dv = math.pi * (v0 - centres) / a
        term = _strip_green4pi(dv, cp, cm, np.empty_like(dv))
        if term is not None:
            accumulate(total, np.sum(term, axis=0), out=total)
    return total


def robin(dom: DomainModel, x) -> float:
    """Robin function H_x(x): regular part of 4 pi G on the diagonal."""
    x = np.asarray(x, dtype=float)
    if not dom.contains(x):
        raise ValueError("x must be interior")
    return float(_robin_array(dom, x[None, :])[0])


def first_bessel_zero() -> float:
    """First zero j_{0,1} of J0, the double nearest to it (held to
    mpmath.besseljzero by the tests)."""
    return 2.4048255576957724


def lambda1(dom: DomainModel) -> float:
    """First Dirichlet eigenvalue of -Laplace."""
    if dom.shape is Shape.UNIT_DISK:
        return first_bessel_zero() ** 2
    return math.pi**2 * (1.0 / dom.width**2 + 1.0 / dom.height**2)


# -- singularity-aware integration over the domain ---------------------------

# Gauss nodes per angular segment and per radial panel, and the number of
# geometric radial panels (ratio 1/2) graded toward the pole.  A segment has
# _N_THETA * (_N_PANELS + 1) * _N_R nodes, handed to the integrand in chunks
# of numerics.CHUNK.
_N_THETA = 48
_N_R = 48
_N_PANELS = 14


def _ray_lengths(dom: DomainModel, z: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Distances from z to the boundary along the directions thetas."""
    c, s = np.cos(thetas), np.sin(thetas)
    if dom.shape is Shape.UNIT_DISK:
        b = z[0] * c + z[1] * s
        return -b + np.sqrt(b * b + 1.0 - z[0] ** 2 - z[1] ** 2)
    best = np.full(thetas.shape, math.inf)
    with np.errstate(divide="ignore"):
        for comp, d, lim in ((z[0], c, dom.width), (z[1], s, dom.height)):
            best = np.minimum(best, np.where(d > 1e-15, (lim - comp) / d, math.inf))
            best = np.minimum(best, np.where(d < -1e-15, -comp / d, math.inf))
    return best


def _corner_angles(dom: DomainModel, z: np.ndarray) -> list[float]:
    if dom.shape is Shape.UNIT_DISK:
        return []
    out = []
    for cx in (0.0, dom.width):
        for cy in (0.0, dom.height):
            out.append(math.atan2(cy - z[1], cx - z[0]) % (2.0 * math.pi))
    return sorted(out)


def integrate_around_pole(
    dom: DomainModel,
    z,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Integrate f(r, points) over the domain in polar coordinates around z.

    f receives radii (n,) and the corresponding points (n,2), at most
    CHUNK of them per call, and must be vectorized.  Radial panels are
    geometrically graded toward the pole so that log-power singularities
    of Green-type integrands are resolved.
    """
    z = np.asarray(z, dtype=float)
    # geometric panels [q^(k+1), q^k] of the unit ray, q = 1/2, the innermost
    # one down to 0; each ray scales them to its length
    unit_edges = np.append(0.0, 0.5 ** np.arange(_N_PANELS, -1, -1))
    unit_r, unit_wr = gauss_legendre(unit_edges, _N_R)
    # one angular panel per segment between corner directions
    segs = [0.0] + _corner_angles(dom, z) + [2.0 * math.pi]
    total = 0.0
    for thetas, wth, length in zip(*gauss_legendre(segs, _N_THETA), np.diff(segs)):
        if length < 1e-14:
            continue
        # all nodes of the segment in one array, shaped (theta, panel, r)
        R = _ray_lengths(dom, z, thetas)[:, None, None]
        r = R * unit_r
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        pts = (r[..., None] * dirs[:, None, None, :]).reshape(-1, 2)
        pts += z
        r_flat = r.ravel()
        vals = np.empty(r_flat.size)
        for lo in range(0, vals.size, CHUNK):
            vals[lo:lo + CHUNK] = f(r_flat[lo:lo + CHUNK], pts[lo:lo + CHUNK])
        # the weights take the points' place, so the segment's peak holds one
        # node array less; in place, in the order wth * wr * r * vals
        del pts
        w = wth[:, None, None] * (R * unit_wr)
        w *= r
        w *= vals.reshape(r.shape)
        total += float(np.sum(w))
    return total


# -- Robin report -------------------------------------------------------------

# A maximizer closer to the boundary than half this fraction of the centre's
# boundary distance is refused.
_BOUNDARY_MARGIN = 0.05


@dataclass
class RobinReport:
    M: float
    K: list
    S: float

    def to_json(self) -> dict:
        return {"M": self.M, "K": [list(map(float, p)) for p in self.K], "S": self.S}


def robin_report(
    dom: DomainModel,
    F: Callable[[np.ndarray], np.ndarray],
) -> RobinReport:
    """Maximize the Robin function and evaluate the concentration integral.

    One Nelder-Mead search starts at the centre of symmetry.  On a convex
    domain the Robin function has one critical point (Caffarelli-Friedman,
    Duke Math. J. 1985), so by symmetry the maximizer is the centre.
    Returns M = max Robin, K = [the maximizer z] and S = int_Omega G_z
    F(4 pi G_z).  Raises DegenerateMaxError if the search does not converge
    in 400 iterations, or if z lies closer to the boundary than half the
    margin fraction of the centre's distance.
    """
    centre = dom.centre()
    res = minimize(lambda q: -robin(dom, q), centre, xatol=1e-10, fatol=1e-12, maxiter=400)
    if not res.success:
        raise DegenerateMaxError(f"Robin search did not converge in {res.nit} iterations "
                                 f"({res.nfev} evaluations)")
    z = res.x
    if dom.boundary_distance(z) < 0.5 * _BOUNDARY_MARGIN * dom.boundary_distance(centre):
        raise DegenerateMaxError("Robin maximizer hit the boundary margin")

    def integrand(r, pts):
        Gv = np.asarray(green(dom, z, pts))
        return Gv * np.asarray(F(4.0 * math.pi * Gv))

    S = integrate_around_pole(dom, z, integrand)
    return RobinReport(M=float(-res.fun), K=[tuple(map(float, z))], S=float(S))
