"""Planar domain models: Robin data from the conformal series, first
Dirichlet eigenvalue, and on the unit disk the Green and Robin functions
and a singularity-aware quadrature.

Sign convention throughout: the Laplacian is -d_xx - d_yy, so the Green
function is written

    G_x(y) = (1/4 pi) * ( log(1/|x-y|^2) + H_x(y) ),

with H_x harmonic and equal to -log(1/|x-.|^2) on the boundary.  The Robin
function is x -> H_x(x); its maximum M, its maximizer K and the associated
integral S drive the existence criterion.  `robin_report` reads them, on
either shape, off the Taylor series of the conformal map of the unit disk
onto the domain: the identity on the disk, the Schwarz-Christoffel map on a
rectangle.  The profile F(t) = t^kappa gives the series' radial moments in
closed form, so S needs no quadrature.  On the disk a Robin search and a
quadrature around the pole (`robin_search`) find them independently.
`_disk_only` is mtcrit's one refusal of a rectangle: `green`, `robin`,
`integrate_around_pole`, `robin_search`, the radial solvers and the
disk-only subcommands call it.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import CHUNK, gauss_legendre, left_sum, minimize
from .perturbation import PowerProfile, _Value

__all__ = [
    "Shape",
    "DomainModel",
    "RobinReport",
    "PoleCoincidenceError",
    "DegenerateMaxError",
    "green",
    "robin",
    "robin_report",
    "robin_search",
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


class DomainModel(_Value):
    """Unit disk or axis-aligned rectangle [0,w] x [0,h].

    Each side must be a finite real number, not a bool (ValueError naming
    the side), and is kept as a float.  A unit disk leaves both sides at
    their default; a rectangle's sides must be positive.  Models are frozen
    values: equal fields make equal models.
    """

    # (name, default) of each field, in the constructor's order
    _FIELDS = (("shape", Shape.UNIT_DISK), ("width", 1.0), ("height", 1.0))

    def __init__(self, shape=Shape.UNIT_DISK, width=1.0, height=1.0):
        object.__setattr__(self, "shape", Shape(shape))
        sides = self._FIELDS[1:]
        for (name, _), side in zip(sides, (width, height)):
            if (isinstance(side, bool) or not isinstance(side, numbers.Real)
                    or not math.isfinite(side)):
                raise ValueError(f"{name} must be a finite number (got {side!r})")
            object.__setattr__(self, name, float(side))
        if self.shape is Shape.UNIT_DISK:
            given = [f"{name} = {getattr(self, name)!r}" for name, default in sides
                     if getattr(self, name) != default]
            if given:
                raise ValueError(f"a unit disk takes no side (got {', '.join(given)})")
        elif self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self._FIELDS)

    def centre(self) -> np.ndarray:
        """The centre of symmetry."""
        if self.shape is Shape.UNIT_DISK:
            return np.zeros(2)
        return np.array([self.width / 2.0, self.height / 2.0])

    @staticmethod
    def from_json(obj: dict) -> "DomainModel":
        """Read one key per field; an absent key takes the field's default
        and any other key is refused."""
        if not isinstance(obj, dict):
            raise ValueError("must be a JSON object")
        unknown = sorted(set(obj) - {name for name, _ in DomainModel._FIELDS})
        if unknown:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return DomainModel(**obj)


# -- Green and Robin functions on the unit disk -------------------------------


def _disk_only(dom: DomainModel, name: str) -> None:
    if dom.shape is not Shape.UNIT_DISK:
        raise ValueError(f"{name} serves the unit disk only, not a {dom.shape.value}")


def green(dom: DomainModel, x, y) -> np.ndarray | float:
    """Dirichlet Green function G_x(y) of the unit disk by the reflection
    formula; y may be an (n,2) array."""
    _disk_only(dom, "green")
    x = np.asarray(x, dtype=float)
    y_in = np.asarray(y, dtype=float)
    y2 = np.atleast_2d(y_in)
    d2 = np.sum((y2 - x) ** 2, axis=1)
    if np.any(d2 < 1e-28):
        raise PoleCoincidenceError("x and y coincide")
    r2 = float(np.dot(x, x))
    num = 1.0 if r2 == 0.0 else r2 * np.sum((y2 - x / r2) ** 2, axis=1)
    out = (1.0 / (4.0 * math.pi)) * np.log(num / d2)
    return float(out[0]) if y_in.ndim == 1 else out


def robin(dom: DomainModel, x) -> float:
    """Robin function H_x(x) = 2 log(1 - |x|^2) of the unit disk: the
    regular part of 4 pi G on the diagonal."""
    _disk_only(dom, "robin")
    x = np.asarray(x, dtype=float)
    if not math.hypot(float(x[0]), float(x[1])) < 1.0:
        raise ValueError("x must be interior")
    return float(2.0 * np.log1p(-np.sum(x * x)))


def first_bessel_zero() -> float:
    """First zero j_{0,1} of J0, the double nearest to it (held to
    mpmath.besseljzero by the tests)."""
    return 2.4048255576957724


def lambda1(dom: DomainModel) -> float:
    """First Dirichlet eigenvalue of -Laplace."""
    if dom.shape is Shape.UNIT_DISK:
        return first_bessel_zero() ** 2
    return math.pi**2 * (1.0 / dom.width**2 + 1.0 / dom.height**2)


# -- singularity-aware integration over the unit disk -------------------------

# Gauss nodes on the angular panel [0, 2 pi] and per radial panel, and the
# number of geometric radial panels (ratio 1/2) graded toward the pole.  The
# _N_THETA * (_N_PANELS + 1) * _N_R nodes are handed to the integrand in
# chunks of numerics.CHUNK.
_N_THETA = 48
_N_R = 48
_N_PANELS = 14


def integrate_around_pole(
    dom: DomainModel,
    z,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> float:
    """Integrate f(r, points) over the unit disk in polar coordinates around z.

    f receives radii (n,) and the corresponding points (n,2), at most
    CHUNK of them per call, and must be vectorized.  Radial panels are
    geometrically graded toward the pole so that log-power singularities
    of Green-type integrands are resolved.
    """
    _disk_only(dom, "integrate_around_pole")
    z = np.asarray(z, dtype=float)
    # geometric panels [q^(k+1), q^k] of the unit ray, q = 1/2, the innermost
    # one down to 0; each ray scales them to its length
    unit_edges = np.append(0.0, 0.5 ** np.arange(_N_PANELS, -1, -1))
    unit_r, unit_wr = gauss_legendre(unit_edges, _N_R)
    (thetas,), (wth,) = gauss_legendre([0.0, 2.0 * math.pi], _N_THETA)
    # all nodes in one array, shaped (theta, panel, r); each ray runs to the
    # unit circle
    c, s = np.cos(thetas), np.sin(thetas)
    b = z[0] * c + z[1] * s
    R = (-b + np.sqrt(b * b + 1.0 - z[0] ** 2 - z[1] ** 2))[:, None, None]
    r = R * unit_r
    dirs = np.stack([c, s], axis=-1)
    pts = (r[..., None] * dirs[:, None, None, :]).reshape(-1, 2)
    pts += z
    r_flat = r.ravel()
    vals = np.empty(r_flat.size)
    for lo in range(0, vals.size, CHUNK):
        vals[lo:lo + CHUNK] = f(r_flat[lo:lo + CHUNK], pts[lo:lo + CHUNK])
    # the weights take the points' place, so the peak holds one node array
    # less; in place, in the order wth * wr * r * vals
    del pts
    w = wth[:, None, None] * (R * unit_wr)
    w *= r
    w *= vals.reshape(r.shape)
    return float(np.sum(w))


# -- Robin report -------------------------------------------------------------

# A maximizer of the Robin search closer to the boundary than half this
# fraction of the centre's boundary distance (1 on the unit disk) is refused.
_BOUNDARY_MARGIN = 0.05


class RobinReport:
    M: float
    K: list
    S: float

    def __init__(self, M, K, S):
        self.M = M
        self.K = K
        self.S = S

    def to_json(self) -> dict:
        return {"M": self.M, "K": [list(map(float, p)) for p in self.K], "S": self.S}


# -- rectangle: the Schwarz-Christoffel series ---------------------------------
#
# Let a <= b be the sides.  The map of the unit disk onto the rectangle that
# sends 0 to the centre has f'(w) = C (1 - 2 x w^2 + w^4)^(-1/2), so by the
# Legendre generating function its Taylor coefficients are
# c_{2n+1} = C P_n(x) / (2n + 1), c_even = 0.  Here x = 1 - 2m, where m is the
# elliptic parameter of the nome q = e^(-pi b / a) <= e^(-pi) and C = a / K(m).
# Then M = 2 log C (twice the log of the conformal radius), and since
# G(f(w), f(0)) = log(1/|w|^2) / 4 pi, S pulls back to
#
#     S = sum_k k^2 |c_k|^2 I_k = C^2 sum_n P_n(x)^2 I_{2n+1},
#     I_k = int_0^inf s F(2s) e^(-2ks) ds = Gamma(kappa + 2) / (4 k^(kappa + 2)),
#
# for F(t) = t^kappa, the disk's radial moments (Flucher, Comment. Math.
# Helv. 1992; Bandle and Flucher, SIAM Rev. 1996).

_SERIES_TERMS = 4000
"""Terms n < K = _SERIES_TERMS of the series for S; theta = arccos x.

Where K theta < 1, P_n(x) is still close to 1 at the cut, so the terms left
out are added as the strip's tail: the series with P_n = 1, whose sum is
C^2 Gamma(s) / 4 sum_{n >= K} (2n + 1)^-s = C^2 Gamma(s) 2^-s zeta(s, K + 1/2) / 4,
s = kappa + 2, a Hurwitz zeta taken by three Euler-Maclaurin terms.

Truncation bound for F(t) = t^kappa, 0 < kappa <= 1 (every family's
profile).  Then S >= C^2 I_1, so

    |Delta S| / S <= (2K)^(-1-kappa) / (2 (1 + kappa)) * rho,
    rho = min(1, 1 / (K theta))                            if K theta >= 1,
    rho = min(1, (1 + kappa) K theta / (sqrt(2) kappa))    if K theta < 1.

Without the tail the terms left out have P_n^2 <= 2 / (pi n sin theta)
(Bernstein).  With it the error is the sum of (1 - P_n^2) I_k over n >= K,
where 0 <= 1 - P_n^2 <= min(1, n (n + 1) theta^2 / 2).  At K = 4000, kappa = 1
reads 6.2e-13 on the square and 2.8e-12 at 2:1, 3.9e-9 at worst (K theta
about 1, sides about 7:1) and 2.7e-11 at 10:1.  At worst kappa = 1/2 reads
4.7e-7, and kappa = 1/4 reads 5.3e-6.  Against 2e6 terms, kappa = 1 measured
2.1e-13 on the square, 5.9e-13 at 2:1, 1.4e-9 at 7:1, 5.1e-13 at 10:1 and
1.5e-14 at 50:1, the reference's own truncation; kappa = 1/4 measured 2.2e-6
at 7:1.  The rounding of the moments
adds MOMENT_RTOL.
"""

# Terms of each theta series: for q <= e^(-pi) the first left out is below
# 1e-21 of the sum.
_THETA_TERMS = 4
# A bound on the relative rounding of the closed-form moments I_k, so of the
# disk's S: against 40-digit mpmath, at most 6.8e-16 measured for kappa in
# [0, 1] and odd k <= 7999.
MOMENT_RTOL = 1e-13


def _rect_modulus(a: float, b: float) -> float:
    """The elliptic parameter m = (theta_2(q) / theta_3(q))^4 at the nome
    q = e^(-pi b / a), for sides a <= b: m <= 1/2, so 1 - m has no
    cancellation.  q^(1/4) is taken directly; it underflows later than q."""
    q4 = math.exp(-math.pi * b / (4.0 * a))
    q = q4**4
    theta2 = 2.0 * q4 * left_sum([q ** (n * (n + 1)) for n in range(_THETA_TERMS)])
    theta3 = left_sum([2.0 * q ** (n * n) for n in range(1, _THETA_TERMS)], 1.0)
    return (theta2 / theta3) ** 4


def _ellipk(m: float) -> float:
    """Complete elliptic integral K(m) = pi / (2 AGM(1, sqrt(1 - m))) for
    0 <= m <= 1/2.  The gap of the mean squares each step, from at most 0.3:
    five steps put it below the last bit."""
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(5):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _legendre_squares(x: float) -> np.ndarray:
    """P_n(x)^2 for n < _SERIES_TERMS, from the recurrence
    (n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}, its two factors (2n + 1) x / (n + 1)
    and n / (n + 1) taken first."""
    n = np.arange(1.0, _SERIES_TERMS - 1)
    values = [1.0, x]
    p_prev, p = 1.0, x
    for up_x, down in zip(((2.0 * n + 1.0) / (n + 1.0) * x).tolist(), (n / (n + 1.0)).tolist()):
        p_prev, p = p, up_x * p - down * p_prev
        values.append(p)
    values = np.array(values)
    return values * values


def _rect_robin_report(dom: DomainModel, kappa: float) -> RobinReport:
    """M, K and S of a rectangle from its Schwarz-Christoffel series, for
    the profile F(t) = t^kappa.

    K is the centre exactly: the symmetry gives c_2 = 0, and the Robin
    function of a convex domain has one critical point
    (Caffarelli-Friedman, Duke Math. J. 1985)."""
    a, b = sorted((dom.width, dom.height))
    m = _rect_modulus(a, b)
    C = a / _ellipk(m)
    s = kappa + 2.0
    ks = 2.0 * np.arange(_SERIES_TERMS) + 1.0
    S = float(_legendre_squares(1.0 - 2.0 * m) @ ks ** -s)
    theta = 2.0 * math.asin(math.sqrt(m))
    if _SERIES_TERMS * theta < 1.0:
        # the strip's tail, the sum of k^-s over odd k >= k0 by Euler-Maclaurin:
        # the next term, s(s+1)(s+2) k0^(-s-3) / 90, is below 1e-15 of it
        k0 = 2.0 * _SERIES_TERMS + 1.0
        S += k0 ** -s * (k0 / (2.0 * (s - 1.0)) + 0.5 + s / (6.0 * k0))
    return RobinReport(M=2.0 * math.log(C), K=[tuple(map(float, dom.centre()))],
                       S=C * C * math.gamma(s) / 4.0 * S)


def robin_search(
    dom: DomainModel,
    F: Callable[[np.ndarray], np.ndarray],
) -> RobinReport:
    """M, K and S of the unit disk without the series: one Nelder-Mead
    search from the centre, then the quadrature around its maximizer z.
    Raises DegenerateMaxError if the search does not converge in 400
    iterations, or if z lies closer to the boundary than half the margin
    fraction of the centre's distance, 1.
    """
    _disk_only(dom, "robin_search")
    centre = dom.centre()
    res = minimize(lambda q: -robin(dom, q), centre, xatol=1e-10, fatol=1e-12, maxiter=400)
    if not res.success:
        raise DegenerateMaxError(f"Robin search did not converge in {res.nit} iterations "
                                 f"({res.nfev} evaluations)")
    z = res.x
    if 1.0 - math.hypot(float(z[0]), float(z[1])) < 0.5 * _BOUNDARY_MARGIN:
        raise DegenerateMaxError("Robin maximizer hit the boundary margin")

    def integrand(r, pts):
        Gv = np.asarray(green(dom, z, pts))
        return Gv * np.asarray(F(4.0 * math.pi * Gv))

    S = integrate_around_pole(dom, z, integrand)
    return RobinReport(M=float(-res.fun), K=[tuple(map(float, z))], S=float(S))


def robin_report(dom: DomainModel, F: PowerProfile) -> RobinReport:
    """The Robin maximum M, its maximizer set K and the concentration
    integral S = int_Omega G_z F(4 pi G_z), z the maximizer, read off the
    Taylor series of the conformal map of the unit disk onto the domain.

    F is the profile t^kappa and carries its exponent F.kappa: the radial
    moments I_k are read in closed form, and F itself is never called.  K is the centre: on a convex domain
    the Robin function has one critical point (Caffarelli-Friedman, Duke
    Math. J. 1985).  The disk's map is the identity, c_1 = 1, so M = 0 and
    S = I_1 = Gamma(kappa + 2) / 4; a rectangle's series is
    `_rect_robin_report`'s.  Nothing is searched, so DegenerateMaxError is
    never raised.
    """
    if dom.shape is Shape.RECTANGLE:
        return _rect_robin_report(dom, F.kappa)
    centre = dom.centre()
    # + 0.0: the centre's Robin value 2 log1p(-0.0) is -0.0
    return RobinReport(M=robin(dom, centre) + 0.0, K=[tuple(map(float, centre))],
                       S=math.gamma(F.kappa + 2.0) / 4.0)
