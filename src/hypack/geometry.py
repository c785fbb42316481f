"""Hyperboloid-model hyperbolic geometry with large-radius-stable kernels.

Points live on the upper sheet of ``<x,x>_M = -1`` in Minkowski space
R^{m,1}, with base point ``o = (1, 0, ..., 0)``.  Every point carries a
polar representation (hyperbolic radius from o, unit direction in the
tangent space at o); ambient coordinates are kept only while they are
representable.  Hot paths hold many points as one PolarBatch of rows, made by
the one exp kernel, exp_rows, at one basepoint or at each of many.  All
distances funnel through one log-domain law-of-cosines kernel that stays
accurate for radii up to 1e4.

Resolution caveat: double-precision o-based coordinates (ambient or polar)
locate a point at radius r only to within ~eps*sinh(r) length units, so
local questions at a far basepoint (coverage, frame geometry) must be posed
in tangent coordinates at that basepoint.  In constant curvature -1 the
law-of-cosines kernel answers them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "COORDS_RADIUS_MAX",
    "DEFAULT_TOL",
    "HPoint",
    "HTangent",
    "NumericRangeError",
    "PolarBatch",
    "Transvection",
    "dist_given_q",
    "dist_polar_angle",
    "distance",
    "exp_map",
    "exp_rows",
    "law_of_sines_residual",
    "log_map",
    "minkowski_inner",
    "parallel_transport",
    "polar_distance",
    "sample_ball",
    "transport_frame",
    "transvection_to",
    "triangle_angles",
]

#: Radius beyond which ambient coordinates stop being the authoritative
#: representation (they stay exactly representable far longer, but lose
#: absolute positional meaning as eps*sinh(r) grows).
COORDS_RADIUS_MAX = 30.0

#: Internal ceiling for carrying ambient coordinates at all.  cosh(350) is
#: ~5e151, so products of two such coordinates still fit in a double.
_COORDS_INTERNAL_MAX = 350.0

#: Default absolute tolerance on distances.
DEFAULT_TOL = 1e-9

_LOG2 = math.log(2.0)

#: :func:`dist_given_q` evaluates sinh products directly while r1 + r2 is
#: below this, and in log-domain from there on.
_DIRECT_TOTAL_MAX = 300.0


class NumericRangeError(ArithmeticError):
    """Raised when a computation leaves the numerically stable regime."""


# ---------------------------------------------------------------------------
# scalar/vector kernels
# ---------------------------------------------------------------------------


def minkowski_inner(x, y):
    """Minkowski bilinear form -x0*y0 + sum_i x_i*y_i.

    Accepts arrays whose last axis is the coordinate axis; broadcasting
    follows numpy rules.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("minkowski_inner: mismatched coordinate lengths")
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def _log_sinh(r):
    """log(sinh(r)) for r > 0, elementwise, without overflow."""
    r = np.asarray(r, dtype=float)
    small = r < 20.0
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(
            small,
            np.log(np.sinh(np.where(small, r, 1.0))),
            r - _LOG2 + np.log1p(-np.exp(-2.0 * np.where(small, 1.0, r))),
        )
    return out


def _acosh1p(u):
    """arccosh(1 + u) for u >= 0, accurate for tiny and huge u."""
    u = np.asarray(u, dtype=float)
    big = u > 1e16
    safe = np.where(big, 1.0, u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(
            big,
            _LOG2 + np.log(np.where(big, u, 1.0)),
            np.log1p(safe + np.sqrt(safe * (safe + 2.0))),
        )
    return out


def dist_given_q(r1, r2, q):
    """Distance between points at polar radii r1, r2 with q = sin^2(theta/2).

    Evaluates arccosh(cosh(r1-r2) + 2*sinh(r1)*sinh(r2)*q) in a form whose
    terms are all non-negative (no cancellation), switching to log-domain
    accumulation once sinh products would overflow.  Good to ~1e-10 relative
    error for radii up to 1e4.

    The log-domain branch is evaluated only for elements with r1 + r2 >= 300,
    and skipped entirely when there are none.  Both branches are exactly
    symmetric in (r1, r2).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    dr = r1 - r2
    total = r1 + r2
    direct = total < _DIRECT_TOTAL_MAX

    rs1 = np.where(direct, r1, 0.0)
    rs2 = np.where(direct, r2, 0.0)
    u = 2.0 * np.sinh(0.5 * (rs1 - rs2)) ** 2 + 2.0 * np.sinh(rs1) * np.sinh(rs2) * q
    d_direct = _acosh1p(u)
    if direct.all():
        return d_direct

    # log-domain: log(u) = logaddexp(log(cosh(dr)-1), log(2 sinh r1 sinh r2 q))
    with np.errstate(divide="ignore"):
        la = np.where(dr != 0.0, _LOG2 + 2.0 * _log_sinh(0.5 * np.abs(dr)), -np.inf)
        lb = np.where(
            (q > 0.0) & (r1 > 0.0) & (r2 > 0.0),
            _LOG2
            + (_log_sinh(np.maximum(r1, 1e-300)) + _log_sinh(np.maximum(r2, 1e-300)))
            + np.log(np.maximum(q, 1e-320)),
            -np.inf,
        )
    s = np.logaddexp(la, lb)
    with np.errstate(over="ignore"):
        d_log = np.where(s > 37.0, s + _LOG2, _acosh1p(np.exp(np.minimum(s, 37.0))))
    d_log = np.where(np.isneginf(s), 0.0, d_log)

    return np.where(direct, d_direct, d_log)


def polar_distance(r1: float, r2: float, cos_theta: float) -> float:
    """Hyperbolic law of cosines: distance from two radii and cos(angle).

    Solves cosh(d) = cosh(r1)cosh(r2) - sinh(r1)sinh(r2)cos(theta) in a
    log-domain form stable for r1, r2 up to 1e4.

    Raises
    ------
    ValueError
        If cos_theta lies outside [-1, 1] by more than 1e-12, or a radius
        is negative.
    """
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError("polar_distance: radii must be non-negative")
    if cos_theta > 1.0 + 1e-12 or cos_theta < -1.0 - 1e-12:
        raise ValueError(f"polar_distance: cos_theta {cos_theta!r} outside [-1, 1]")
    c = min(1.0, max(-1.0, cos_theta))
    # 1 - c is exact for c in [0.5, 1] (Sterbenz), so q keeps full precision.
    q = 0.5 * (1.0 - c)
    return float(dist_given_q(r1, r2, q))


def dist_polar_angle(r1, r2, theta):
    """Like :func:`polar_distance` but takes the angle itself.

    Feeding the angle avoids the quantization of cos(theta) near 1, which
    is what limits separation certificates for nearly-parallel directions.
    Accepts arrays.  Angles outside [0, pi] are folded by the symmetry of
    sin^2(theta/2).
    """
    theta = np.asarray(theta, dtype=float)
    q = np.sin(0.5 * theta) ** 2
    return dist_given_q(r1, r2, q)


def _libm(fn):
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)


# Elementwise libm functions for the row kernels: numpy's own cosh, sinh, tanh
# and arcsinh differ from libm in the last bit on a few percent of elements.
_cosh, _sinh, _tanh, _asinh = map(_libm, (math.cosh, math.sinh, math.tanh, math.asinh))


def _unit_gap_q(u1, u2):
    """sin^2(theta/2) between unit vectors via 0.25*|u1-u2|^2 (stable for
    small angles; exact identity since |u1-u2|^2 = 2 - 2 cos(theta))."""
    diff = np.asarray(u1, dtype=float) - np.asarray(u2, dtype=float)
    return np.clip(0.25 * np.sum(diff * diff, axis=-1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# points and tangents
# ---------------------------------------------------------------------------


def _as_unit(direction, what):
    d = np.asarray(direction, dtype=float).copy()
    n = float(np.linalg.norm(d))
    if not math.isfinite(n) or n == 0.0:
        raise ValueError(f"{what}: direction must be a nonzero finite vector")
    d /= n
    d.setflags(write=False)
    return d


@dataclass(frozen=True)
class HPoint:
    """Point of H^m: polar data (always) plus ambient coordinates (optional).

    Attributes
    ----------
    r : float
        Hyperbolic distance from the base point o.
    direction : ndarray, shape (m,)
        Unit direction in the tangent space at o.  Arbitrary (e_1) at r=0.
    coords : ndarray, shape (m+1,) or None
        Hyperboloid coordinates cosh(r)*o + sinh(r)*(0, direction); absent
        when r is too large for them to be representable.  Polar data is
        authoritative beyond ``COORDS_RADIUS_MAX``.
    """

    r: float
    direction: np.ndarray
    _coords: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def origin(m: int) -> "HPoint":
        d = np.zeros(m)
        d[0] = 1.0
        return HPoint.from_polar(0.0, d)

    @staticmethod
    def from_polar(r: float, direction) -> "HPoint":
        r = float(r)
        if r < 0.0 or not math.isfinite(r):
            raise ValueError("from_polar: radius must be finite and >= 0")
        d = _as_unit(direction, "HPoint.from_polar")
        coords = None
        if r <= _COORDS_INTERNAL_MAX:
            coords = np.concatenate(([math.cosh(r)], math.sinh(r) * d))
            coords.setflags(write=False)
        return HPoint(r, d, coords)

    @staticmethod
    def from_coords(coords) -> "HPoint":
        c = np.asarray(coords, dtype=float).copy()
        if c.ndim != 1 or c.shape[0] < 3:
            raise ValueError("from_coords: expected a vector of length m+1, m >= 2")
        if c[0] < 1.0 - 1e-9:
            raise ValueError("from_coords: point not on the upper sheet (x0 < 1)")
        sq = float(minkowski_inner(c, c))
        # rounding perturbs the self-product by ~eps*cosh(r)^2; anything far
        # beyond that is a modeling error, anything within gets snapped back
        tol = 1e-8 * max(1.0, c[0] * c[0])
        if abs(sq + 1.0) > tol:
            raise ValueError(f"from_coords: Minkowski self-product {sq} != -1")
        return PolarBatch(*_snap_rows(c[None, :]))[0]

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """Ambient coordinates; a range error beyond ``COORDS_RADIUS_MAX``."""
        if self.r > COORDS_RADIUS_MAX:
            raise NumericRangeError(
                f"coords requested at radius {self.r:.3g} > {COORDS_RADIUS_MAX:g}; "
                "use the polar representation"
            )
        assert self._coords is not None
        return self._coords

    @property
    def coords_extended(self) -> np.ndarray:
        """Ambient coordinates up to the internal representability ceiling.

        Positions carry absolute error ~eps*sinh(r); callers must only use
        these for operations whose results are consumed in relative or
        tangent terms.
        """
        if self._coords is None:
            raise NumericRangeError(
                f"ambient coordinates unavailable at radius {self.r:.3g}"
            )
        return self._coords


@dataclass(frozen=True, eq=False)
class PolarBatch:
    """N points of H^m as rows: read-only radii ``r`` (N,), unit directions
    ``dirs`` (N, m) and, when every row has them, ambient ``coords`` (N, m+1).

    An integer index gives that row as an HPoint, any other index a sub-batch.
    """

    r: np.ndarray
    dirs: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.r, self.dirs, self.coords):
            if a is not None:
                a.setflags(write=False)

    @staticmethod
    def of(points) -> "PolarBatch":
        """Stack HPoints into rows."""
        coords = [p._coords for p in points]
        return PolarBatch(
            np.array([p.r for p in points], dtype=float),
            np.array([p.direction for p in points]),
            None if any(c is None for c in coords) else np.array(coords),
        )

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, i):
        coords = None if self.coords is None else self.coords[i]
        if isinstance(i, (int, np.integer)):
            return HPoint(float(self.r[i]), self.dirs[i], coords)
        return PolarBatch(self.r[i], self.dirs[i], coords)


@dataclass(frozen=True)
class HTangent:
    """Tangent vector at an HPoint, stored in ambient coordinates.

    ``known_norm`` records the Minkowski length when the construction
    already knows it (isometric transports, frame combinations, log maps).
    At basepoint radius r the bilinear form evaluates with absolute error
    ~eps*e^{2r}, so recomputing the norm of a unit vector is meaningless
    beyond r ~ 17; the carried value is exact instead.
    """

    base: HPoint
    vec: np.ndarray
    known_norm: float | None = None

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float).copy()
        if v.shape != (self.base.dim + 1,):
            raise ValueError("HTangent: vector length must be m+1")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @staticmethod
    def at(base: HPoint, vec, project: bool = False) -> "HTangent":
        v = np.asarray(vec, dtype=float)
        if project:
            x = base.coords_extended
            v = v + minkowski_inner(v, x) * x
        return HTangent(base, v)

    @property
    def norm(self) -> float:
        if self.known_norm is not None:
            return self.known_norm
        return math.sqrt(max(float(minkowski_inner(self.vec, self.vec)), 0.0))

    def scaled(self, t: float) -> "HTangent":
        kn = None if self.known_norm is None else abs(t) * self.known_norm
        return HTangent(self.base, t * self.vec, kn)


# ---------------------------------------------------------------------------
# compensated linear combinations
# ---------------------------------------------------------------------------

_SPLITTER = float(2**27 + 1)


def _two_prod(a, b):
    """Dekker product: p + err == a*b exactly (|inputs| < ~1e292)."""
    p = a * b
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _comb2(s1, x, s2, y):
    """s1*x + s2*y with one compensation level.

    The geodesic formulas combine two exponentially large terms into a
    possibly small result; plain evaluation loses eps * (large/result)
    digits, compensation pushes that to second order.
    """
    p1, e1 = _two_prod(s1, x)
    p2, e2 = _two_prod(s2, y)
    s = p1 + p2
    bb = s - p1
    es = (p1 - (s - bb)) + (p2 - bb)
    return s + (es + e1 + e2)


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------


def distance(x: HPoint, y: HPoint) -> float:
    """Geodesic distance, via the polar law-of-cosines kernel.

    Symmetric, zero iff the stored representations coincide, and stable at
    any radius the polar representation can express.
    """
    if x.dim != y.dim:
        raise ValueError("distance: dimension mismatch")
    q = _unit_gap_q(x.direction, y.direction)
    return float(dist_given_q(x.r, y.r, q))


def _snap_rows(c: np.ndarray):
    """(r, dirs, coords) of rows of computed hyperboloid coordinates.

    Cancellation in exp/isometry formulas leaves off-sheet drift that scales
    with the construction magnitudes, not the result, so the timelike
    component is snapped instead of re-validated.
    """
    c = c.copy()
    rest = c[:, 1:]
    # sqrt(vecdot) rounds like the 1-D np.linalg.norm; norm(axis=1) does not
    nr = np.sqrt(np.vecdot(rest, rest))
    c[:, 0] = np.sqrt(1.0 + nr * nr)
    at_o = nr == 0.0
    dirs = rest / np.where(at_o, 1.0, nr)[:, None]
    dirs[at_o] = np.eye(1, rest.shape[1])
    return _asinh(nr), dirs, c


def exp_rows(base, vecs, t) -> PolarBatch:
    """Riemannian exponential of tangent rows at one basepoint or at each of many.

    `base` is an HPoint or a PolarBatch of B basepoints; `vecs` holds l ambient
    tangent rows at each basepoint, shape (l, m+1) or (B, l, m+1), and `t` their
    lengths, shape (l,) shared by every basepoint or (B, l).  Each row is the
    compensated combination cosh(t) x + sinh(t) v/t at its basepoint x, snapped
    back onto the sheet (x itself where t = 0).  Returns the B*l rows
    basepoint-major.

    This is the one exp implementation.  libm cosh/sinh run once per entry of
    `t`, and every row has the bits of a one-row call at its basepoint.
    """
    bases = PolarBatch.of([base]) if isinstance(base, HPoint) else base
    t = np.asarray(t, dtype=float)
    m1 = bases.dirs.shape[1] + 1
    vecs = np.asarray(vecs, dtype=float).reshape(len(bases), t.shape[-1], m1)
    reach = bases.r[:, None] + t
    if np.any(reach > _COORDS_INTERNAL_MAX):
        raise NumericRangeError(
            f"exp_map: target radius ~{reach.max():.3g} exceeds the representable range"
        )
    x = _coords_of(bases)[:, None, :]
    zero = t == 0.0
    tt = np.where(zero, 1.0, t)[..., None]
    r, dirs, coords = _snap_rows(_comb2(_cosh(tt), x, _sinh(tt), vecs / tt).reshape(-1, m1))
    stay = np.broadcast_to(zero, reach.shape)
    if stay.any():
        at = np.nonzero(stay)[0]  # the basepoint of each t = 0 row, in row order
        flat = stay.ravel()
        r[flat], dirs[flat], coords[flat] = bases.r[at], bases.dirs[at], bases.coords[at]
    return PolarBatch(r, dirs, coords)


def exp_map(v: HTangent) -> HPoint:
    """Riemannian exponential: follow the geodesic with velocity v for time 1."""
    if v.norm == 0.0:
        return v.base
    return exp_rows(v.base, v.vec, [v.norm])[0]


def log_map(x: HPoint, y: HPoint) -> HTangent:
    """Inverse of exp at x: tangent v with exp_x(v) = y and |v| = d(x, y).

    The length comes from the stable polar kernel; ambient coordinates only
    supply the direction.
    """
    return _log_map_known(x, y, distance(x, y))


def _log_map_known(x: HPoint, y: HPoint, d: float) -> HTangent:
    """:func:`log_map` with the length d = d(x, y) already measured."""
    if d == 0.0:
        return HTangent(x, np.zeros(x.dim + 1), 0.0)
    xc = x.coords_extended
    yc = y.coords_extended
    factor = d / math.sinh(d) if d > 1e-8 else 1.0 - d * d / 6.0
    # the formula is tangent analytically; re-projecting numerically would
    # inject cancellation noise of size eps*|v|*|x|^2
    v = _comb2(1.0, yc, -math.cosh(d), xc) * factor
    return HTangent(x, v, d)


def parallel_transport(v: HTangent, to: HPoint) -> HTangent:
    """Parallel transport along the unique geodesic from v.base to `to`.

    Closed form on the hyperboloid:
    P(v) = v + <y, v>_M / (1 - <x, y>_M) * (x + y), which is well
    conditioned since 1 - <x,y>_M = 1 + cosh d >= 2.
    """
    x = v.base.coords_extended
    y = to.coords_extended
    denom = 1.0 - float(minkowski_inner(x, y))
    w = v.vec + (float(minkowski_inner(y, v.vec)) / denom) * (x + y)
    return HTangent(to, w, v.norm)  # transport is an isometry


def _coords_of(points: PolarBatch) -> np.ndarray:
    """Ambient coordinates of every row; a range error when some row has none."""
    if points.coords is None:
        raise NumericRangeError(
            f"ambient coordinates unavailable at radius {points.r.max():.3g}"
        )
    return points.coords


def transport_frame(p) -> np.ndarray:
    """Transport of the standard o-frame (0, e_1..e_m) to p, as rows.

    For an HPoint returns shape (m, m+1); row i is the transported basis
    vector V_i used to realize linear isometries T_o -> T_p.  For a
    PolarBatch of N points returns the N frames, shape (N, m, m+1), each with
    the bits of its one-point frame.
    """
    x = p.coords_extended if isinstance(p, HPoint) else _coords_of(p)
    m = x.shape[-1] - 1
    o = np.zeros(m + 1)
    o[0] = 1.0
    axis = x + o
    scale = x[..., 1:] / (1.0 + x[..., :1])
    frame = np.zeros(x.shape[:-1] + (m, m + 1))
    frame[..., 1:] = np.eye(m)
    frame += scale[..., :, None] * axis[..., None, :]
    return frame


def tangent_angle(u: HTangent, w: HTangent) -> float:
    """Angle between two tangent vectors at a common basepoint.

    Uses atan2 of the rejection norm against the cosine, which keeps small
    angles at full relative precision of the stored components.
    """
    nu, nw = u.norm, w.norm
    if nu == 0.0 or nw == 0.0:
        raise ValueError("tangent_angle: zero tangent vector")
    uh = u.vec / nu
    wh = w.vec / nw
    c = float(minkowski_inner(uh, wh))
    rej = wh - c * uh
    s = math.sqrt(max(float(minkowski_inner(rej, rej)), 0.0))
    return math.atan2(s, c)


def triangle_angles(a: HPoint, b: HPoint, c: HPoint) -> tuple[float, float, float]:
    """Interior angles at a, b, c of the geodesic triangle abc.

    The tangent directions come from o-based ambient coordinates, whose
    error grows like eps*e^{2r} with the vertex radius r; from r ~ 10 on the
    measured angles can describe no hyperbolic triangle at all.

    Raises
    ------
    ValueError
        If two vertices coincide within 1e-12 (the angle is undefined).
    NumericRangeError
        If the measured angles are impossible for a hyperbolic triangle: an
        angle outside (0, pi) or an angle sum of pi or more.
    """
    d_ab, d_ac, d_bc = distance(a, b), distance(a, c), distance(b, c)
    for d, name in ((d_ab, "a,b"), (d_ac, "a,c"), (d_bc, "b,c")):
        if d <= 1e-12:
            raise ValueError(f"triangle_angles: vertices {name} coincide")

    # the kernel is exactly symmetric, so each side length serves both ends
    angles = (
        tangent_angle(_log_map_known(a, b, d_ab), _log_map_known(a, c, d_ac)),
        tangent_angle(_log_map_known(b, a, d_ab), _log_map_known(b, c, d_bc)),
        tangent_angle(_log_map_known(c, a, d_ac), _log_map_known(c, b, d_bc)),
    )
    if not (min(angles) > 0.0 and max(angles) < math.pi and sum(angles) < math.pi):
        raise NumericRangeError(
            f"triangle_angles: measured angles {angles} (sum {sum(angles)!r}) fit no hyperbolic"
            f" triangle; vertex radii up to {max(a.r, b.r, c.r):.3g} exceed the resolution of"
            " the ambient coordinates"
        )
    return angles


def law_of_sines_residual(sides, angles) -> float:
    """Max pairwise absolute difference of the ratios sinh(side)/sin(angle).

    sides[i] must be opposite angles[i].  Zero in exact arithmetic for any
    hyperbolic triangle.
    """
    sides = np.asarray(sides, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if sides.shape != (3,) or angles.shape != (3,):
        raise ValueError("law_of_sines_residual: expected three sides and three angles")
    if np.any(sides <= 0.0) or np.any(angles <= 0.0) or np.any(angles >= math.pi):
        raise ValueError("law_of_sines_residual: sides must be > 0, angles in (0, pi)")
    ratios = np.sinh(sides) / np.sin(angles)
    return float(ratios.max() - ratios.min())


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transvection:
    """Distance-preserving map of H^m sending the base point o to p.

    Realized as the Lorentz matrix with columns (p, V_1, ..., V_m), i.e.
    exp_p of the frame-transported exp_o^{-1}; in a symmetric space this is
    exactly the transvection along the geodesic from o to p.
    """

    matrix: np.ndarray

    def __call__(self, x: HPoint) -> HPoint:
        return PolarBatch(*_snap_rows((self.matrix @ x.coords_extended)[None, :]))[0]

    def inverse(self) -> "Transvection":
        eta = np.ones(self.matrix.shape[0])
        eta[0] = -1.0
        inv = eta[:, None] * self.matrix.T * eta[None, :]
        return Transvection(inv)


def transvection_to(p: HPoint) -> Transvection:
    """Isometry handle moving o to p (identity when p = o)."""
    m = p.dim
    mat = np.zeros((m + 1, m + 1))
    mat[:, 0] = p.coords_extended
    mat[:, 1:] = transport_frame(p).T
    return Transvection(mat)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_ball(m: int, rho: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample tangent coordinates uniformly w.r.t. hyperbolic volume in B(rho).

    Radius density is proportional to sinh^{m-1}(s) on [0, rho] (the
    uncorrected tangent measure would over-weight the center); directions
    are uniform on S^{m-1}.  Returns shape (size, m).
    """
    if m < 1 or rho <= 0.0 or size < 0:
        raise ValueError("sample_ball: need m >= 1, rho > 0, size >= 0")
    u = rng.random(size)
    if m == 2:
        radii = np.arccosh(1.0 + u * (math.cosh(rho) - 1.0))
    else:
        grid = np.linspace(0.0, rho, 4097)
        dens = np.sinh(grid) ** (m - 1)
        cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))))
        cdf /= cdf[-1]
        radii = np.interp(u, cdf, grid)
    dirs = rng.standard_normal((size, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs
