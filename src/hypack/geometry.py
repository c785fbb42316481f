"""Hyperboloid-model hyperbolic geometry with large-radius-stable kernels.

Points live on the upper sheet of ``<x,x>_M = -1`` in Minkowski space
R^{m,1}, with base point ``o = (1, 0, ..., 0)``.  Every point carries a
polar representation (hyperbolic radius from o, unit direction in the
tangent space at o); ambient coordinates are kept only while they are
representable.  Hot paths hold many points as one PolarBatch of rows, made by
the one exp kernel, exp_rows, at one basepoint or at each of many.  A
tangent vector is what exp_rows takes: an ambient row at its basepoint with
its length; exp_map is the one-row call for an HPoint.  All
distances funnel through one log-domain law-of-cosines kernel that stays
accurate for radii up to 1e4, reached by three entry points: `distance` for
HPoints and PolarBatch rows, packing.lag_distance for index lags at the
packing angle, and `polar_distance` for (r1, r2, cos theta).

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
    "EXP_RADIUS_MAX",
    "HPoint",
    "M_MAX",
    "NumericRangeError",
    "PolarBatch",
    "check_dimension",
    "dist_given_q",
    "distance",
    "exp_map",
    "exp_rows",
    "polar_distance",
    "transport_frame",
]

#: Radius beyond which ambient coordinates stop being the authoritative
#: representation (they stay exactly representable far longer, but lose
#: absolute positional meaning as eps*sinh(r) grows).
COORDS_RADIUS_MAX = 30.0

#: Ceiling for carrying ambient coordinates at all, and so the largest radius
#: exp_rows reaches.  cosh(350) is ~5e151, so products of two such
#: coordinates still fit in a double.
EXP_RADIUS_MAX = 350.0

#: Default absolute tolerance on distances.
DEFAULT_TOL = 1e-9

#: Largest dimension m taken from outside.  It bounds every array that grows
#: with m before the first is allocated: the packing rows, their (N, m, m+1)
#: transport frames and the map images.  A set-distance search needs no net
#: and runs up to it; a Hausdorff search is further held to nets whose size
#: bound fits nets.NET_POINTS_MAX (at the default r and eps, m <= 4 for
#: the Poincare map and m <= 3 for the Busemann map).
M_MAX = 13


def check_dimension(m: int) -> None:
    """Refuse a dimension m outside [2, M_MAX]."""
    if not 2 <= m <= M_MAX:
        raise ValueError(f"m must be >= 2 and <= {M_MAX} (got {m})")


_LOG2 = math.log(2.0)

#: :func:`dist_given_q` evaluates sinh products directly while r1 + r2 is
#: below this, and in log-domain from there on.
_DIRECT_TOTAL_MAX = 300.0

#: Elements of one array temporary: every loop over rows that bounds its
#: temporaries, at any input size, takes its blocks from :func:`_row_blocks`.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n: int, width: int):
    """Slices of range(n), in order, of at most max(1, _BLOCK_ELEMENTS // width)
    rows; a row of width 0 counts as width 1."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


class NumericRangeError(ArithmeticError):
    """Raised when a computation leaves the numerically stable regime."""


# ---------------------------------------------------------------------------
# scalar/vector kernels
# ---------------------------------------------------------------------------


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


#: Longest run of consecutive doubles that :func:`_libm` evaluates whole,
#: and the fewest elements it does so for.
_LIBM_RUN = 64


def _libm(fn):
    """`fn`, a libm function of math, applied to every element of an array.

    If the array has more than _LIBM_RUN elements whose int64 bit patterns
    lie in a run of at most _LIBM_RUN consecutive doubles (under _LIBM_RUN
    ulps from end to end), none of them NaN, `fn` runs once per double of
    that run and the results are indexed by bit pattern.  Such a run is of
    one sign, since any run through both signs passes a NaN pattern.  Every
    other array takes one call per element.  Either way each element has
    the bits of fn(element).  The wrapped functions grow with |x|, so a
    double inside a run raises only where one of the array's ends does.
    """

    def apply(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        if flat.size > _LIBM_RUN:
            bits = flat.view(np.int64)
            lo = int(bits.min())
            span = int(bits.max()) - lo + 1
            if span <= _LIBM_RUN:
                run = np.arange(lo, lo + span, dtype=np.int64).view(float)
                if not np.isnan(run).any():
                    values = np.array([fn(v) for v in run.tolist()])
                    return values[bits - lo].reshape(x.shape)
        return np.fromiter(map(fn, flat.tolist()), float, x.size).reshape(x.shape)

    return apply


# Elementwise libm functions for the row kernels: numpy's own cosh, sinh, tanh
# and arcsinh differ from libm in the last bit on a few percent of elements.
_cosh, _sinh, _tanh, _asinh = map(_libm, (math.cosh, math.sinh, math.tanh, math.asinh))


def _unit_gap_q(u1, u2):
    """sin^2(theta/2) between unit vectors via 0.25*|u1-u2|^2 (stable for
    small angles; exact identity since |u1-u2|^2 = 2 - 2 cos(theta))."""
    diff = np.asarray(u1, dtype=float) - np.asarray(u2, dtype=float)
    return np.clip(0.25 * np.sum(diff * diff, axis=-1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# points
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
        if r <= EXP_RADIUS_MAX:
            coords = np.concatenate(([math.cosh(r)], math.sinh(r) * d))
            coords.setflags(write=False)
        return HPoint(r, d, coords)

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


#: Products at least this large in magnitude get their exact error from
#: _two_prod: its partial products, down to 2^-53 of the product, stay normal.
_TWO_PROD_EXACT_MIN = 2.0**-969


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


def distance(x, y):
    """Geodesic distance, via the polar law-of-cosines kernel.

    Each side is an HPoint or a PolarBatch.  Two HPoints give a float; a
    point against rows, or two batches of equal length, give one distance
    per row.  Symmetric, zero iff the stored representations coincide, and
    stable at any radius the polar representation can express.  This is the
    one entry point for measuring points; index lags go through
    packing.lag_distance and (r1, r2, cos theta) through polar_distance.
    """
    ux = x.direction if isinstance(x, HPoint) else x.dirs
    uy = y.direction if isinstance(y, HPoint) else y.dirs
    if ux.shape[-1] != uy.shape[-1]:
        raise ValueError("distance: dimension mismatch")
    d = dist_given_q(x.r, y.r, _unit_gap_q(ux, uy))
    return float(d) if isinstance(x, HPoint) and isinstance(y, HPoint) else d


def _snap_rows(c: np.ndarray):
    """(r, dirs, coords) of rows of computed hyperboloid coordinates; the
    coords are `c` itself, its column 0 rewritten.

    Cancellation in exp/isometry formulas leaves off-sheet drift that scales
    with the construction magnitudes, not the result, so the timelike
    component is snapped instead of re-validated.
    """
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
    lengths, shape (l,) shared by every basepoint or (B, l), or a 0-d length
    shared by every row at every basepoint.  Each row is the compensated
    combination cosh(t) x + sinh(t) v/t at its basepoint x, snapped back onto
    the sheet (x itself where t = 0).  Returns the B*l rows basepoint-major.

    This is the one exp implementation.  libm cosh/sinh run once per entry of
    `t`, and every row has the bits of a one-row call at its basepoint.  With
    a 0-d `t` the product cosh(t) x is formed once per basepoint.

    Where every basepoint is o (spatial coordinates all +0.0), the spatial
    columns of the compensated combination are the plain products
    sinh(t) v/t, bit for bit: cosh(t) * 0 and its Dekker error are +0.0, and
    fl(p + e) = p for p = fl(a b) and its exact error e.  So the rows are
    those products there (with -0.0 made +0.0, as the compensated sum makes
    it), and neither the compensation nor libm cosh runs; column 0 is
    rewritten by the snap anyway.  If a nonzero product falls below
    _TWO_PROD_EXACT_MIN, where the Dekker error is not exact, the
    compensated combination is taken after all.
    """
    bases = PolarBatch.of([base]) if isinstance(base, HPoint) else base
    t = np.asarray(t, dtype=float)
    m1 = bases.dirs.shape[1] + 1
    per_base = t.shape[-1] if t.ndim else -1
    vecs = np.asarray(vecs, dtype=float).reshape(len(bases), per_base, m1)
    reach = bases.r[:, None] + t
    if np.any(reach > EXP_RADIUS_MAX):
        raise NumericRangeError(
            f"exp_map: target radius ~{reach.max():.3g} exceeds the representable range"
        )
    x = _coords_of(bases)
    zero = t == 0.0
    tt = np.where(zero, 1.0, t)[..., None]
    y = vecs / tt
    at_o = not (np.any(x[:, 1:]) or np.signbit(x[:, 1:]).any())
    exact = False
    if at_o:
        c = _sinh(tt) * y
        c += 0.0  # -0.0 to +0.0, as in _comb2
        exact = not np.any((np.abs(c[..., 1:]) < _TWO_PROD_EXACT_MIN) & (y[..., 1:] != 0.0))
    if not exact:
        c = _comb2(_cosh(tt), x[:, None, :], _sinh(tt), y)
    r, dirs, coords = _snap_rows(c.reshape(-1, m1))
    stay = np.broadcast_to(zero, vecs.shape[:2])
    if stay.any():
        at = np.nonzero(stay)[0]  # the basepoint of each t = 0 row, in row order
        flat = stay.ravel()
        r[flat], dirs[flat], coords[flat] = bases.r[at], bases.dirs[at], bases.coords[at]
    return PolarBatch(r, dirs, coords)


def exp_map(x: HPoint, v, t) -> HPoint:
    """exp at x of the ambient tangent row v of length t: exp_rows' one-row call.

    No package module calls it; it stays as the scalar exp of the HPoint API,
    which bench/tracer.py times by name.
    """
    return exp_rows(x, v, [t])[0]


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
