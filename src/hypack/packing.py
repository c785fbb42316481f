"""Explicit geodesic-ball packings inside B(p, R) with certified 2C separation.

The family places k+1 centers on a 2-plane through the packing center, at
distance R-C along directions spaced by twice the packing angle alpha, with
sin(alpha) = sinh(C)/sinh(R-C).  Adjacent centers are then exactly 2C apart
and the family size grows like sinh(R-C), which is the exponential lower
bound on the packing number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypack.geometry import (
    DEFAULT_TOL,
    HPoint,
    HTangent,
    NumericRangeError,
    PolarBatch,
    _log_sinh,
    _unit_gap_q,
    dist_given_q,
    exp_rows,
    minkowski_inner,
)

__all__ = [
    "BallFamily",
    "GrowthRow",
    "PackingReport",
    "PackingSpec",
    "count_lower_bound",
    "direction_count",
    "generate_centers",
    "growth_table",
    "growth_table_csv",
    "lag_distance",
    "min_lag_distance",
    "packing_angle",
    "verify_packing",
]

#: Family sizes beyond this are not exactly representable as floats; center
#: generation still works (indices are subsampled) but exact counting stops.
_EXACT_COUNT_MAX = float(2**53)


def packing_angle(C: float, R: float) -> float:
    """Half the angular spacing between adjacent center directions.

    alpha = arcsin(sinh(C) / sinh(R - C)), in (0, pi/2] for R > 2C.
    Strictly decreasing in R for fixed C.
    """
    if C <= 0.0:
        raise ValueError("packing_angle: C must be > 0")
    if R <= 2.0 * C:
        raise ValueError(f"packing_angle: need R > 2C (got R={R}, C={C})")
    log_ratio = float(_log_sinh(C) - _log_sinh(R - C))
    if log_ratio > 0.0:
        raise ValueError("packing_angle: sinh(C)/sinh(R-C) > 1")
    if log_ratio < -700.0:
        raise NumericRangeError(
            "packing_angle underflows; R - 2C is too large for double precision"
        )
    return math.asin(math.exp(log_ratio))


def direction_count(alpha: float) -> int:
    """Largest k with (k+1)*alpha <= pi in floating point; the family has k+1 directions.

    Bisection on that monotone predicate: stepping k by one would never end
    once k passes 2**53, where k+1 rounds back to k.
    """
    if not 0.0 < alpha <= 0.5 * math.pi + 1e-12:
        raise ValueError("direction_count: alpha must lie in (0, pi/2]")
    lo, hi = 0, 2 * int(math.pi / alpha) + 2  # (lo+1)*alpha <= pi < (hi+1)*alpha
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mid + 1) * alpha <= math.pi:
            lo = mid
        else:
            hi = mid
    return max(lo, 1)


def lag_distance(rho, alpha, lags):
    """Distance between centers at radius rho whose plane angles are 2*lag*alpha apart.

    Both centers sit at radius rho, so the pair is isosceles and the
    distance depends only on the index lag:
    dist_given_q(rho, rho, sin(|lag|*alpha)^2).  This is the one place an
    index lag and the packing angle become a distance.  Accepts arrays.
    """
    half = np.abs(np.asarray(lags, dtype=float)) * alpha
    return dist_given_q(rho, rho, np.sin(half) ** 2)


def min_lag_distance(rho, alpha, indices) -> float:
    """Exact minimum of :func:`lag_distance` over all pairs of `indices`.

    Every pairwise lag lies between the smallest gap of the sorted indices
    and their span, and sin^2(lag*alpha) rises and then falls, with no
    interior minimum, while lag*alpha stays in [0, pi].  The closest pair is
    therefore an adjacent pair or the first and last center, and those two
    lags certify all n(n-1)/2 pairs in O(n).  Index differences, the product
    with alpha and sin are all monotone in floating point, so the rule gives
    the same bits as a sweep over every pair.

    Raises
    ------
    ValueError
        If the span times alpha exceeds pi, where the rule no longer holds.
    """
    idx = np.sort(np.asarray(indices, dtype=float))
    if idx.size < 2:
        return math.inf
    lags = np.array([np.min(np.diff(idx)), idx[-1] - idx[0]])
    if lags[1] * alpha > math.pi:
        raise ValueError("min_lag_distance: index span times alpha exceeds pi")
    return float(np.min(lag_distance(rho, alpha, lags)))


@dataclass(frozen=True)
class PackingSpec:
    """Parameters of one packing: ball radius C inside B(center, R).

    The 2-plane carrying the centers is spanned by two unit tangent vectors
    at the center; by default the first two frame directions.
    """

    C: float
    R: float
    center: HPoint
    plane: tuple[HTangent, HTangent]

    def __post_init__(self):
        if self.R <= 2.0 * self.C or self.C <= 0.0:
            raise ValueError(f"PackingSpec: need R > 2C > 0 (got R={self.R}, C={self.C})")
        u, w = self.plane
        if abs(u.norm - 1.0) > 1e-12 or abs(w.norm - 1.0) > 1e-12:
            raise ValueError("PackingSpec: plane vectors must be unit")
        if abs(float(minkowski_inner(u.vec, w.vec))) > 1e-12:
            raise ValueError("PackingSpec: plane vectors must be orthogonal")

    @staticmethod
    def at_origin(C: float, R: float, m: int) -> "PackingSpec":
        if m < 2:
            raise ValueError(f"PackingSpec: m must be >= 2 (got {m})")
        center = HPoint.origin(m)
        e = np.eye(m + 1)
        return PackingSpec(C, R, center, (HTangent(center, e[1]), HTangent(center, e[2])))


@dataclass
class BallFamily:
    """Finite family of equal-radius balls with a certified min separation.

    ``alpha`` and ``indices`` record the generating angles: center j sits at
    plane angle 2*indices[j]*alpha.  They are what makes separation
    verification exact at large R, where stored unit directions can no
    longer resolve the angular gaps (the angle between adjacent directions
    falls below the eps-level quantization of the direction vectors).
    """

    centers: PolarBatch
    radius: float
    min_separation: float
    enclosing: tuple[HPoint, float] | None = None
    alpha: float | None = None
    indices: np.ndarray | None = None
    center_radius: float | None = None
    family_size_uncapped: float | None = None

    def __len__(self) -> int:
        return len(self.centers)


def generate_centers(spec: PackingSpec, cap: int = 100_000) -> BallFamily:
    """Build the 2-plane center family for `spec`.

    Emits centers exp_center((R-C) * v_j) for directions
    v_j = cos(2 j alpha) u + sin(2 j alpha) w, j = 0..k.  When k+1 exceeds
    `cap`, indices are subsampled evenly (which trivially preserves the 2C
    separation).
    """
    if cap < 2:
        raise ValueError("generate_centers: cap must be >= 2")
    alpha = packing_angle(spec.C, spec.R)
    k = direction_count(alpha)
    count = k + 1
    rho = spec.R - spec.C

    if count <= cap:
        idx = np.arange(count, dtype=float)
    else:
        idx = np.round(np.linspace(0.0, float(k), cap))
        idx = np.unique(idx)

    theta = 2.0 * idx * alpha
    u, w = spec.plane
    vecs = rho * (np.cos(theta)[:, None] * u.vec + np.sin(theta)[:, None] * w.vec)

    fam = BallFamily(
        centers=exp_rows(spec.center, vecs, np.full(idx.shape, rho)),
        radius=spec.C,
        min_separation=2.0 * spec.C,
        enclosing=(spec.center, spec.R),
        alpha=alpha,
        indices=idx,
        center_radius=rho,
        family_size_uncapped=float(count) if count <= _EXACT_COUNT_MAX else math.inf,
    )
    # construction-time spot check of the separation invariant
    if len(fam) <= 2048:
        rep = verify_packing(fam)
        if not rep.ok:
            raise AssertionError(f"generated family violates its invariants: {rep}")
    return fam


@dataclass(frozen=True)
class PackingReport:
    n_centers: int
    pairs_checked: int
    min_pairwise: float
    required_separation: float
    max_center_offset: float
    allowed_offset: float
    separation_ok: bool
    enclosure_ok: bool

    @property
    def ok(self) -> bool:
        return self.separation_ok and self.enclosure_ok


def _pairwise_min_block(radii: np.ndarray, dirs: np.ndarray, block: int = 256) -> float:
    """Min distance over all pairs of points given by polar radii and unit directions.

    Each block of rows is measured against every later column at numpy
    throughput; the O(n^2) sweep for families without generating angles.
    """
    n = len(radii)
    best = math.inf
    for b0 in range(0, n - 1, block):
        rows = np.arange(b0, min(b0 + block, n - 1))
        cols = np.arange(b0 + 1, n)
        q = _unit_gap_q(dirs[rows][:, None, :], dirs[cols][None, :, :])
        d = dist_given_q(radii[rows][:, None], radii[cols][None, :], q)
        best = min(best, float(np.min(np.where(cols[None, :] > rows[:, None], d, math.inf))))
    return best


def verify_packing(fam: BallFamily, tol: float = DEFAULT_TOL, enum_cap: int = 20_000) -> PackingReport:
    """Certify separation and enclosure of every center pair.

    A family that carries its generating angles is certified exactly by
    :func:`min_lag_distance`: the smallest and the largest index lag bound
    every pair, so the check costs O(n).  A hand-built family without
    ``alpha``/``indices`` falls back to the O(n^2) sweep over stored
    directions, which refuses more than `enum_cap` centers.  Either way
    the report covers all n(n-1)/2 pairs.  Enclosure is one vectorized
    kernel call from the enclosing center.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"verify_packing: tolerance must be finite and >= 0 (got {tol})")
    n = len(fam)
    radii, dirs = fam.centers.r, fam.centers.dirs
    min_pairwise = math.inf
    if fam.alpha is not None and fam.indices is not None:
        min_pairwise = min_lag_distance(fam.center_radius, fam.alpha, fam.indices)
    elif n > enum_cap:
        raise ValueError(f"verify_packing: {n} centers exceeds enumeration cap {enum_cap}")
    elif n >= 2:
        min_pairwise = _pairwise_min_block(radii, dirs)

    max_offset = 0.0
    allowed = math.inf
    if fam.enclosing is not None:
        enc_center, enc_radius = fam.enclosing
        allowed = enc_radius - fam.radius
        offsets = dist_given_q(enc_center.r, radii, _unit_gap_q(enc_center.direction, dirs))
        max_offset = float(np.max(offsets))

    return PackingReport(
        n_centers=n,
        pairs_checked=n * (n - 1) // 2,
        min_pairwise=min_pairwise,
        required_separation=fam.min_separation,
        max_center_offset=max_offset,
        allowed_offset=allowed,
        separation_ok=(n < 2) or (min_pairwise >= fam.min_separation - tol),
        enclosure_ok=(fam.enclosing is None) or (max_offset <= allowed + tol),
    )


def count_lower_bound(C: float, R: float) -> float:
    """Analytic lower bound (1/2)(sin a / a)(pi / sinh C) sinh(R - C).

    Always <= k+1 for the constructed family (the bound equals pi/(2 alpha)
    after substituting sin(alpha), and k+1 > pi/alpha - 1 >= pi/(2 alpha)).
    """
    alpha = packing_angle(C, R)
    log_val = (
        math.log(0.5)
        + math.log(math.sin(alpha) / alpha)
        + math.log(math.pi)
        - float(_log_sinh(C))
        + float(_log_sinh(R - C))
    )
    if log_val > 709.0:
        return math.inf
    return math.exp(log_val)


@dataclass(frozen=True)
class GrowthRow:
    R: float
    alpha: float
    family_size: float
    lower_bound: float
    ratio: float | None


def growth_table(C: float, R_values) -> list[GrowthRow]:
    """Family size and lower bound along an R schedule, with successive ratios."""
    rows: list[GrowthRow] = []
    prev_size: float | None = None
    for R in R_values:
        alpha = packing_angle(C, R)
        size = float(direction_count(alpha) + 1)
        bound = count_lower_bound(C, R)
        ratio = None if prev_size is None else size / prev_size
        rows.append(GrowthRow(R=float(R), alpha=alpha, family_size=size, lower_bound=bound, ratio=ratio))
        prev_size = size
    return rows


def growth_table_csv(rows: list[GrowthRow]) -> str:
    lines = ["R,alpha,family_size,lower_bound,ratio"]
    for row in rows:
        size = f"{int(row.family_size)}" if row.family_size <= _EXACT_COUNT_MAX else repr(row.family_size)
        ratio = "" if row.ratio is None else repr(row.ratio)
        lines.append(f"{row.R!r},{row.alpha!r},{size},{row.lower_bound!r},{ratio}")
    return "\n".join(lines) + "\n"
