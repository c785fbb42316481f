"""Explicit geodesic-ball packings inside B(o, R) with certified 2C separation.

H^m is homogeneous, so one family serves every basepoint: k+1 centers on a
2-plane through o, at distance R-C along directions spaced by twice the
packing angle alpha, with sin(alpha) = sinh(C)/sinh(R-C).  Adjacent
centers are then exactly 2C apart and the family size grows like
sinh(R-C), which is the exponential lower bound on the packing number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypack.geometry import (
    DEFAULT_TOL,
    HPoint,
    NumericRangeError,
    PolarBatch,
    _log_sinh,
    _row_blocks,
    check_dimension,
    dist_given_q,
    distance,
    exp_rows,
)

__all__ = [
    "CAP_MAX",
    "BallFamily",
    "GrowthRow",
    "PackingReport",
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

#: Most centers generate_centers emits; a larger cap is refused before any
#: index array is allocated.
CAP_MAX = 1_000_000

#: Largest rounding of an index-lag angle lag * alpha, relative to alpha, that
#: generate_centers accepts.  The rounding is at most half an ulp of pi and
#: moves the wrap-around gap pi - k * alpha, which is about alpha, by that
#: much; a lag distance then moves by up to twice the ratio.  Past about
#: R - 2C = 22 (at C = 1) the double predicates no longer describe the family
#: of exact angles 2 * j * alpha.
_LAG_ROUNDING_MAX = 1e-6


def packing_angle(C: float, R: float) -> float:
    """Half the angular spacing between adjacent center directions.

    alpha = arcsin(sinh(C) / sinh(R - C)), in (0, pi/2] for R > 2C.
    Strictly decreasing in R for fixed C.
    """
    if not C > 0.0:
        raise ValueError(f"packing_angle: C must be > 0 (got C={C})")
    if not R > 2.0 * C:
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
class BallFamily:
    """The 2-plane family of radius-C balls inside B(o, R).

    Center j sits at radius R - C in the plane of the first two tangent
    directions at o, at plane angle 2 * indices[j] * alpha.  The generating
    angles are what makes separation verification exact at large R, where
    stored unit directions can no longer resolve the angular gaps (the angle
    between adjacent directions falls below the eps-level quantization of
    the direction vectors).
    """

    centers: PolarBatch
    C: float
    R: float
    alpha: float
    indices: np.ndarray
    family_size_uncapped: float

    @property
    def center_radius(self) -> float:
        return self.R - self.C

    def __len__(self) -> int:
        return len(self.centers)


def generate_centers(C: float, R: float, m: int, cap: int = 100_000) -> BallFamily:
    """Build the 2-plane family of radius-C balls inside B(o, R) in H^m.

    Emits centers exp_o((R-C) * v_j) for directions
    v_j = cos(2 j alpha) e_1 + sin(2 j alpha) e_2, j = 0..k.  When k+1
    exceeds `cap`, indices are subsampled evenly (which trivially preserves
    the 2C separation).  The rows are made in blocks of
    :func:`hypack.geometry._row_blocks`, m+1 elements a row.

    Raises
    ------
    ValueError
        If m lies outside [2, M_MAX] or `cap` outside [2, CAP_MAX].
    NumericRangeError
        If half an ulp of pi exceeds _LAG_ROUNDING_MAX * alpha: the rounded
        products j * alpha that count and certify the family could then
        pass a pair that is closer than 2C at the exact angles.
    """
    check_dimension(m)
    if not 2 <= cap <= CAP_MAX:
        raise ValueError(f"generate_centers: cap must lie in [2, {CAP_MAX:,}] (got {cap})")
    alpha = packing_angle(C, R)
    if 0.5 * math.ulp(math.pi) > _LAG_ROUNDING_MAX * alpha:
        raise NumericRangeError(
            f"generate_centers: packing angle {alpha:.3g} is too small for double precision "
            f"(R - 2C = {R - 2.0 * C:.6g}); index-lag angles round by more than "
            f"{_LAG_ROUNDING_MAX:g} of it"
        )
    k = direction_count(alpha)
    count = k + 1
    rho = R - C

    if count <= cap:
        idx = np.arange(count, dtype=float)
    else:
        idx = np.round(np.linspace(0.0, float(k), cap))
        # rounding keeps the order, so repeats are adjacent; np.unique would
        # load numpy.ma (about 14 ms) on its first call, inside the run
        idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]

    # exp_rows gives every row the bits of a one-row call, so the rows can be
    # made in blocks, which bounds its temporaries
    n = len(idx)
    r, dirs, coords = np.empty(n), np.empty((n, m)), np.empty((n, m + 1))
    origin = HPoint.origin(m)
    for part in _row_blocks(n, m + 1):
        theta = 2.0 * idx[part] * alpha
        vecs = np.zeros((len(theta), m + 1))
        vecs[:, 1] = rho * np.cos(theta)
        vecs[:, 2] = rho * np.sin(theta)
        rows = exp_rows(origin, vecs, rho)
        r[part], dirs[part], coords[part] = rows.r, rows.dirs, rows.coords

    fam = BallFamily(
        centers=PolarBatch(r, dirs, coords),
        C=C,
        R=R,
        alpha=alpha,
        indices=idx,
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
    pairs_checked: int
    min_pairwise: float
    max_center_offset: float
    separation_ok: bool
    enclosure_ok: bool

    @property
    def ok(self) -> bool:
        return self.separation_ok and self.enclosure_ok


def verify_packing(fam: BallFamily) -> PackingReport:
    """Certify separation and enclosure of every center pair.

    Separation is certified exactly by :func:`min_lag_distance`: the
    smallest and the largest index lag bound every pair, so the check costs
    O(n) and covers all n(n-1)/2 pairs.  Enclosure is one vectorized kernel
    call from o.  Both allow the slack DEFAULT_TOL.
    """
    n = len(fam)
    min_pairwise = min_lag_distance(fam.center_radius, fam.alpha, fam.indices)
    max_offset = float(np.max(distance(HPoint.origin(fam.centers.dirs.shape[1]), fam.centers)))
    return PackingReport(
        pairs_checked=n * (n - 1) // 2,
        min_pairwise=min_pairwise,
        max_center_offset=max_offset,
        separation_ok=min_pairwise >= 2.0 * fam.C - DEFAULT_TOL,
        enclosure_ok=max_offset <= fam.center_radius + DEFAULT_TOL,
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


#: Rows growth_table_csv writes per piece.
_CSV_ROWS = 4096


def growth_table_csv(rows: list[GrowthRow]):
    """Yield the CSV text of the rows in pieces: the header line, then one
    piece per _CSV_ROWS rows."""
    yield "R,alpha,family_size,lower_bound,ratio\n"
    for lo in range(0, len(rows), _CSV_ROWS):
        lines = []
        for row in rows[lo : lo + _CSV_ROWS]:
            size = f"{int(row.family_size)}" if row.family_size <= _EXACT_COUNT_MAX else repr(row.family_size)
            ratio = "" if row.ratio is None else repr(row.ratio)
            lines.append(f"{row.R!r},{row.alpha!r},{size},{row.lower_bound!r},{ratio}\n")
        yield "".join(lines)
