"""Reference delta-nets of geodesic balls, transported to any basepoint.

A net is built once in tangent coordinates at the reference basepoint and
moved elsewhere by the frame-transport isometry, so its size l depends only
on (rho, delta, m).  Transport is batched: the nets around N basepoints are
one PolarBatch of N*l rows, basepoint-major, made by one call of the row exp
kernel.

The net is the cubic lattice h Z^m in closed form.  With the tangent
spacing s = delta*rho/sinh(rho) and the step h = 2s/sqrt(m), the lattice's
covering radius h sqrt(m)/2 is s.  The points g with |g| <= rho + s are
kept, and those outside the rho-ball are projected radially onto its
sphere.  A point x of the ball has a lattice point within s, which is kept;
the nearest-point map onto the convex ball fixes x and moves no point
further from it; and exp stretches tangent lengths by at most
sinh(rho)/rho on the ball, so the transported net covers B(p, rho) at
radius delta.  Every kept point's cell [g - h/2, g + h/2]^m lies in the
ball of radius rho + 2s, so l <= vol B_m(rho + 2s) / h^m; that bound is
checked against NET_POINTS_MAX before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypack.geometry import (
    HPoint,
    PolarBatch,
    distance,
    exp_rows,
    sample_ball,
    transport_frame,
)

__all__ = [
    "NET_POINTS_MAX",
    "CoverReport",
    "NetTemplate",
    "build_reference_net",
    "check_net_size",
    "transport_net",
    "verify_cover",
]

#: Most points a reference net may hold, by its closed-form size bound; the
#: largest net the search builds at the default (r, eps), Busemann m = 3,
#: has a bound of 2,838.
NET_POINTS_MAX = 4_096


@dataclass(frozen=True)
class NetTemplate:
    """delta-net of the radius-rho ball, in exponential coordinates.

    Attributes
    ----------
    rho, delta : float
        Ball radius and cover radius.
    tangent_points : ndarray, shape (l, m)
        Net points in tangent coordinates at the reference basepoint; all
        within Euclidean norm rho.
    """

    rho: float
    delta: float
    tangent_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.tangent_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("NetTemplate: need at least one tangent point")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms > self.rho + 1e-9):
            raise ValueError("NetTemplate: tangent points must lie in the rho-ball")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "tangent_points", pts)

    @property
    def l(self) -> int:
        return self.tangent_points.shape[0]

    @property
    def m(self) -> int:
        return self.tangent_points.shape[1]


def _lattice_step(rho: float, delta: float, m: int) -> tuple[float, float]:
    """(spacing, h) of the lattice net: the tangent spacing delta rho/sinh(rho)
    and the largest step h whose covering radius h sqrt(m)/2 is at most the
    spacing in floats.  Both are 0 where sinh(rho) overflows."""
    try:
        spacing = delta * rho / math.sinh(rho)
    except OverflowError:  # rho past about 710: check_net_size refuses h = 0
        return 0.0, 0.0
    h = 2.0 * spacing / math.sqrt(m)
    while h * math.sqrt(m) / 2.0 > spacing:
        h = math.nextafter(h, 0.0)
    return spacing, h


def check_net_size(rho: float, delta: float, m: int) -> None:
    """Refuse, before any allocation, the arguments of a build_reference_net
    call whose size bound vol B_m(rho + 2 spacing) / h^m exceeds
    NET_POINTS_MAX (ValueError).  The bound is taken in log domain."""
    if delta >= rho:
        return
    spacing, h = _lattice_step(rho, delta, m)
    ratio = (rho + 2.0 * spacing) / h if h > 0.0 else math.inf
    log_bound = 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0) + m * math.log(ratio)
    if log_bound > math.log(NET_POINTS_MAX):
        exponent = log_bound / math.log(10.0)
        size = f"about 10^{exponent:.1f}" if exponent < 308 else "over 10^308"
        raise ValueError(
            f"build_reference_net: the net's size bound is {size} lattice points,"
            f" more than the limit of {NET_POINTS_MAX:,}; raise delta or lower rho or m"
        )


def build_reference_net(rho: float, delta: float, m: int) -> NetTemplate:
    """Lattice net whose transported copies cover B(p, rho) at radius delta.

    The points of h Z^m (h from the tangent spacing, see the module notes)
    within rho + spacing of the origin, those outside the rho-ball projected
    radially onto it.  The lattice is enumerated one coordinate at a time,
    each prefix extended by the values that keep its squared norm within
    the limit, so no set is larger than the net and the (2n+1)^m box is
    never formed.  Values run 0, 1, -1, 2, -2, ..., so the origin is row 0.
    The size bound is checked first (:func:`check_net_size`).
    """
    if rho <= 0.0 or delta <= 0.0 or m < 1:
        raise ValueError("build_reference_net: need rho > 0, delta > 0, m >= 1")
    if delta >= rho:
        return NetTemplate(rho=rho, delta=delta, tangent_points=np.zeros((1, m)))

    check_net_size(rho, delta, m)
    spacing, h = _lattice_step(rho, delta, m)
    limit = ((rho + spacing) / h) ** 2
    n = math.isqrt(math.floor(limit))
    steps = np.arange(1, n + 1)
    values = np.concatenate([[0], np.column_stack([steps, -steps]).ravel()])
    g = np.zeros((1, 0), dtype=np.int64)
    norm2 = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        sums = norm2[:, None] + values * values
        rows, cols = np.nonzero(sums <= limit)
        g = np.column_stack([g[rows], values[cols]])
        norm2 = sums[rows, cols]
    pts = h * g
    norms = np.linalg.norm(pts, axis=1)
    outside = norms > rho
    pts[outside] *= (rho / norms[outside])[:, None]
    return NetTemplate(rho=rho, delta=delta, tangent_points=pts)


def transport_net(tmpl: NetTemplate, points: PolarBatch) -> PolarBatch:
    """Net points sigma_1(p), ..., sigma_l(p) around every row p of `points`.

    Returns the N*l rows basepoint-major: rows [i*l, (i+1)*l) are the net
    around points[i].  Realized as exp_p of the frame transport of the
    template's tangent coordinates, i.e. the transvection image of the
    reference net, with whole-array operations: the N frames at once, the
    template times each frame, and one exp_rows call that takes libm
    cosh/sinh of the l template norms once for all basepoints.  Every row has
    the bits of transporting the net to its basepoint alone.
    """
    if points.dirs.shape[1] != tmpl.m:
        raise ValueError("transport_net: dimension mismatch")
    # (l, m) @ (N, m, m+1): one (l, m) @ (m, m+1) product per basepoint
    vecs = tmpl.tangent_points @ transport_frame(points)
    norms = np.linalg.norm(tmpl.tangent_points, axis=1)  # frames are isometric
    return exp_rows(points, vecs, norms)


@dataclass(frozen=True)
class CoverReport:
    covered_fraction: float
    max_gap: float
    max_radial: float
    rho: float

    @property
    def ok(self) -> bool:
        return self.covered_fraction == 1.0 and self.max_radial <= self.rho + 1e-9


#: Samples verify_cover measures against the net per step; bounds the
#: memory of its sample-by-net matrices.
_COVER_CHUNK = 4096


def verify_cover(
    tmpl: NetTemplate,
    p: HPoint,
    samples: int = 100_000,
    seed: int = 0,
) -> CoverReport:
    """Monte-Carlo check that B(p, rho) is covered by delta-balls at the net.

    Draws volume-corrected samples in exponential coordinates at p and
    measures hyperbolic distances to the transported net points.  Distances
    are evaluated in the tangent frame at p via the law-of-cosines kernel:
    the frame transport is a linear isometry, so this equals the ambient
    computation exactly while staying immune to the eps*sinh(r) position
    resolution loss at far basepoints.

    The transported net itself is still constructed (exercising the
    large-radius representation path), and its radial placement is checked.
    """
    if samples < 1:
        raise ValueError("verify_cover: samples must be >= 1")
    sigma = transport_net(tmpl, PolarBatch.of([p]))
    # Lemma "i)" check: net points stay inside B(p, rho).  Radial distances
    # equal the template norms by the radial isometry of exp; at moderate
    # radius the ambient distance oracle must agree.
    norms = np.linalg.norm(tmpl.tangent_points, axis=1)
    max_radial = float(norms.max())
    if p.r <= 12.0:
        ambient = float(np.max(distance(p, sigma)))
        if abs(ambient - max_radial) > 1e-9:
            raise AssertionError(
                f"transported net radial mismatch: {ambient} vs {max_radial}"
            )

    # Comparisons run in the cosh domain: cosh(d) - 1 is monotone in d and
    # costs only products of precomputed cosh/sinh factors per pair, so the
    # big sample-by-net matrix never sees a transcendental.
    cosh_n = np.cosh(norms)
    sinh_n = np.sinh(norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(norms > 0, sinh_n / norms, 0.0)
    u_thresh = math.cosh(tmpl.delta) - 1.0

    rng = np.random.default_rng(seed)
    X = sample_ball(tmpl.m, tmpl.rho, samples, rng)
    covered = 0
    worst_u = 0.0
    for lo in range(0, samples, _COVER_CHUNK):
        xs = X[lo : lo + _COVER_CHUNK]
        xr = np.linalg.norm(xs, axis=1)
        dots = xs @ tmpl.tangent_points.T  # |x| |n_j| cos(angle)
        u = np.cosh(xr)[:, None] * cosh_n[None, :] - 1.0
        pos = xr > 0
        scale = np.zeros_like(xr)
        scale[pos] = np.sinh(xr[pos]) / xr[pos]
        u -= (scale[:, None] * dots) * ratio[None, :]
        nearest = u.min(axis=1)
        covered += int(np.count_nonzero(nearest <= u_thresh + 1e-12))
        worst_u = max(worst_u, float(nearest.max()))
    max_gap = float(math.acosh(1.0 + max(worst_u, 0.0)))
    return CoverReport(
        covered_fraction=covered / samples,
        max_gap=max_gap,
        max_radial=max_radial,
        rho=tmpl.rho,
    )

