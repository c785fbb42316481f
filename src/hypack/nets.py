"""Reference delta-nets of geodesic balls, transported to any basepoint.

A net is built once in tangent coordinates at the reference basepoint and
moved elsewhere by the frame-transport isometry, so its size l depends only
on (rho, delta, m).  Transport is batched: the nets around N basepoints are
one PolarBatch of N*l rows, basepoint-major, made by one call of the row exp
kernel.  Coverage is sound by construction: greedy insertion runs until the
tangent covering radius is below delta' = delta*rho/sinh(rho), and the
exponential map stretches tangent lengths by at most sinh(rho)/rho on the
ball.

The greedy is Gonzalez's farthest-point clustering over a lattice of
candidates, made local: a new net point x, picked at squared distance dmax
from the net so far, can only lower the squared distance of candidates
closer than sqrt(dmax) to it, so each pick updates the lattice box around x
that holds them, and per-line maxima give the next farthest candidate
without a full scan.  The net is bit-identical to full passes over the grid
(the test suite keeps that greedy as an oracle).  The lattice size is
bounded by GRID_POINTS_MAX before the grid is allocated.
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
    "GRID_POINTS_MAX",
    "CoverReport",
    "NetTemplate",
    "build_reference_net",
    "check_net_grid",
    "transport_net",
    "verify_cover",
]

#: Fraction of the tangent spacing budget handed to the candidate grid; the
#: greedy stop threshold keeps the remainder.
_GRID_FRACTION = 0.15

#: Most lattice points a candidate grid may span; search --m 3 at the
#: default (r, eps) spans about 0.9 million.
GRID_POINTS_MAX = 4_000_000

#: Widening of the greedy's update window, in units of rho.  For every m the
#: grid limit admits (m <= 13), the squared distances carry rounding errors
#: below 1e-14 rho^2 and the window bounds a few ulps of rho, so a candidate
#: whose value can still drop lies within sqrt(dmax) + 1e-7 rho of the pick.
_REACH_SLACK = 1e-6


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


def _grid_side(rho: float, h: float, m: int) -> int:
    """Cells n_side on each side of the center of the lattice of step h that
    covers the rho-ball: the lattice has (2 n_side + 1)^m points.  ValueError
    where that exceeds GRID_POINTS_MAX; nothing is allocated."""
    cells = (rho + 0.5 * h * math.sqrt(m)) / h if h > 0.0 else math.inf
    if not cells < GRID_POINTS_MAX or (2 * math.ceil(cells) + 1) ** m > GRID_POINTS_MAX:
        exponent = m * math.log10(2.0 * cells + 1.0)
        size = f"about 10^{exponent:.1f}" if math.isfinite(exponent) else "over 10^308"
        raise ValueError(
            f"build_reference_net: the candidate grid would span {size} lattice points,"
            f" more than the limit of {GRID_POINTS_MAX:,}; raise delta or lower rho or m"
        )
    return math.ceil(cells)


def _grid_step(rho: float, delta: float, m: int) -> tuple[float, float]:
    """(h, stop) of build_reference_net: the candidate grid's step and the
    greedy's stop distance, which split the tangent spacing delta rho/sinh(rho)."""
    try:
        spacing = delta * rho / math.sinh(rho)
    except OverflowError:  # rho past about 710: no grid fits, _grid_side refuses h = 0
        spacing = 0.0
    return 2.0 * _GRID_FRACTION * spacing / math.sqrt(m), (1.0 - _GRID_FRACTION) * spacing


def check_net_grid(rho: float, delta: float, m: int) -> None:
    """Refuse, before any allocation, the arguments of a build_reference_net
    call whose candidate grid would exceed GRID_POINTS_MAX (ValueError)."""
    if delta < rho:
        _grid_side(rho, _grid_step(rho, delta, m)[0], m)


def _candidate_grid(rho: float, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center lattice covering the rho-ball, centers projected into it.

    Returns the points as an array of shape (2n+1,)*m + (m,) in lattice
    order, and the mask of the cells kept (centers within half a cell
    diagonal of the ball).  The lattice size is checked against
    GRID_POINTS_MAX (:func:`_grid_side`) before anything is allocated.
    """
    n_side = _grid_side(rho, h, m)
    half_diag = 0.5 * h * math.sqrt(m)
    axis = h * np.arange(-n_side, n_side + 1)
    grid = np.empty((2 * n_side + 1,) * m + (m,))
    for k in range(m):
        grid[..., k] = axis.reshape((-1,) + (1,) * (m - 1 - k))
    pts = grid.reshape(-1, m)
    norms = np.linalg.norm(pts, axis=1)
    keep = norms <= rho + half_diag
    outside = keep & (norms > rho)
    pts[outside] *= (rho / norms[outside])[:, None]
    return grid, keep.reshape(grid.shape[:-1])


def _window(x: np.ndarray, dmax: float, rho: float, h: float, n_side: int) -> tuple:
    """Slices of the lattice cells whose candidates c can get a squared
    distance cnorm2 - 2 c.x + x.x to x below dmax.

    Those lie within sqrt(dmax) of x, up to rounding (_REACH_SLACK).  A
    cell's candidate is its center g*h or, for a projected boundary cell,
    the center pulled toward 0 by a factor between 1/stretch and 1; so a
    candidate in (a, b) along an axis has its center in (a, b) widened by
    `stretch` on the side away from 0.
    """
    reach = math.sqrt(dmax) + _REACH_SLACK * rho
    stretch = 1.0 + 0.5 * h * math.sqrt(len(x)) / rho
    box = []
    for xk in x:
        a, b = xk - reach, xk + reach
        a = a * stretch if a < 0.0 else a
        b = b * stretch if b > 0.0 else b
        box.append(slice(max(math.floor(a / h) + 1 + n_side, 0), max(math.ceil(b / h) + n_side, 0)))
    return tuple(box)


def build_reference_net(rho: float, delta: float, m: int) -> NetTemplate:
    """Greedy farthest-point net whose transported copies cover B(p, rho).

    Tangent spacing compensates the worst-case exp stretch sinh(rho)/rho;
    the candidate grid's half-diagonal eats _GRID_FRACTION of that budget
    so coverage of the full continuous ball is certified, not sampled.

    The greedy starts at the center cell and keeps d2, each candidate's
    squared distance to the net so far, on the whole lattice (-inf off the
    ball).  A pick x at d2 = dmax can only lower the d2 of candidates closer
    than sqrt(dmax) to x, so only the lattice box around x that holds them
    is updated, and each lattice line keeps its maximum so the next pick
    (the first maximum in lattice order) is read off the line maxima.  The
    net equals the one from full passes over the grid bit for bit.
    """
    if rho <= 0.0 or delta <= 0.0 or m < 1:
        raise ValueError("build_reference_net: need rho > 0, delta > 0, m >= 1")
    if delta >= rho:
        return NetTemplate(rho=rho, delta=delta, tangent_points=np.zeros((1, m)))

    h, stop = _grid_step(rho, delta, m)
    grid, keep = _candidate_grid(rho, h, m)
    side = keep.shape[0]
    pts = grid.reshape(-1, m)
    x = pts[len(pts) // 2]  # the center cell, at the origin
    chosen = [x.copy()]
    cnorm2 = np.sum(pts * pts, axis=1).reshape(keep.shape)
    d2 = (cnorm2.ravel() - 2.0 * (pts @ x) + x @ x).reshape(keep.shape)
    d2[~keep] = -np.inf
    lines = d2.reshape(-1, side)
    line_max = lines.max(axis=1)
    stop2 = stop * stop
    while True:
        line = int(np.argmax(line_max))
        far = int(np.argmax(lines[line]))
        dmax = lines[line, far]
        if dmax <= stop2:
            break
        x = pts[line * side + far]
        chosen.append(x.copy())
        box = _window(x, dmax, rho, h, side // 2)
        near = grid[box]
        dots = (near.reshape(-1, m) @ x).reshape(near.shape[:-1])
        np.minimum(d2[box], cnorm2[box] - 2.0 * dots + x @ x, out=d2[box])
        line_max.reshape(keep.shape[:-1])[box[:-1]] = d2[box[:-1]].max(axis=-1)
    return NetTemplate(rho=rho, delta=delta, tangent_points=np.asarray(chosen))


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

