"""Reference delta-nets of geodesic balls, transported to any basepoint.

A net is built once in tangent coordinates at the reference basepoint and
moved elsewhere by the frame-transport isometry, so its size l depends only
on (rho, delta, m); a transported net is a PolarBatch of l rows, made by one
call of the row exp kernel.  Coverage is sound by construction: greedy
insertion runs until the tangent covering radius is below
delta' = delta*rho/sinh(rho), and the exponential map stretches tangent
lengths by at most sinh(rho)/rho on the ball.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from hypack.geometry import (
    HPoint,
    PolarBatch,
    _unit_gap_q,
    dist_given_q,
    exp_rows,
    sample_ball,
    transport_frame,
)

__all__ = [
    "CoverReport",
    "NetTemplate",
    "build_reference_net",
    "net_from_json",
    "net_to_json",
    "transport_net",
    "verify_cover",
]

#: Fraction of the tangent spacing budget handed to the candidate grid; the
#: greedy stop threshold keeps the remainder.
_GRID_FRACTION = 0.15


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


def _candidate_grid(rho: float, h: float, m: int) -> np.ndarray:
    """Cell-center grid covering the rho-ball, centers projected into it."""
    half_diag = 0.5 * h * math.sqrt(m)
    n_side = int(math.ceil((rho + half_diag) / h))
    axis = h * np.arange(-n_side, n_side + 1)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    keep = norms <= rho + half_diag
    pts, norms = pts[keep], norms[keep]
    outside = norms > rho
    pts[outside] *= (rho / norms[outside])[:, None]
    return pts


def build_reference_net(rho: float, delta: float, m: int) -> NetTemplate:
    """Greedy farthest-point net whose transported copies cover B(p, rho).

    Tangent spacing compensates the worst-case exp stretch sinh(rho)/rho;
    the candidate grid's half-diagonal eats _GRID_FRACTION of that budget
    so coverage of the full continuous ball is certified, not sampled.
    """
    if rho <= 0.0 or delta <= 0.0 or m < 1:
        raise ValueError("build_reference_net: need rho > 0, delta > 0, m >= 1")
    if delta >= rho:
        return NetTemplate(rho=rho, delta=delta, tangent_points=np.zeros((1, m)))

    spacing = delta * rho / math.sinh(rho)
    h = 2.0 * _GRID_FRACTION * spacing / math.sqrt(m)
    stop = (1.0 - _GRID_FRACTION) * spacing

    cand = _candidate_grid(rho, h, m)
    start = int(np.argmin(np.linalg.norm(cand, axis=1)))
    chosen = [cand[start].copy()]
    cnorm2 = np.sum(cand * cand, axis=1)
    x = cand[start]
    d2 = cnorm2 - 2.0 * (cand @ x) + x @ x
    stop2 = stop * stop
    while True:
        far = int(np.argmax(d2))
        if d2[far] <= stop2:
            break
        x = cand[far]
        chosen.append(x.copy())
        np.minimum(d2, cnorm2 - 2.0 * (cand @ x) + x @ x, out=d2)
        # candidates already covered can neither win argmax nor matter
        if d2.size > 4096:
            alive = d2 > stop2
            if np.count_nonzero(alive) < 0.7 * d2.size:
                cand, cnorm2, d2 = cand[alive], cnorm2[alive], d2[alive]
                if d2.size == 0:
                    break
    return NetTemplate(rho=rho, delta=delta, tangent_points=np.asarray(chosen))


def transport_net(tmpl: NetTemplate, p: HPoint) -> PolarBatch:
    """Net points sigma_1(p), ..., sigma_l(p) around basepoint p, as l rows.

    Realized as exp_p applied to the frame transport of the template's
    tangent coordinates, i.e. the transvection image of the reference net.
    """
    if p.dim != tmpl.m:
        raise ValueError("transport_net: dimension mismatch")
    frame = transport_frame(p)  # (m, m+1)
    vecs = tmpl.tangent_points @ frame
    norms = np.linalg.norm(tmpl.tangent_points, axis=1)  # frame is isometric
    return exp_rows(p, vecs, norms)


@dataclass(frozen=True)
class CoverReport:
    l: int
    samples: int
    covered_fraction: float
    max_gap: float
    delta: float
    max_radial: float
    rho: float

    @property
    def ok(self) -> bool:
        return self.covered_fraction == 1.0 and self.max_radial <= self.rho + 1e-9


def verify_cover(
    tmpl: NetTemplate,
    p: HPoint,
    samples: int = 100_000,
    seed: int = 0,
    chunk: int = 4096,
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
    sigma = transport_net(tmpl, p)
    # Lemma "i)" check: net points stay inside B(p, rho).  Radial distances
    # equal the template norms by the radial isometry of exp; at moderate
    # radius the ambient distance oracle must agree.
    norms = np.linalg.norm(tmpl.tangent_points, axis=1)
    max_radial = float(norms.max())
    if p.r <= 12.0:
        ambient = float(np.max(dist_given_q(p.r, sigma.r, _unit_gap_q(p.direction, sigma.dirs))))
        if abs(ambient - max_radial) > 1e-9:
            raise AssertionError(
                f"transported net radial mismatch: {ambient} vs {max_radial}"
            )

    # Comparisons run in the cosh domain: cosh(d) - 1 is monotone in d and
    # costs only products of precomputed cosh/sinh factors per pair, so the
    # big sample-by-net matrix never sees a transcendental.
    cosh_n = np.cosh(norms)
    sinh_n = np.sinh(norms)
    u_thresh = math.cosh(tmpl.delta) - 1.0

    rng = np.random.default_rng(seed)
    X = sample_ball(tmpl.m, tmpl.rho, samples, rng)
    covered = 0
    worst_u = 0.0
    for lo in range(0, samples, chunk):
        xs = X[lo : lo + chunk]
        xr = np.linalg.norm(xs, axis=1)
        dots = xs @ tmpl.tangent_points.T  # |x| |n_j| cos(angle)
        u = np.cosh(xr)[:, None] * cosh_n[None, :] - 1.0
        pos = xr > 0
        scale = np.zeros_like(xr)
        scale[pos] = np.sinh(xr[pos]) / xr[pos]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(norms > 0, sinh_n / norms, 0.0)
        u -= (scale[:, None] * dots) * ratio[None, :]
        nearest = u.min(axis=1)
        covered += int(np.count_nonzero(nearest <= u_thresh + 1e-12))
        worst_u = max(worst_u, float(nearest.max()))
    max_gap = float(math.acosh(1.0 + max(worst_u, 0.0)))
    return CoverReport(
        l=tmpl.l,
        samples=samples,
        covered_fraction=covered / samples,
        max_gap=max_gap,
        delta=tmpl.delta,
        max_radial=max_radial,
        rho=tmpl.rho,
    )


def net_to_json(tmpl: NetTemplate) -> str:
    payload = {
        "rho": tmpl.rho,
        "delta": tmpl.delta,
        "m": tmpl.m,
        "points": tmpl.tangent_points.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def net_from_json(text: str) -> NetTemplate:
    payload = json.loads(text)
    pts = np.asarray(payload["points"], dtype=float)
    if pts.shape[1] != payload["m"]:
        raise ValueError("net_from_json: point dimension disagrees with m")
    return NetTemplate(rho=float(payload["rho"]), delta=float(payload["delta"]), tangent_points=pts)
