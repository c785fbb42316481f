"""Evaluable Lipschitz maps H^m -> R^n with certified constants.

Testbed maps for the compression search: the Poincare-ball chart (Lipschitz
constant 1/2) and Busemann coordinate maps (1-Lipschitz per coordinate),
each one vectorized function of a PolarBatch.  Any other map, a Euclidean
post-composition of these included, is a LipschitzMapHandle of its own
function and declared constant.  Also the flat-graph surface demo showing a
proper embedding that is not strongly proper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypack.geometry import PolarBatch, _tanh

__all__ = [
    "FLAT_GRAPH_K_MAX",
    "FlatGraphRow",
    "LipschitzMapHandle",
    "busemann_map",
    "flat_graph_example",
    "ideal_point",
    "poincare_inclusion",
]


@dataclass(frozen=True)
class LipschitzMapHandle:
    """A map H^m -> R^n with a declared Lipschitz constant.

    ``fn(points) -> (N, n)`` maps the rows of a PolarBatch, reading
    ``points.r`` and ``points.dirs`` (``transport_net`` reads the ambient
    ``points.coords`` of the basepoints it moves a net to).  ``fn`` must be
    pure and reentrant; handles are immutable and safe to share.  The
    declared L is an upper bound that sampled difference quotients are
    tested against.
    """

    fn: Callable[[PolarBatch], np.ndarray]
    L: float
    n: int
    m: int
    label: str

    def batch(self, points: PolarBatch) -> np.ndarray:
        """Images of all rows of `points`, shape (N, n)."""
        out = np.asarray(self.fn(points), dtype=float)
        if out.shape != (len(points), self.n):
            raise ValueError(f"{self.label}: expected output of shape ({len(points)}, {self.n})")
        return out


def poincare_inclusion(m: int) -> LipschitzMapHandle:
    """Poincare-ball coordinates of a hyperboloid point, as a map to R^m.

    In polar form the chart is tanh(r/2) * direction, which stays exact at
    any radius.  The conformal factor (1-|z|^2)/2 <= 1/2 makes it
    1/2-Lipschitz, with the bound attained at the origin.
    """
    if m < 2:
        raise ValueError("poincare_inclusion: m must be >= 2")

    def fn(pts: PolarBatch) -> np.ndarray:
        # tanh saturates to 1.0 in doubles near r ~ 38; round inward so the
        # image stays in the open ball (the shift is far below the
        # positional resolution eps*sinh(r) at such radii)
        t = np.minimum(_tanh(0.5 * pts.r), 1.0 - 1e-15)
        return t[:, None] * pts.dirs

    return LipschitzMapHandle(fn=fn, L=0.5, n=m, m=m, label="poincare")


def ideal_point(direction) -> np.ndarray:
    """Future-null vector (1, u) for a unit direction u."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ValueError("ideal_point: direction must be nonzero")
    return np.concatenate(([1.0], d / n))


def busemann_map(ideal_points) -> LipschitzMapHandle:
    """Coordinates b_i(x) = log(-<x, xi_i>_M) for future-null xi_i.

    Each coordinate is a Busemann function, 1-Lipschitz, normalized to
    vanish at o by scaling xi so that xi_0 = 1.  Along the ray toward xi
    the value is exactly -t.  Evaluation is done in log-domain from polar
    data so it works at any radius.
    """
    etas = []
    m = None
    for xi in ideal_points:
        xi = np.asarray(xi, dtype=float)
        if xi[0] <= 0.0:
            raise ValueError("busemann_map: ideal point must have xi_0 > 0")
        xi = xi / xi[0]
        eta = xi[1:]
        if abs(eta @ eta - 1.0) > 1e-12:
            raise ValueError("busemann_map: ideal point is not null within 1e-12")
        eta = eta / np.linalg.norm(eta)
        if m is None:
            m = eta.shape[0]
        elif eta.shape[0] != m:
            raise ValueError("busemann_map: mixed dimensions")
        etas.append(eta)
    if not etas:
        raise ValueError("busemann_map: need at least one ideal point")
    E = np.array(etas)
    n = E.shape[0]

    def fn(pts: PolarBatch) -> np.ndarray:
        # log(cosh r - sinh r * c) = logaddexp(r + log((1-c)/2), -r + log((1+c)/2));
        # E @ d per row, stacked, rounds like the one-point matrix-vector product
        c = np.clip((E @ pts.dirs[:, :, None])[:, :, 0], -1.0, 1.0)
        r = pts.r[:, None]
        with np.errstate(divide="ignore"):
            a = r + np.log(0.5 * (1.0 - c))
            b = -r + np.log(0.5 * (1.0 + c))
        return np.logaddexp(a, b)

    return LipschitzMapHandle(fn=fn, L=math.sqrt(n), n=n, m=m, label="busemann")


# ---------------------------------------------------------------------------
# flat-graph demo surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatGraphRow:
    k: int
    extrinsic: float
    intrinsic_lo: float
    intrinsic_hi: float

    @property
    def ratio(self) -> float:
        return self.intrinsic_lo / self.extrinsic


def _bump_height(x: np.ndarray, k: int) -> np.ndarray:
    """Smooth bump of height k supported on (k - 1/(k+1), k + 1/(k+1))."""
    t = (np.asarray(x, dtype=float) - k) * (k + 1.0)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = k * np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _mesh_shortest_path(k: int, nx: int, ny: int = 7) -> float:
    """Dijkstra over the grid-graph of the bump strip, p_k to q_k.

    Edge weights are lifted-segment lengths, so any graph path is a genuine
    curve on the surface and the result is an upper bound for the intrinsic
    distance.  scipy.sparse.csgraph is imported here, by the package's only
    scipy user, so the other commands do not load scipy.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    half = 1.0 / (k + 1.0)
    xs = np.linspace(k - half, k + half, nx)
    ys = np.linspace(-half / 2.0, half / 2.0, ny)
    # edges in (i, j, step) order; each weight sums 8 lifted sub-segments
    steps = np.array([(1, 0), (0, 1), (1, 1), (1, -1)])
    i, j, s = np.indices((nx, ny, len(steps))).reshape(3, -1)
    i2, j2 = i + steps[s, 0], j + steps[s, 1]
    keep = (i2 < nx) & (0 <= j2) & (j2 < ny)
    i, j, i2, j2 = i[keep], j[keep], i2[keep], j2[keep]
    px = np.linspace(xs[i], xs[i2], 9, axis=-1)
    dy = (ys[j2] - ys[j])[:, None] / 8
    w = np.sqrt(np.diff(px) ** 2 + dy**2 + np.diff(_bump_height(px, k)) ** 2)
    while w.shape[1] > 1:  # pairwise, the order np.sum takes on 8 contiguous values
        w = w[:, 0::2] + w[:, 1::2]
    n_nodes = nx * ny
    graph = coo_matrix((w[:, 0], (i * ny + j, i2 * ny + j2)), shape=(n_nodes, n_nodes))
    mid = ny // 2
    dist_row = dijkstra(graph, directed=False, indices=mid)
    return float(dist_row[(nx - 1) * ny + mid])


#: Most bumps flat_graph_example measures; a bound on outside input.
FLAT_GRAPH_K_MAX = 32

#: Mesh columns of the coarsest grid (odd, so x = k is a node) and the relative
#: change of the Dijkstra bound below which refining stops.
_BASE_NX = 301
_STABILIZE_TOL = 0.1


def flat_graph_example(K: int = 8) -> list[FlatGraphRow]:
    """Intrinsic vs extrinsic distances on the graph of g(x, y) = f(x).

    f is a smooth bump of height k over the k-th component of the support
    set, so p_k and q_k at its feet are 2/(k+1) apart in R^3 while every
    surface path between them climbs over the height-k ridge (the ridge is
    independent of y), giving an intrinsic lower bound of 2k.

    Rows carry the exact extrinsic gap, the ridge-climb lower bound read
    off the mesh, and a Dijkstra upper bound over the grid graph refined
    until it stabilizes within _STABILIZE_TOL relative change.
    """
    if not 0 <= K <= FLAT_GRAPH_K_MAX:
        raise ValueError(f"flat_graph_example: K must lie in [0, {FLAT_GRAPH_K_MAX}] (got {K})")
    rows = []
    for k in range(1, K + 1):
        extrinsic = 2.0 / (k + 1.0)
        # mesh grids are centered so x = k is a node; the ridge height read
        # off the mesh is then exactly f(k) = k
        nx = _BASE_NX
        ridge = float(_bump_height(np.array([float(k)]), k)[0])
        lo = 2.0 * ridge
        hi_prev = _mesh_shortest_path(k, nx)
        hi = _mesh_shortest_path(k, 2 * nx - 1)
        while abs(hi_prev - hi) > _STABILIZE_TOL * hi:
            nx = 2 * nx - 1
            hi_prev, hi = hi, _mesh_shortest_path(k, 2 * nx - 1)
        rows.append(FlatGraphRow(k=k, extrinsic=extrinsic, intrinsic_lo=lo, intrinsic_hi=hi))
    return rows
