"""Oracles the tests check library values against.

Arbitrary-precision (mpmath) values, exp with the compensated combination
at every basepoint, plus brute-force full scans: the
O(n^2) sweep for packing separation, the net's lattice points by a scan of
their whole box, the full-cdist set distances, close pairs and window
diameters, the one-image-at-a-time separated subfamily with its full-cdist
assignment and checks, the net transported to one basepoint at a time,
the net's cover gap measured at probe points by the exact law of cosines,
sampled Lipschitz ratios, the flat-graph mesh built one edge at a time, and
the tangent-vector references: the log map that exp is round-tripped
against, parallel transport that transport_frame is checked against, and
triangle angles with the law-of-sines residual, all over ambient tangent
rows and their lengths.
Everything here recomputes results from first principles, independently of
the library's evaluation strategy.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from hypack.geometry import (
    HPoint,
    PolarBatch,
    _comb2,
    _coords_of,
    _cosh,
    _sinh,
    _snap_rows,
    dist_given_q,
    distance,
    exp_map,
    exp_rows,
    transport_frame,
)
from hypack.maps import _bump_height
from hypack.nets import _lattice_step

mp.mp.dps = 40


def mp_polar_distance(r1, r2, cos_theta):
    """arccosh(cosh r1 cosh r2 - sinh r1 sinh r2 cos theta) at 40 digits."""
    r1, r2, c = mp.mpf(r1), mp.mpf(r2), mp.mpf(cos_theta)
    z = mp.cosh(r1) * mp.cosh(r2) - mp.sinh(r1) * mp.sinh(r2) * c
    if z < 1:
        z = mp.mpf(1)
    return mp.acosh(z)


def mp_dist_given_q(r1, r2, q):
    """Distance from radii r1, r2 and q = sin^2(theta/2) at 40 digits.

    Uses d = 2 asinh(sqrt(u/2)) with u = cosh(d) - 1 =
    2 sinh^2((r1-r2)/2) + 2 sinh(r1) sinh(r2) q, whose terms never cancel.
    """
    r1, r2, q = mp.mpf(r1), mp.mpf(r2), mp.mpf(q)
    u = 2 * mp.sinh((r1 - r2) / 2) ** 2 + 2 * mp.sinh(r1) * mp.sinh(r2) * q
    return 2 * mp.asinh(mp.sqrt(u / 2))


def mp_exp(r0, u0, w):
    """exp at the point with polar data (r0, u0) of the tangent vector whose
    coordinates in the transported o-frame are w, at 40 digits.

    Computed as the transvection to that point (the Lorentz matrix with
    columns x, V_1..V_m, V_i = e_i + x_i/(1+x_0) (x + o)) applied to
    exp_o(w) = (cosh|w|, sinh|w| w/|w|).  Returns (radius, direction); at o
    the direction is u0's.
    """
    m = len(u0)
    u = [mp.mpf(float(a)) for a in u0]
    un = mp.sqrt(sum(a * a for a in u))
    r0 = mp.mpf(float(r0))
    x = [mp.cosh(r0)] + [mp.sinh(r0) * a / un for a in u]
    w = [mp.mpf(float(a)) for a in w]
    t = mp.sqrt(sum(a * a for a in w))
    y = [mp.cosh(t)] + ([mp.sinh(t) * a / t for a in w] if t > 0 else [mp.mpf(0)] * m)
    o = [mp.mpf(1)] + [mp.mpf(0)] * m
    out = [x[k] * y[0] for k in range(m + 1)]
    for i in range(m):
        scale = x[i + 1] / (1 + x[0])
        for k in range(m + 1):
            out[k] += ((1 if k == i + 1 else 0) + scale * (x[k] + o[k])) * y[i + 1]
    nr = mp.sqrt(sum(a * a for a in out[1:]))
    return mp.asinh(nr), ([a / nr for a in out[1:]] if nr > 0 else [a / un for a in u])


def compensated_exp_rows(base, vecs, t):
    """exp_rows with the compensated combination cosh(t) x + sinh(t) v/t at
    every basepoint, o included: the rows as (r, dirs, coords)."""
    bases = PolarBatch.of([base]) if isinstance(base, HPoint) else base
    t = np.asarray(t, dtype=float)
    m1 = bases.dirs.shape[1] + 1
    vecs = np.asarray(vecs, dtype=float).reshape(len(bases), t.shape[-1] if t.ndim else -1, m1)
    zero = t == 0.0
    tt = np.where(zero, 1.0, t)[..., None]
    c = _comb2(_cosh(tt), _coords_of(bases)[:, None, :], _sinh(tt), vecs / tt)
    r, dirs, coords = _snap_rows(c.reshape(-1, m1))
    stay = np.broadcast_to(zero, vecs.shape[:2])
    at = np.nonzero(stay)[0]
    flat = stay.ravel()
    r[flat], dirs[flat], coords[flat] = bases.r[at], bases.dirs[at], bases.coords[at]
    return r, dirs, coords


def minkowski_inner(x, y):
    """Minkowski bilinear form -x0*y0 + sum_i x_i*y_i over the last axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def tangent_norm(v):
    """Minkowski length of the tangent row v, recomputed from its components.

    At basepoint radius r the form carries absolute error ~eps*e^{2r}, so
    the length of a unit row means nothing beyond r ~ 17; log_map hands its
    exact length on instead, and parallel transport keeps the length it got.
    """
    return math.sqrt(max(float(minkowski_inner(v, v)), 0.0))


def project_tangent(x, vec):
    """The ambient row vec made tangent at the HPoint x: vec + <vec, x> x."""
    v = np.asarray(vec, dtype=float)
    xc = x.coords
    return v + minkowski_inner(v, xc) * xc


def exp_along(x, v):
    """exp at x of the tangent row v, its length recomputed by tangent_norm."""
    return exp_map(x, v, tangent_norm(v))


def log_map(x, y, d=None):
    """(v, d): the tangent row at x with exp_x(v) = y, and its length
    d = d(x, y), measured by the polar kernel unless given.  The ambient
    coordinates only supply the direction."""
    if d is None:
        d = distance(x, y)
    if d == 0.0:
        return np.zeros(len(x.direction) + 1), 0.0
    xc = x.coords
    yc = y.coords
    factor = d / math.sinh(d) if d > 1e-8 else 1.0 - d * d / 6.0
    # the formula is tangent analytically; re-projecting numerically would
    # inject cancellation noise of size eps*|v|*|x|^2
    return _comb2(1.0, yc, -math.cosh(d), xc) * factor, d


def parallel_transport(x, v, y):
    """The tangent row v at x, parallel transported along the geodesic to y;
    its length is v's.

    Closed form on the hyperboloid:
    P(v) = v + <y, v>_M / (1 - <x, y>_M) * (x + y), which is well
    conditioned since 1 - <x,y>_M = 1 + cosh d >= 2.
    """
    xc = x.coords
    yc = y.coords
    denom = 1.0 - float(minkowski_inner(xc, yc))
    return v + (float(minkowski_inner(yc, v)) / denom) * (xc + yc)


def tangent_angle(u, nu, w, nw):
    """Angle between the tangent rows u and w, of lengths nu and nw, at one
    basepoint: atan2 of the rejection norm against the cosine, which keeps
    small angles at the full relative precision of the components."""
    uh = u / nu
    wh = w / nw
    c = float(minkowski_inner(uh, wh))
    rej = wh - c * uh
    s = math.sqrt(max(float(minkowski_inner(rej, rej)), 0.0))
    return math.atan2(s, c)


def triangle_angles(a, b, c):
    """Interior angles at the HPoints a, b, c of the geodesic triangle abc,
    from the log maps at each vertex.  The directions come from o-based
    ambient coordinates, whose error grows like eps*e^{2r} with the vertex
    radius r.  Raises ValueError if two vertices lie within 1e-12."""
    d_ab, d_ac, d_bc = distance(a, b), distance(a, c), distance(b, c)
    if min(d_ab, d_ac, d_bc) <= 1e-12:
        raise ValueError("triangle_angles: two vertices coincide")

    def angle(x, y, dy, z, dz):
        (u, nu), (w, nw) = log_map(x, y, dy), log_map(x, z, dz)
        return tangent_angle(u, nu, w, nw)

    # the kernel is exactly symmetric, so each side length serves both ends
    return (
        angle(a, b, d_ab, c, d_ac),
        angle(b, a, d_ab, c, d_bc),
        angle(c, a, d_ac, b, d_bc),
    )


def law_of_sines_residual(sides, angles):
    """Max pairwise absolute difference of the ratios sinh(side)/sin(angle),
    with sides[i] opposite angles[i]; zero in exact arithmetic."""
    ratios = np.sinh(np.asarray(sides, dtype=float)) / np.sin(np.asarray(angles, dtype=float))
    return float(ratios.max() - ratios.min())


def mp_packing_angle(C, R):
    return mp.asin(mp.sinh(mp.mpf(C)) / mp.sinh(mp.mpf(R) - mp.mpf(C)))


def mp_direction_count(C, R):
    """Largest integer k with k*alpha <= pi - alpha."""
    alpha = mp_packing_angle(C, R)
    k = int(mp.floor((mp.pi - alpha) / alpha))
    while (k + 1) * alpha > mp.pi:
        k -= 1
    while (k + 2) * alpha <= mp.pi:
        k += 1
    return k


def mp_count_lower_bound(C, R):
    C, R = mp.mpf(C), mp.mpf(R)
    alpha = mp_packing_angle(C, R)
    return mp.mpf(1) / 2 * (mp.sin(alpha) / alpha) * (mp.pi / mp.sinh(C)) * mp.sinh(R - C)


def rel_err(value, oracle):
    oracle = mp.mpf(oracle)
    if oracle == 0:
        return abs(mp.mpf(value))
    return abs((mp.mpf(value) - oracle) / oracle)


def brute_min_lag_distance(rho, alpha, indices, block=256):
    """Min center distance over every pair of a 2-plane family, by brute force.

    Sweeps all n(n-1)/2 index lags in row blocks, reduces q = sin^2(lag*alpha)
    (the distance is monotone in q at equal radii) and runs the kernel once
    on the smallest q.
    """
    idx = np.asarray(indices, dtype=float)
    n = idx.size
    qmin = math.inf
    for b0 in range(0, n - 1, block):
        rows = np.arange(b0, min(b0 + block, n - 1))
        cols = np.arange(b0 + 1, n)
        q = np.sin(np.abs(idx[cols][None, :] - idx[rows][:, None]) * alpha) ** 2
        qmin = min(qmin, float(np.min(np.where(cols[None, :] > rows[:, None], q, np.inf))))
    return float(dist_given_q(rho, rho, qmin)) if n >= 2 else math.inf


def brute_lattice_points(rho, spacing, h, m):
    """Integer points g with |g| h <= rho + spacing, by a scan of the whole
    box [-n, n]^m with itertools.product."""
    n = math.ceil((rho + spacing) / h)
    box = itertools.product(range(-n, n + 1), repeat=m)
    return [g for g in box if sum(c * c for c in g) <= ((rho + spacing) / h) ** 2]


def brute_set_distance_max(clouds):
    """max over cloud pairs of the smallest cross distance, by full cdist."""
    worst = 0.0
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            worst = max(worst, float(cdist(clouds[i], clouds[j]).min()))
    return worst


def brute_hausdorff(A, B):
    """Hausdorff distance of two point sets, by full cdist."""
    d = cdist(A, B)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def brute_close_pairs(images, a, b, limit):
    """The sorted (t, u) with cdist(images[a[t]], images[b[u]]) < limit, by full cdist."""
    d = cdist(images[a], images[b])
    return sorted(zip(*(x.tolist() for x in np.nonzero(d < limit))))


def loop_best_window(members, imgs, k):
    """(window, diameter) of the k consecutive members with the smallest
    full-cdist image diameter, the first on ties, one window at a time."""
    best, best_diam = [], math.inf
    for s in range(len(members) - k + 1):
        diam = float(np.max(cdist(imgs[s : s + k], imgs[s : s + k])))
        if diam < best_diam:
            best, best_diam = members[s : s + k], diam
    return best, best_diam


def per_point_transport(tmpl, p):
    """The net around the one basepoint p, as l rows: the template times p's
    frame, then exp at p alone."""
    vecs = tmpl.tangent_points @ transport_frame(p)
    return exp_rows(p, vecs, np.linalg.norm(tmpl.tangent_points, axis=1))


def per_point_augmented(F, tmpl, points):
    """The net-augmented map one basepoint at a time: F over each net, flattened."""
    return np.array([F.fn(per_point_transport(tmpl, p)).ravel() for p in points])


def tangent_ball(rng, m, rho, size):
    """`size` points drawn uniformly from the Euclidean rho-ball of R^m, shape (size, m)."""
    dirs = rng.standard_normal((size, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return (rho * rng.random(size) ** (1.0 / m))[:, None] * dirs


def cover_probes(rho, delta, m):
    """(corners, sphere, ball): probe points of the tangent rho-ball for the
    lattice net of (rho, delta, m).  The corners of the lattice cells inside
    the ball (the points farthest from the lattice), 2,000 points of the
    rho-sphere (the ones the projection onto the ball serves), and 20,000
    uniform points of the ball; the draws are seeded by m."""
    _, h = _lattice_step(rho, delta, m)
    n = math.ceil(rho / h) + 1
    axis = h * (np.arange(-n, n + 1) + 0.5)
    corners = np.stack(np.meshgrid(*([axis] * m), indexing="ij"), axis=-1).reshape(-1, m)
    corners = corners[np.linalg.norm(corners, axis=1) <= rho]
    rng = np.random.default_rng(m)
    dirs = rng.standard_normal((2_000, m))
    sphere = rho * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    return corners, sphere, tangent_ball(rng, m, rho, 20_000)


def net_gap(tangent_points, probes):
    """Largest hyperbolic distance from a probe to its nearest net point, both
    given in tangent coordinates at one basepoint: the law of cosines
    (dist_given_q) on the two norms and q = |u - v|^2 / 4 of the unit
    directions, which is exact at any basepoint, in blocks of 1,024 probes."""

    def polar(x):
        r = np.linalg.norm(x, axis=1)
        return r, x / np.where(r > 0.0, r, 1.0)[:, None]

    rn, un = polar(np.asarray(tangent_points, dtype=float))
    worst = 0.0
    for b in range(0, len(probes), 1024):
        rx, ux = polar(np.asarray(probes[b : b + 1024], dtype=float))
        d = dist_given_q(rx[:, None], rn[None, :], 0.25 * cdist(ux, un, "sqeuclidean"))
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def sampled_lipschitz(F, pairs, rng, radius):
    """Largest ratio |F(x) - F(y)| / d(x, y) over `pairs` pairs of exp_o of
    uniform tangent points of the radius-ball: a lower bound on F's
    Lipschitz constant."""
    X = tangent_ball(rng, F.m, radius, 2 * pairs)
    pts = exp_rows(HPoint.origin(F.m), np.pad(X, ((0, 0), (1, 0))), np.linalg.norm(X, axis=1))
    d = distance(pts[0::2], pts[1::2])
    gap = np.linalg.norm(F.batch(pts[0::2]) - F.batch(pts[1::2]), axis=1)
    far = d >= 1e-12
    return float(np.max(gap[far] / d[far], initial=0.0))


def loop_separated_subfamily(images, sep):
    """(selected, kept images) of the greedy scan, one image at a time: image
    i is kept iff its cdist distance to every image kept before it is >= sep."""
    images = np.asarray(images, dtype=float)
    kept = []
    kept_imgs = np.empty_like(images)
    for i, img in enumerate(images):
        if kept and cdist(kept_imgs[: len(kept)], img[None]).min() < sep:
            continue
        kept_imgs[len(kept)] = img
        kept.append(i)
    return np.array(kept, dtype=int), kept_imgs[: len(kept)]


def full_cdist_theta(n_centers, selected, sel_images, images, sep):
    """The fibers (selected position -> leftover positions, in order) from the
    full cdist of leftovers to the selected images: first minimum per row, so
    ties go to the lowest position.  Raises AssertionError where a leftover
    has no selected image closer than sep."""
    mask = np.ones(n_centers, dtype=bool)
    mask[selected] = False
    leftovers = np.nonzero(mask)[0]
    if leftovers.size == 0:
        return {}
    d = cdist(np.asarray(images, dtype=float)[leftovers], sel_images)
    nearest = np.argmin(d, axis=1)
    if np.any(d[np.arange(leftovers.size), nearest] >= sep):
        raise AssertionError("maximality violated")
    fibers = {}
    for pos, anchor in zip(leftovers, selected[nearest]):
        fibers.setdefault(int(anchor), []).append(int(pos))
    return fibers


def full_cdist_verify(selected, sel_images, sep, all_images):
    """Separation (no two selected images closer than sep) and maximality
    (every other image closer than sep to a selected one), from full cdists."""
    if len(sel_images) > 1:
        gaps = cdist(sel_images, sel_images)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < sep:
            return False
    mask = np.ones(len(all_images), dtype=bool)
    mask[selected] = False
    rest = all_images[mask]
    return not (rest.size and cdist(rest, sel_images).min(axis=1).max() >= sep)


def loop_mesh_shortest_path(k, nx, ny=7):
    """The flat-graph mesh distance with its edges built one at a time: each
    weight is np.sum over the 8 lifted sub-segments of one edge."""
    half = 1.0 / (k + 1.0)
    xs = np.linspace(k - half, k + half, nx)
    ys = np.linspace(-half / 2.0, half / 2.0, ny)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
                i2, j2 = i + di, j + dj
                if 0 <= i2 < nx and 0 <= j2 < ny:
                    px = np.linspace(xs[i], xs[i2], 9)
                    pz = _bump_height(px, k)
                    dys = (ys[j2] - ys[j]) / 8
                    vals.append(float(np.sum(np.sqrt(np.diff(px) ** 2 + dys**2 + np.diff(pz) ** 2))))
                    rows.append(i * ny + j)
                    cols.append(i2 * ny + j2)
    graph = coo_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny))
    mid = ny // 2
    return float(dijkstra(graph, directed=False, indices=mid)[(nx - 1) * ny + mid])
