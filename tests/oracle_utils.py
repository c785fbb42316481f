"""Oracles the tests check library values against.

Arbitrary-precision (mpmath) values, plus brute-force full scans: the
O(n^2) sweep for packing separation, the full-pass greedy net, the
full-cdist set distances and the net transported to one basepoint at a
time.  Everything here recomputes results from first principles,
independently of the library's evaluation strategy.
"""

import math

import mpmath as mp
import numpy as np
from scipy.spatial.distance import cdist

from hypack.geometry import dist_given_q, exp_rows, transport_frame
from hypack.nets import _GRID_FRACTION

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


def brute_greedy_net(rho, delta, m):
    """Tangent points of the farthest-point net, by full passes over the grid.

    The candidates are the cell centers of the lattice within half a cell
    diagonal of the rho-ball, those outside it projected onto it.  Every
    pick updates the squared distance of every live candidate; the
    candidates already within the stop radius are dropped now and then.
    """
    if delta >= rho:
        return np.zeros((1, m))
    spacing = delta * rho / math.sinh(rho)
    h = 2.0 * _GRID_FRACTION * spacing / math.sqrt(m)
    stop = (1.0 - _GRID_FRACTION) * spacing
    half_diag = 0.5 * h * math.sqrt(m)
    n_side = int(math.ceil((rho + half_diag) / h))
    axis = h * np.arange(-n_side, n_side + 1)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(cand, axis=1)
    keep = norms <= rho + half_diag
    cand, norms = cand[keep], norms[keep]
    outside = norms > rho
    cand[outside] *= (rho / norms[outside])[:, None]
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
        if d2.size > 4096:
            alive = d2 > stop2
            if np.count_nonzero(alive) < 0.7 * d2.size:
                cand, cnorm2, d2 = cand[alive], cnorm2[alive], d2[alive]
                if d2.size == 0:
                    break
    return np.asarray(chosen)


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


def per_point_transport(tmpl, p):
    """The net around the one basepoint p, as l rows: the template times p's
    frame, then exp at p alone."""
    vecs = tmpl.tangent_points @ transport_frame(p)
    return exp_rows(p, vecs, np.linalg.norm(tmpl.tangent_points, axis=1))


def per_point_augmented(F, tmpl, points):
    """The net-augmented map one basepoint at a time: F over each net, flattened."""
    return np.array([F.fn(per_point_transport(tmpl, p)).ravel() for p in points])
