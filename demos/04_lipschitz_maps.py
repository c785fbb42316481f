"""Lipschitz map handles and the flat-graph "not strongly proper" surface.

The toolkit studies Lipschitz maps from hyperbolic space into Euclidean
space.  The Poincare chart (constant 1/2) and Busemann coordinates
(1-Lipschitz each) are the standard testbeds; sampled difference quotients
stay below the declared constants.  The flat-graph surface shows the
one-dimensional ancestor of the compression phenomenon: extrinsically
nearby points whose intrinsic distance diverges.
"""

import math

import numpy as np

from hypack.geometry import HPoint, PolarBatch
from hypack.maps import (
    busemann_map,
    compose_euclidean,
    estimate_lipschitz,
    flat_graph_example,
    ideal_point,
    poincare_inclusion,
)

F = poincare_inclusion(2)
print("== Poincare inclusion (L = 1/2) ==")
img_o, img_p = F.batch(PolarBatch.of([HPoint.origin(2), HPoint.from_polar(2.0, [1, 0])]))
print(f"F(o) = {img_o}")
print(f"F(polar(2, e1)) = {img_p}  (tanh(1) = {math.tanh(1):.6f})")
est = estimate_lipschitz(F, pairs=10_000, seed=1, region_radius=10.0)
print(f"max sampled ratio over 10^4 pairs in B(o, 10): {est:.4f} <= 0.5")

print("\n== Busemann coordinates (1-Lipschitz each) ==")
B = busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])])
ray = [HPoint.from_polar(t, [1.0, 0.0]) for t in (1.0, 5.0, 200.0)]
for p, val in zip(ray, B.batch(PolarBatch.of(ray))):
    t = p.r
    print(f"  along the first ray at t={t:>5}: b = {np.round(val, 6)} (first coordinate = -t)")
est = estimate_lipschitz(B, pairs=10_000, seed=2, region_radius=10.0)
print(f"max sampled ratio: {est:.4f} <= sqrt(2) = {math.sqrt(2):.4f}")

G = compose_euclidean(F, lambda v: v[:, :1], 1.0, label="first-coordinate")
print(f"\ncomposed with a projection: n = {G.n}, declared L = {G.L}")

print("\n== flat-graph surface: proper but not strongly proper ==")
print("g(x, y) = f(x) with bumps of height k over the k-th support interval;")
print("p_k, q_k sit at the feet of bump k, so every surface path climbs over height k.")
report = flat_graph_example(K=8)
print(f"{'k':>2} {'extrinsic':>12} {'intrinsic_lo':>13} {'intrinsic_hi':>13} {'ratio':>9}")
for row in report.rows:
    print(
        f"{row.k:>2} {row.extrinsic:>12.6f} {row.intrinsic_lo:>13.3f} "
        f"{row.intrinsic_hi:>13.3f} {row.ratio:>9.1f}"
    )
print("extrinsic gaps shrink like 2/(k+1) while intrinsic distances grow like 2k:")
print("the ratio diverges, so the embedding cannot be strongly proper.")
