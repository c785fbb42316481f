"""Reference delta-nets of geodesic balls, transported anywhere.

The net is built once in tangent coordinates at the reference basepoint (the
points of the cubic lattice h Z^m within rho + spacing of the origin, those
outside the rho-ball projected onto its sphere; the step makes the
lattice's covering radius the tangent spacing delta*rho/sinh(rho)), then
carried to any basepoint by the frame-transport isometry: the net size l
depends only on (rho, delta, m), never on the basepoint.
"""

import math

import numpy as np

from hypack.geometry import HPoint, PolarBatch, dist_given_q, distance
from hypack.nets import build_reference_net, transport_net

rho, delta, m = 1.0, 0.25, 2
tmpl = build_reference_net(rho, delta, m)
print(f"reference net of B(., {rho}) with cover radius {delta} in H^{m}: l = {tmpl.l} points")
print(f"tangent spacing compensates the exp stretch sinh(rho)/rho = {math.sinh(rho) / rho:.4f}")

# probes of the tangent ball: a fine square grid inside it and 4,096 points of
# its sphere; a probe x and a net point n lie d(exp x, exp n) apart by the law
# of cosines on |x|, |n| and their angle, at every basepoint alike
axis = np.linspace(-rho, rho, 101)
grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
sphere = rho * np.column_stack([np.cos(angles), np.sin(angles)])
probes = np.vstack([grid[np.linalg.norm(grid, axis=1) <= rho], sphere])


def cover_gap(points):
    """Largest hyperbolic distance from a probe to its nearest point of `points`."""
    r_x, r_n = np.linalg.norm(probes, axis=1), np.linalg.norm(points, axis=1)
    u_x = probes / np.where(r_x > 0, r_x, 1.0)[:, None]
    u_n = points / np.where(r_n > 0, r_n, 1.0)[:, None]
    q = 0.25 * np.sum((u_x[:, None, :] - u_n[None, :, :]) ** 2, axis=-1)
    return float(dist_given_q(r_x[:, None], r_n[None, :], q).min(axis=1).max())


print(f"largest gap over {len(probes)} probes of the ball: {cover_gap(tmpl.tangent_points):.4f} <= delta")

p = HPoint.from_polar(3.0, [0.6, 0.8])
q = HPoint.from_polar(7.0, [0.0, 1.0])
both = transport_net(tmpl, PolarBatch.of([p, q]))  # l rows around p, then l around q
sigma, sig_q = both[: tmpl.l], both[tmpl.l :]
radial = [distance(p, s) for s in sigma[:4]]
print(f"\ntransported net points stay in B(p, rho): first radial distances {[round(d, 4) for d in radial]}")

pairs = [(0, 1), (2, 17), (5, tmpl.l - 1)]
print("congruence of transported nets (pairwise distances agree across basepoints):")
for i, j in pairs:
    print(
        f"  d(sigma_{i}, sigma_{j}): at p -> {distance(sigma[i], sigma[j]):.10f}, "
        f"at q -> {distance(sig_q[i], sig_q[j]):.10f}"
    )

half = tmpl.tangent_points[tmpl.tangent_points[:, 0] <= 0.0]
print(f"\ndeleting half the net: largest gap {cover_gap(half):.3f} > delta -> fail (as it must)")
