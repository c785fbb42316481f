"""Tour of the hyperboloid-model geometry kernel.

Shows the dual point representation (ambient coordinates + polar data), the
log-domain distance kernel staying accurate at radius 10^4, the isometry
sigma_p that moves o to p, and the hyperbolic law of sines on a triangle whose
angles are measured from its three kernel side lengths.
"""

import math

import numpy as np

from hypack.geometry import HPoint, distance, exp_rows, polar_distance, transport_frame

o = HPoint.origin(2)
p = HPoint.from_polar(2.5, [1.0, 0.0])
print("== points and distances ==")
print(f"o = {o.coords},  p = polar(2.5, e1) -> coords {np.round(p.coords, 6)}")
print(f"d(o, p) = {distance(o, p)} (radial geodesic: equals the polar radius)")

a = HPoint.from_polar(3.0, [1.0, 0.0])
b = HPoint.from_polar(3.0, [0.0, 1.0])
print(f"d between two radius-3 points on orthogonal rays = {distance(a, b):.12f}")
print("  (law of cosines: arccosh(cosh^2 3) = 5.311779854155)")

print("\n== the stable kernel at extreme radius ==")
d = polar_distance(1e4, 1e4, math.cos(0.01))
print(f"polar_distance(1e4, 1e4, cos 0.01) = {d:.6f}")
print(f"asymptotic 2*1e4 + 2*log(sin 0.005)  = {2e4 + 2 * math.log(math.sin(0.005)):.6f}")
print("(cosh(1e4) overflows doubles by ~4000 decimal orders; the kernel works in logs)")

print("\n== the isometry sigma_p ==")
target = HPoint.from_polar(5.0, [0.8, 0.6])
# sigma_p = exp_p of the frame-transported tangent coordinates; applied to
# exp_o of the rows below (o, x1, x2) it gives (p, sigma_p x1, sigma_p x2)
tangent = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
norms = np.linalg.norm(tangent, axis=1)
_, x1, x2 = exp_rows(o, np.pad(tangent, ((0, 0), (1, 0))), norms)
y0, y1, y2 = exp_rows(target, tangent @ transport_frame(target), norms)
print(
    f"sigma_p moves o to target: d(sigma_p o, target) = {distance(y0, target):.2e}; "
    f"d preserved: {abs(distance(y1, y2) - distance(x1, x2)):.2e}"
)

print("\n== law of sines on a measured triangle ==")
# legs 2 and 3 from o at plane angle 1.1; each angle from the three side
# lengths by the law of cosines, cos A = (cosh b cosh c - cosh a)/(sinh b sinh c)
c1, c2 = exp_rows(o, [[0.0, 2.0, 0.0], [0.0, 3.0 * math.cos(1.1), 3.0 * math.sin(1.1)]], [2.0, 3.0])
sides = np.array([distance(c1, c2), distance(o, c2), distance(o, c1)])  # opposite o, c1, c2
b, c = np.roll(sides, -1), np.roll(sides, -2)  # the two sides that meet at each vertex
angles = np.arccos((np.cosh(b) * np.cosh(c) - np.cosh(sides)) / (np.sinh(b) * np.sinh(c)))
ratios = np.sinh(sides) / np.sin(angles)
print(f"sides  = {[round(s, 6) for s in sides.tolist()]}")
print(f"angles = {[round(t, 6) for t in angles.tolist()]} (sum {angles.sum():.6f} < pi)")
print(f"angle at o = {float(angles[0])!r} (the legs' plane angle 1.1)")
print(f"max spread of sinh(side)/sin(opposite) = {ratios.max() - ratios.min():.2e}")
