"""Reference delta-nets of geodesic balls, transported anywhere.

The net is built once in tangent coordinates at the reference basepoint (the
points of the cubic lattice h Z^m within rho + spacing of the origin, those
outside the rho-ball projected onto its sphere; the step makes the
lattice's covering radius the tangent spacing delta*rho/sinh(rho)), then
carried to any basepoint by the frame-transport isometry: the net size l
depends only on (rho, delta, m), never on the basepoint.
"""

from hypack.geometry import HPoint, PolarBatch, distance
from hypack.nets import NetTemplate, build_reference_net, transport_net, verify_cover

rho, delta, m = 1.0, 0.25, 2
tmpl = build_reference_net(rho, delta, m)
print(f"reference net of B(., {rho}) with cover radius {delta} in H^{m}: l = {tmpl.l} points")
print(f"tangent spacing compensates the exp stretch sinh(rho)/rho = {1.1752:.4f}")

for r_base, direction in ((0.0, [1.0, 0.0]), (3.0, [0.6, 0.8]), (50.0, [1.0, 0.0])):
    base = HPoint.origin(m) if r_base == 0 else HPoint.from_polar(r_base, direction)
    rep = verify_cover(tmpl, base, samples=100_000, seed=11)
    print(
        f"  basepoint radius {r_base:>4.0f}: covered fraction = {rep.covered_fraction}, "
        f"max observed gap = {rep.max_gap:.4f} <= delta, pass = {rep.ok}"
    )
print("(the radius-50 run exercises the far-radius representation; the Monte-Carlo")
print(" distances run in the tangent frame, where constant curvature makes them exact)")

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
broken = NetTemplate(tmpl.rho, tmpl.delta, half)
rep = verify_cover(broken, HPoint.origin(m), samples=20_000, seed=11)
print(
    f"\ndeleting half the net: covered fraction {rep.covered_fraction:.3f}, "
    f"max gap {rep.max_gap:.3f} > delta -> fail (as it must)"
)
