"""End-to-end compression search: far-apart balls with bunched images.

For a Lipschitz map F: H^2 -> R^2 and targets (r, epsilon, k), the search
walks an R ladder: pack B(o, R) with radius-C balls (C chosen from r and
epsilon), extract a maximal 1/C-separated family of center images, assign
every leftover center to its nearest selected image, and stop once some
fiber holds k centers.  Those k balls are pairwise >= 2C apart in the
manifold while their images sit within 2/C of each other; the certificate
then re-verifies the advertised conclusions with independent oracles.

The Hausdorff variant runs the same pigeonhole on F first and accepts a
window on its measured net bound, the largest distance between the images
of matched net points of two balls plus L*delta; only if that ladder is
exhausted does it
fall back to the map augmented over a transported net.
"""

import numpy as np

from hypack.geometry import HPoint, PolarBatch, distance
from hypack.maps import poincare_inclusion
from hypack.search import (
    SearchParams,
    certificate_net,
    certify_configuration,
    corollary_sequences,
    find_bunched_configuration,
)

F = poincare_inclusion(2)
r, eps, k = 1.0, 0.5, 3

print(f"== set-distance search: r={r}, eps={eps}, k={k} ==")
params = SearchParams(r, eps, k)
print(f"C = 2(2 r eps + 1)/eps = {params.C}; R ladder = {params.R_schedule}")
cfg = find_bunched_configuration(F, params)
for rec in cfg.history:
    print(
        f"  R={rec['R']:>5}: family {rec['family']:>5}, selected {rec['selected']:>3} "
        f"(volume bound {rec['bound']:.0f}), largest fiber {rec['largest_fiber']}"
    )
print(
    f"success at R = {cfg.R_used}: min pairwise manifold distance "
    f"{cfg.pairwise_manifold_min:.6f} >= 2C = {2 * params.C}, max image distance "
    f"{cfg.pairwise_image_max:.6f} < 2/C = {2 / params.C}"
)
cert = certify_configuration(F, cfg)
print(
    f"certificate: (i) ball separation {cert.separation_min:.3f} >= 1/eps = "
    f"{1 / eps} -> {cert.pass_i}; (ii) image set distance "
    f"{cert.set_distance_max:.6f} <= eps -> {cert.pass_ii}"
)

print(f"\n== Hausdorff variant (plain ladder first, augmented map as the fallback) ==")
params_h = SearchParams(r, eps, 2, hausdorff=True)
cfg_h = find_bunched_configuration(F, params_h)
net = certificate_net(F, r, eps)
print(f"net: l = {net.l} points at delta = eps/(2L) = {net.delta}; F^ would map into R^{F.n * net.l}")
cert_h = certify_configuration(F, cfg_h)
print(
    f"success at R = {cfg_h.R_used} on the {cfg_h.ladder} ladder; (iii) matched net-image "
    f"distance + L*delta slack = {cert_h.hausdorff_max:.6f} <= eps -> {cert_h.pass_iii}"
)

print("\n== compression sequences (epsilon halved per level) ==")
base = SearchParams(r, eps, 2)
for level, c in enumerate(corollary_sequences(F, k=2, levels=3, base_params=base)):
    print(
        f"  level {level}: eps = {c.params.epsilon:<6} separation {c.pairwise_manifold_min:>8.4f} "
        f"(increasing), image diameter {c.pairwise_image_max:.3e} (decreasing)"
    )

print("\n== search-free witness on one ray ==")
a, b = HPoint.from_polar(10.0, [1, 0]), HPoint.from_polar(20.0, [1, 0])
img_a, img_b = F.batch(PolarBatch.of([a, b]))
gap = float(np.linalg.norm(img_a - img_b))
print(
    f"points at t=10 and t=20 on a ray: manifold distance {distance(a, b)}, "
    f"image distance {gap:.3e} (tanh(10) - tanh(5))"
)
