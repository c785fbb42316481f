"""Exponentially growing ball packings inside B(p, R).

Builds the explicit 2-plane family of radius-C balls at o, certifies the 2C
separation of every pair from the two extreme index lags, and tabulates how the family size outruns any
polynomial: successive ratios approach e.
"""

import math

from hypack.packing import (
    count_lower_bound,
    generate_centers,
    growth_table,
    packing_angle,
    verify_packing,
)

C, R = 1.0, 3.0
alpha = packing_angle(C, R)
print(f"packing angle for C={C}, R={R}: alpha = {alpha:.6f} (sin alpha = sinh C / sinh(R-C))")

fam = generate_centers(C, R, 2)
print(f"family size k+1 = {len(fam)} at center radius R-C = {R - C}")
rep = verify_packing(fam)
print(
    f"index-lag certificate over {rep.pairs_checked} pairs: min pairwise = "
    f"{rep.min_pairwise:.12f} >= 2C = {2 * C}; enclosure max offset "
    f"{rep.max_center_offset} <= R - C; pass = {rep.ok}"
)
print(f"analytic lower bound: {count_lower_bound(C, R):.4f} <= {len(fam)}")

print("\nR      alpha        k+1        lower_bound    ratio")
for row in growth_table(C, range(3, 13)):
    ratio = f"{row.ratio:.4f}" if row.ratio else "   --"
    print(
        f"{row.R:<6.0f} {row.alpha:<12.3e} {row.family_size:<10.0f} "
        f"{row.lower_bound:<14.4f} {ratio}"
    )

rows = growth_table(C, range(15, 22))
print("\nsuccessive family-size ratios at R >= 15 (they approach e):")
print("  " + ", ".join(f"{row.ratio:.6f}" for row in rows[1:]) + f"   (e = {math.e:.6f})")

capped = generate_centers(0.5, 11.0, 2, cap=1_000)
print(
    f"\ncap demo: C=0.5, R=11 has {capped.family_size_uncapped:.0f} directions; "
    f"subsampled evenly to {len(capped)} (separation survives trivially: "
    f"min pairwise = {verify_packing(capped).min_pairwise:.4f})"
)
