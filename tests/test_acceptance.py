"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Criterion 3 is asserted twice: once exactly as stated (strict
xfail: the stated absolute tolerance sits below the double-precision floor
at the large end of the side range; see notes below and the attainable
variants that run green), and once in its attainable faithful forms.
"""

import json
import math
import time

import numpy as np
import pytest

import oracle_utils as oracle
from hypack.cli import main
from hypack.geometry import (
    HPoint,
    PolarBatch,
    distance,
    polar_distance,
)
from hypack.maps import poincare_inclusion
from hypack.nets import build_reference_net, transport_net
from hypack.packing import (
    count_lower_bound,
    direction_count,
    generate_centers,
    growth_table,
    packing_angle,
    verify_packing,
)
from hypack.search import (
    SearchParams,
    corollary_sequences,
    find_bunched_configuration,
)

SEED = 1789


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
# criterion 1: Lemma 1 formulas vs arbitrary-precision oracle
# -------------------------------------------------------------------------


def test_criterion_1_formula_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for R in range(3, 13):
        alpha = packing_angle(1.0, R)
        worst = max(worst, float(oracle.rel_err(alpha, oracle.mp_packing_angle(1, R))))
        assert direction_count(alpha) == oracle.mp_direction_count(1, R)
        worst = max(
            worst,
            float(oracle.rel_err(count_lower_bound(1.0, R), oracle.mp_count_lower_bound(1, R))),
        )
    ratio_dev = 0.0
    rows = growth_table(1.0, range(15, 22))
    for row in rows[1:]:
        ratio_dev = max(ratio_dev, abs(row.ratio / math.e - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and ratio_dev < 0.05 and elapsed < 1.0
    report(
        1,
        ok,
        f"oracle rel err {worst:.2e} < 1e-10; size ratios within {ratio_dev:.3%} of e; "
        f"{elapsed:.2f}s < 1s",
    )


# -------------------------------------------------------------------------
# criterion 2: Lemma 3 separation by brute force
# -------------------------------------------------------------------------


def test_criterion_2_separation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_slack = math.inf
    total_pairs = 0
    for _ in range(20):
        C = rng.uniform(0.5, 3.0)
        R = 2.0 * C + rng.uniform(0.5, 10.0)
        fam = generate_centers(C, R, 2, cap=10_000)
        rep = verify_packing(fam)
        brute = oracle.brute_min_lag_distance(fam.center_radius, fam.alpha, fam.indices)
        total_pairs += rep.pairs_checked
        worst_slack = min(worst_slack, brute - (2.0 * C - 1e-9))
        assert rep.ok
        assert rep.min_pairwise == brute
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= 0.0 and elapsed < 30.0
    report(
        2,
        ok,
        f"20 families, {total_pairs} pairs swept by brute force, min slack over 2C-1e-9: "
        f"{worst_slack:.2e}, equal to verify_packing; "
        f"{elapsed:.1f}s < 30s",
    )


# -------------------------------------------------------------------------
# criterion 3: hyperbolic law of sines
# -------------------------------------------------------------------------


def _random_triangle(rng, smin, smax, legfrac=0.1):
    """Triangle with all sides in [smin, smax], built by exp_map."""
    while True:
        base = HPoint.from_polar(rng.uniform(0.0, 1.0), _unit(rng))
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = t1 + rng.uniform(0.3, math.pi - 0.3)
        legs = rng.uniform(max(smin, legfrac * smax), 0.5 * smax, size=2)
        u1 = oracle.project_tangent(base, [0.0, math.cos(t1), math.sin(t1)])
        u2 = oracle.project_tangent(base, [0.0, math.cos(t2), math.sin(t2)])
        p1 = oracle.exp_along(base, legs[0] / oracle.tangent_norm(u1) * u1)
        p2 = oracle.exp_along(base, legs[1] / oracle.tangent_norm(u2) * u2)
        sides = (distance(p1, p2), distance(base, p2), distance(base, p1))
        if smin <= min(sides) and max(sides) <= smax:
            return (base, p1, p2), sides


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _measure_residuals(rng, n, smin, smax):
    absolute, relative, t0 = 0.0, 0.0, time.perf_counter()
    for _ in range(n):
        (a, b, c), sides = _random_triangle(rng, smin, smax)
        angles = oracle.triangle_angles(a, b, c)
        res = oracle.law_of_sines_residual(sides, angles)
        absolute = max(absolute, res)
        relative = max(relative, res / (math.sinh(sides[0]) / math.sin(angles[0])))
    return absolute, relative, time.perf_counter() - t0


@pytest.mark.xfail(
    strict=True,
    reason="1e-8 ABSOLUTE residual is unattainable in doubles once a side "
    "nears 15: the ratios sinh(side)/sin(angle) reach ~1e6-1e9 and a single "
    "ulp of such a ratio exceeds the tolerance, while measuring the small "
    "angles from stored tangent directions costs eps/angle relative error; "
    "the attainable-form test below carries the criterion",
)
def test_criterion_3_law_of_sines_as_stated():
    rng = np.random.default_rng(SEED)
    absolute, _, _ = _measure_residuals(rng, 1_000, 0.1, 15.0)
    report(3, absolute <= 1e-8, f"as stated: abs residual {absolute:.2e} over sides [0.1, 15]")


def test_criterion_3_law_of_sines_attainable():
    rng = np.random.default_rng(SEED)
    abs_small, _, t_small = _measure_residuals(rng, 1_000, 0.1, 7.0)
    _, rel_full, t_full = _measure_residuals(rng, 1_000, 0.1, 15.0)
    elapsed = t_small + t_full
    ok = abs_small <= 1e-8 and rel_full <= 1e-8 and elapsed < 5.0
    report(
        3,
        ok,
        f"absolute residual {abs_small:.2e} <= 1e-8 (sides to 7, the double-precision "
        f"envelope); relative residual {rel_full:.2e} <= 1e-8 (sides to 15); "
        f"{elapsed:.1f}s < 5s",
    )


# -------------------------------------------------------------------------
# criterion 4: Lemma 4 cover, probed by exact distances
# -------------------------------------------------------------------------


def test_criterion_4_net_cover():
    # the gap is measured in tangent coordinates, where the law of cosines is
    # exact at any basepoint; each base transports the net, and at r <= 12
    # the ambient radial distances must equal the template norms
    t0 = time.perf_counter()
    lines = []
    ok = True
    for rho, delta, m in ((1.0, 0.25, 2), (2.0, 0.5, 3)):
        tmpl = build_reference_net(rho, delta, m)
        gap = oracle.net_gap(tmpl.tangent_points, np.vstack(oracle.cover_probes(rho, delta, m)))
        ok = ok and gap <= delta
        norms = np.linalg.norm(tmpl.tangent_points, axis=1)
        e1 = np.eye(m)[0]
        bases = [
            HPoint.origin(m),
            HPoint.from_polar(3.0, np.roll(e1, 1) if m > 2 else [0.6, 0.8]),
            HPoint.from_polar(50.0, e1),
        ]
        for base in bases:
            sigma = transport_net(tmpl, PolarBatch.of([base]))
            ok = ok and len(sigma) == tmpl.l
            line = f"(rho={rho}, delta={delta}, m={m}) at r={base.r:.0f}: gap={gap:.4f}"
            if base.r <= 12.0:
                radial = float(np.max(np.abs(distance(base, sigma) - norms)))
                ok = ok and radial <= 1e-9
                line += f" radial={radial:.1e}"
            lines.append(line)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, f"{'; '.join(lines)}; {elapsed:.1f}s < 60s")


# -------------------------------------------------------------------------
# criterion 5: Theorem 1 end-to-end through the CLI + independent certifier
# -------------------------------------------------------------------------


def _independent_check_i(payload):
    """Conclusion (i) re-derived from the serialized polar centers alone."""
    rows = payload["centers_polar"]
    r = payload["params"]["r"]
    eps = payload["params"]["epsilon"]
    worst = math.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            r1, u1 = rows[i][0], np.array(rows[i][1:])
            r2, u2 = rows[j][0], np.array(rows[j][1:])
            d = polar_distance(r1, r2, float(np.clip(u1 @ u2, -1.0, 1.0)))
            worst = min(worst, d - 2.0 * r)
    return worst >= 1.0 / eps - 1e-6  # serialized-direction resolution


def test_criterion_5_theorem_end_to_end(tmp_path):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for r, eps, k in ((1.0, 0.5, 3), (1.0, 0.25, 2)):
        for hausdorff in (False, True):
            t_run = time.perf_counter()
            argv = [
                "search", "--map", "poincare", "--m", "2",
                "--r", str(r), "--eps", str(eps), "--k", str(k),
            ]
            if hausdorff:
                argv.append("--hausdorff")
            out = tmp_path / f"search_{eps}_{k}_{hausdorff}.json"
            rc = main(argv + ["--out", str(out)])
            payload = json.loads(out.read_text())
            passes = payload["pass"]
            run_ok = (
                rc == 0
                and passes["i"] is True
                and passes["ii"] is True
                and payload["set_distance_max"] <= eps + 1e-9
                and _independent_check_i(payload)
            )
            if hausdorff:
                run_ok = run_ok and passes["iii"] is True and payload["hausdorff_max"] <= eps + 1e-9
            run_time = time.perf_counter() - t_run
            run_ok = run_ok and run_time < 300.0
            ok = ok and run_ok
            lines.append(
                f"(r={r}, eps={eps}, k={k}{', hausdorff' if hausdorff else ''}): "
                f"exit {rc}, R={payload.get('R_used')}, {run_time:.0f}s"
            )
    report(5, ok, "; ".join(lines) + f"; total {time.perf_counter() - t0:.0f}s")


# -------------------------------------------------------------------------
# criteria 6 + 7: counting bound across runs; corollary sequences
# -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corollary_runs():
    F = poincare_inclusion(2)
    base = SearchParams(1.0, 0.5, 2)
    return F, corollary_sequences(F, k=2, levels=3, base_params=base)


def test_criterion_6_counting_bound(corollary_runs):
    F, cfgs = corollary_runs
    records = []
    for r, eps, k in ((1.0, 0.5, 3), (1.0, 0.25, 2)):
        params = SearchParams(r, eps, k)
        cfg = find_bunched_configuration(F, params)
        records.extend(cfg.history)
    for cfg in cfgs:
        records.extend(cfg.history)
    violations = []
    for rec in records:
        # re-derive (3 C L R + 1)^n from the recorded run parameters
        bound = (3.0 * rec["C"] * rec["L_effective"] * rec["R_effective"] + 1.0) ** rec["n_effective"]
        assert bound == pytest.approx(rec["bound"], rel=1e-9) or math.isinf(rec["bound"])
        if rec["selected"] > bound:
            violations.append(rec)
    ok = not violations and len(records) >= 5
    report(
        6,
        ok,
        f"{len(records)} (R, selected, bound) records across criteria 5/7 searches, "
        f"{len(violations)} violations",
    )


def test_criterion_7_corollary_sequences(corollary_runs):
    t0 = time.perf_counter()
    _, cfgs = corollary_runs
    seps = [c.pairwise_manifold_min for c in cfgs]
    diams = [c.pairwise_image_max for c in cfgs]
    ok = (
        seps[0] >= 2.0 and seps[1] >= 4.0 and seps[2] >= 8.0
        and all(b > a for a, b in zip(seps, seps[1:]))
        and diams[0] <= 0.5 and diams[1] <= 0.25 and diams[2] <= 0.125
        and all(b < a for a, b in zip(diams, diams[1:]))
    )
    # closed-form ray witness: manifold distance 10, image distance < 2e-4
    F = poincare_inclusion(2)
    a = HPoint.from_polar(10.0, [1.0, 0.0])
    b = HPoint.from_polar(20.0, [1.0, 0.0])
    img_a, img_b = F.batch(PolarBatch.of([a, b]))
    gap = float(np.linalg.norm(img_a - img_b))
    ok = ok and distance(a, b) == 10.0 and gap < 2e-4 and (time.perf_counter() - t0) < 300.0
    report(
        7,
        ok,
        f"separations {[round(s, 2) for s in seps]} increasing; diameters "
        f"{[f'{d:.2e}' for d in diams]} decreasing; ray witness gap {gap:.2e} < 2e-4",
    )


# -------------------------------------------------------------------------
# criterion 8: flat-graph counterexample demo
# -------------------------------------------------------------------------


def test_criterion_8_flat_graph(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "demo.json"
    rc = main(["demo-flat", "--K", "8", "--out", str(out)])
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    exact = all(row["extrinsic"] == 2.0 / (row["k"] + 1.0) for row in rows)
    ratio_at_6 = next(row["intrinsic_lo"] / row["extrinsic"] for row in rows if row["k"] == 6)
    stabilized = all(
        row["intrinsic_hi"] >= row["intrinsic_lo"]
        and row["intrinsic_hi"] <= 1.25 * row["intrinsic_lo"]
        for row in rows
    )
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and len(rows) == 8 and exact and ratio_at_6 >= 10.0 and stabilized and elapsed < 120.0
    report(
        8,
        ok,
        f"extrinsic exact 2/(k+1) for k=1..8; intrinsic/extrinsic at k=6: "
        f"{ratio_at_6:.1f} >= 10; {elapsed:.0f}s < 120s",
    )


# -------------------------------------------------------------------------
# criterion 9: numerical stability of the distance kernel
# -------------------------------------------------------------------------


def test_criterion_9_stability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_direct = 0.0
    for _ in range(10_000):
        r1 = rng.uniform(0.0, 15.0)
        r2 = rng.uniform(0.0, min(15.0, 30.0 - r1))
        c = rng.uniform(-1.0, 1.0)
        direct = math.acosh(
            max(1.0, math.cosh(r1) * math.cosh(r2) - math.sinh(r1) * math.sinh(r2) * c)
        )
        worst_direct = max(worst_direct, abs(polar_distance(r1, r2, c) - direct))
    worst_rel = 0.0
    for _ in range(1_000):
        r1 = math.exp(rng.uniform(0.0, math.log(1e4)))
        r2 = math.exp(rng.uniform(0.0, math.log(1e4)))
        c = rng.uniform(-1.0, 1.0)
        got = polar_distance(r1, r2, c)
        worst_rel = max(worst_rel, float(oracle.rel_err(got, oracle.mp_polar_distance(r1, r2, c))))
    elapsed = time.perf_counter() - t0
    ok = worst_direct <= 1e-10 and worst_rel <= 1e-8 and elapsed < 10.0
    report(
        9,
        ok,
        f"agreement with direct arccosh: {worst_direct:.2e} <= 1e-10 (1e4 cases, r1+r2<=30); "
        f"oracle rel err {worst_rel:.2e} <= 1e-8 (1e3 cases, r to 1e4); {elapsed:.1f}s < 10s",
    )


# -------------------------------------------------------------------------
# criterion 10: determinism of artifacts
# -------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    commands = {
        "growth": ["growth", "--C", "1", "--R-from", "3", "--R-to", "12"],
        "pack": ["pack", "--C", "1", "--R", "6", "--m", "2"],
        "search": [
            "search", "--map", "poincare", "--m", "2",
            "--r", "1", "--eps", "0.5", "--k", "3",
        ],
        "search_hausdorff": [
            "search", "--map", "poincare", "--m", "2",
            "--r", "1", "--eps", "0.5", "--k", "2", "--hausdorff",
        ],
        "demo": ["demo-flat", "--K", "6"],
    }
    mismatched = []
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(a)]) == main(argv + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            mismatched.append(name)
    ok = not mismatched
    report(10, ok, f"byte-identical artifacts for {sorted(commands)}; mismatches: {mismatched}")
