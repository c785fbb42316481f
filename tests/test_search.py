import math

import numpy as np
import pytest

from conftest import poincare_at
from oracle_utils import brute_hausdorff, brute_set_distance_max
import hypack.search
from hypack.geometry import HPoint, HTangent, PolarBatch, distance, exp_map, sample_ball, transport_frame
from hypack.maps import LipschitzMapHandle, busemann_map, ideal_point, poincare_inclusion
from hypack.nets import build_reference_net, transport_net
from hypack.packing import PackingSpec, generate_centers
from hypack.search import (
    ScheduleExhausted,
    SearchParams,
    _sample_ball_points,
    _set_distance_max,
    augment_map,
    ball_volume_constant,
    certify_configuration,
    choose_C_hausdorff,
    choose_C_setdist,
    corollary_sequences,
    counting_upper_bound,
    default_schedule,
    find_bunched_configuration,
    greedy_separated_subfamily,
    hausdorff_distance_estimate,
    theta_assignment,
)


def constant_map(m=2, n=2):
    return LipschitzMapHandle(fn=lambda pts: np.zeros((len(pts), n)), L=1e-9, n=n, m=m, label="const")


class TestParameterChoosers:
    def test_setdist_formula(self):
        assert choose_C_setdist(1.0, 0.5) == 8.0

    def test_setdist_small_r_limit(self):
        assert choose_C_setdist(1e-12, 0.5) == pytest.approx(4.0, abs=1e-9)

    def test_setdist_guarantee_chain(self):
        # 2C - 2r > 1/eps for the chosen C, on a grid
        for r in np.linspace(0.1, 10.0, 12):
            for eps in np.linspace(0.01, 0.99, 12):
                C = choose_C_setdist(r, eps)
                assert 2.0 * C - 2.0 * r > 1.0 / eps

    def test_hausdorff_formula(self):
        assert choose_C_hausdorff(1.0, 0.5) == 8.0
        assert choose_C_hausdorff(100.0, 0.5) == 101.0
        assert choose_C_hausdorff(1e-12, 1.0 - 1e-12) == pytest.approx(4.0, abs=1e-6)

    def test_hausdorff_guarantee_chain(self):
        for r in np.linspace(0.1, 10.0, 12):
            for eps in np.linspace(0.01, 0.99, 12):
                C = choose_C_hausdorff(r, eps)
                assert 2.0 * C - 2.0 * r >= 1.0 / eps - 1e-12
                assert C >= 4.0 / eps - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_C_setdist(-1.0, 0.5)
        with pytest.raises(ValueError):
            choose_C_setdist(1.0, 1.5)


class TestGreedySeparated:
    def test_identical_images_select_one(self):
        imgs = np.zeros((5, 2))
        sf = greedy_separated_subfamily([None] * 5, imgs, 1.0)
        assert list(sf.selected) == [0]
        assert sf.verify(imgs)

    def test_all_far_apart_select_all(self):
        imgs = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        sf = greedy_separated_subfamily([None] * 3, imgs, 1.0)
        assert list(sf.selected) == [0, 1, 2]

    def test_line_hand_case(self):
        imgs = np.array([[0.0], [0.4], [0.9], [1.3]])
        sf = greedy_separated_subfamily([None] * 4, imgs, 1.0)
        assert list(sf.selected) == [0, 3]
        assert sf.verify(imgs)

    def test_verify_catches_violations(self):
        imgs = np.array([[0.0], [0.5], [2.0]])
        from hypack.search import SeparatedFamily

        bad = SeparatedFamily(selected=np.array([0, 1]), images=imgs[:2], separation=1.0)
        assert not bad.verify(imgs)


class TestCountingBound:
    def test_substitution_example(self):
        assert counting_upper_bound(3.0, 8.0, 0.5, 2) == pytest.approx(1369.0, rel=1e-12)

    def test_constant_map_limit(self):
        assert counting_upper_bound(3.0, 8.0, 0.0, 2) == 1.0

    def test_log_domain_guard(self):
        assert counting_upper_bound(1e6, 1e6, 1.0, 1000) == math.inf

    def test_ball_volume_constant(self):
        assert ball_volume_constant(2) == pytest.approx(math.pi, rel=1e-12)
        assert ball_volume_constant(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


class TestThetaAssignment:
    def test_nothing_left_over(self):
        imgs = np.array([[0.0], [5.0]])
        sf = greedy_separated_subfamily([None] * 2, imgs, 1.0)
        fibers = theta_assignment(2, sf, imgs)
        assert fibers.fibers == {}

    def test_single_selected_one_fiber(self):
        imgs = np.zeros((6, 2))
        sf = greedy_separated_subfamily([None] * 6, imgs, 1.0)
        fibers = theta_assignment(6, sf, imgs)
        assert list(fibers.fibers) == [0]
        assert fibers.fibers[0] == [1, 2, 3, 4, 5]

    def test_fibers_partition_leftovers(self):
        rng = np.random.default_rng(3)
        imgs = rng.random((40, 2))
        sf = greedy_separated_subfamily([None] * 40, imgs, 0.3)
        fibers = theta_assignment(40, sf, imgs)
        members = sorted(i for fiber in fibers.fibers.values() for i in fiber)
        expected = sorted(set(range(40)) - set(sf.selected.tolist()))
        assert members == expected

    def test_tie_breaks_to_lowest_index(self):
        imgs = np.array([[0.0], [2.0], [1.0]])  # leftover 2 equidistant to 0 and 1
        sf = greedy_separated_subfamily([None] * 3, imgs, 1.5)
        assert list(sf.selected) == [0, 1]
        fibers = theta_assignment(3, sf, imgs)
        assert fibers.fibers == {0: [2]}


class TestSearchParams:
    def test_setdist_C_enforced(self):
        with pytest.raises(ValueError):
            SearchParams(r=1.0, epsilon=0.5, k=2, C=7.0, R_schedule=(20.0,))

    def test_hausdorff_C_threshold(self):
        with pytest.raises(ValueError):
            SearchParams(r=1.0, epsilon=0.5, k=2, C=7.0, R_schedule=(20.0,), hausdorff=True)

    def test_schedule_must_exceed_2C(self):
        with pytest.raises(ValueError):
            SearchParams.derive(1.0, 0.5, 2, R_schedule=(15.0,))

    def test_default_schedule_ladder(self):
        sched = default_schedule(8.0, 100_000)
        assert sched[0] == 18.0
        diffs = [b - 16.0 for b in sched]
        assert diffs == [2.0 * 2.0**i for i in range(len(sched))]


class TestFindBunched:
    def test_constant_map_first_rung(self):
        params = SearchParams.derive(1.0, 0.5, 3, m=2, cap=1_000)
        cfg = find_bunched_configuration(constant_map(), params)
        assert cfg.R_used == params.R_schedule[0]
        assert cfg.pairwise_image_max == 0.0
        assert cfg.pairwise_manifold_min >= 2.0 * params.C - 1e-9

    def test_poincare_k3(self):
        F = poincare_inclusion(2)
        params = SearchParams.derive(1.0, 0.5, 3, m=2)
        cfg = find_bunched_configuration(F, params)
        assert cfg.k == 3
        assert cfg.pairwise_manifold_min >= 16.0 - 1e-9
        assert cfg.pairwise_image_max < 0.25 + 1e-9
        # independent recheck through the distance oracle on stored centers
        for i in range(3):
            for j in range(i + 1, 3):
                d = distance(cfg.centers[i], cfg.centers[j])
                assert d >= 16.0 - 1e-6  # polar storage resolution at R ~ 20

    def test_busemann_small_schedule_exhausts(self):
        B = busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])])
        params = SearchParams.derive(1.0, 0.5, 2, m=2, R_schedule=(16.5,))
        with pytest.raises(ScheduleExhausted) as exc:
            find_bunched_configuration(B, params)
        diag = exc.value.diagnostics
        assert len(diag) == 1
        assert diag[0]["largest_fiber"] < 2

    def test_counting_bound_respected(self):
        F = poincare_inclusion(2)
        params = SearchParams.derive(1.0, 0.5, 3, m=2)
        cfg = find_bunched_configuration(F, params)
        bound = counting_upper_bound(cfg.R_used, cfg.C, F.L, F.n)
        assert cfg.selected_count <= bound


@pytest.fixture(scope="module")
def poincare_cfg():
    F = poincare_inclusion(2)
    params = SearchParams.derive(1.0, 0.5, 3, m=2)
    cfg = find_bunched_configuration(F, params)
    return F, cfg


class TestCertify:
    def test_constant_map_trivial(self):
        F = constant_map()
        params = SearchParams.derive(1.0, 0.5, 2, m=2, cap=500)
        cfg = find_bunched_configuration(F, params)
        cert = certify_configuration(F, cfg, samples=64, seed=9)
        assert cert.pass_i and cert.pass_ii
        assert cert.set_distance_max == 0.0

    def test_poincare_all_pass(self, poincare_cfg):
        F, cfg = poincare_cfg
        cert = certify_configuration(F, cfg, samples=128, seed=10)
        assert cert.pass_i and cert.pass_ii
        assert cert.separation_min >= cert.separation_required
        assert cert.set_distance_max <= cfg.epsilon

    def test_corrupted_configuration_fails(self, poincare_cfg):
        from dataclasses import replace

        F, cfg = poincare_cfg
        # basepoint corruption breaks the 2C proof invariant (the center
        # radius R - C always exceeds 2r + 1/eps, so conclusion (i) itself
        # survives this particular corruption)
        bad = replace(
            cfg,
            centers=PolarBatch.of([HPoint.origin(2), *cfg.centers[1:]]),
            alpha=None,
            indices=None,
        )
        cert = certify_configuration(F, bad, samples=32, seed=11)
        assert not cert.separation_2C_ok
        assert not cert.ok
        # a near-duplicate center breaks conclusion (i) outright
        v = HTangent.at(cfg.centers[1], [0.0, 1.0, 0.0], project=True)
        nearby = exp_map(v.scaled(0.5 / v.norm))
        worse = replace(cfg, centers=PolarBatch.of([nearby, cfg.centers[1]]), alpha=None, indices=None)
        cert = certify_configuration(F, worse, samples=32, seed=11)
        assert not cert.pass_i

    def test_hausdorff_pipeline_certifies_iii(self):
        F = poincare_inclusion(2)
        net = build_reference_net(1.0, 0.5, 2)
        params = SearchParams.derive(1.0, 0.5, 2, hausdorff=True, m=2)
        cfg = find_bunched_configuration(F, params, net=net)
        cert = certify_configuration(F, cfg, net=net, samples=64, seed=12)
        assert cert.pass_i and cert.pass_ii and cert.pass_iii
        assert cert.hausdorff_max <= 0.5

    def test_all_nets_in_one_transport_call(self, poincare_cfg, monkeypatch):
        F, cfg = poincare_cfg
        calls = []

        def counting(tmpl, points):
            calls.append(len(points))
            return transport_net(tmpl, points)

        monkeypatch.setattr(hypack.search, "transport_net", counting)
        assert certify_configuration(F, cfg, samples=16, seed=3).ok
        assert calls == [cfg.k]

    def test_setdist_pipeline_skips_iii(self, poincare_cfg):
        F, cfg = poincare_cfg
        cert = certify_configuration(F, cfg, samples=32, seed=13)
        assert cert.pass_iii is None and cert.hausdorff_max is None


class TestRowPaths:
    """Batched evaluation against the per-point scalar path, bit for bit."""

    def test_augmented_map_matches_per_point_concatenation(self):
        F = poincare_inclusion(2)
        net = build_reference_net(1.0, 0.5, 2)
        centers = generate_centers(PackingSpec.at_origin(4.0, 14.0, 2), cap=60).centers
        expected = np.array(
            [np.concatenate([poincare_at(s) for s in transport_net(net, centers[i : i + 1])])
             for i in range(len(centers))]
        )
        assert np.array_equal(augment_map(F, net).batch(centers), expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_ball_samples_match_per_row_exp(self, m):
        # a direction off the axes: there a plain (N, m) @ frame rounds differently at m = 3
        p = HPoint.from_polar(18.0, np.linspace(0.3, -0.8, m))
        got = _sample_ball_points(p, 1.0, 300, np.random.default_rng(3))
        frame = transport_frame(p)
        X = sample_ball(m, 1.0, 300, np.random.default_rng(3))
        for q, x in zip(got, X):
            ref = exp_map(HTangent(p, x @ frame, float(np.linalg.norm(x))))
            assert q.r == ref.r
            assert np.array_equal(q.direction, ref.direction)
            assert np.array_equal(q.coords_extended, ref.coords_extended)


class TestHausdorffEstimate:
    def test_identical_sets(self):
        A = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert hausdorff_distance_estimate(A, A) == 0.0

    def test_singletons(self):
        assert hausdorff_distance_estimate([[0.0]], [[3.0]]) == 3.0

    def test_directed_asymmetry(self):
        A = np.array([[0.0], [10.0]])
        B = np.array([[0.0]])
        assert hausdorff_distance_estimate(A, B) == 10.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            A = rng.random((6, 3))
            B = rng.random((5, 3))
            Cs = rng.random((7, 3))
            ab = hausdorff_distance_estimate(A, B)
            assert ab == hausdorff_distance_estimate(B, A)
            ac = hausdorff_distance_estimate(A, Cs)
            cb = hausdorff_distance_estimate(Cs, B)
            assert ab <= ac + cb + 1e-12

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff_distance_estimate(np.zeros((0, 2)), np.zeros((1, 2)))


class TestCorollarySequences:
    def test_poincare_three_levels(self):
        F = poincare_inclusion(2)
        base = SearchParams.derive(1.0, 0.5, 2, m=2)
        cfgs = corollary_sequences(F, k=2, levels=3, base_params=base)
        seps = [c.pairwise_manifold_min for c in cfgs]
        diams = [c.pairwise_image_max for c in cfgs]
        assert seps[0] >= 2.0 and seps[1] >= 4.0 and seps[2] >= 8.0
        assert all(b > a for a, b in zip(seps, seps[1:]))
        assert diams[0] <= 0.5 and diams[1] <= 0.25 and diams[2] <= 0.125
        assert all(b < a for a, b in zip(diams, diams[1:]))

    def test_single_level(self):
        F = poincare_inclusion(2)
        base = SearchParams.derive(1.0, 0.5, 2, m=2)
        cfgs = corollary_sequences(F, k=2, levels=1, base_params=base)
        assert len(cfgs) == 1

    def test_constant_map_zero_diameters(self):
        base = SearchParams.derive(1.0, 0.5, 2, m=2, cap=500)
        cfgs = corollary_sequences(constant_map(), k=2, levels=3, base_params=base)
        assert all(c.pairwise_image_max == 0.0 for c in cfgs)
        seps = [c.pairwise_manifold_min for c in cfgs]
        assert all(b > a for a, b in zip(seps, seps[1:]))

    def test_closed_form_ray_witness(self):
        # two points on one ray: manifold distance t, image distance
        # tanh(t) - tanh(t/2) -> 0; a search-free compression witness
        F = poincare_inclusion(2)
        a = HPoint.from_polar(10.0, [1.0, 0.0])
        b = HPoint.from_polar(20.0, [1.0, 0.0])
        assert distance(a, b) == pytest.approx(10.0, abs=1e-12)
        img_a, img_b = F.batch(PolarBatch.of([a, b]))
        img_gap = float(np.linalg.norm(img_a - img_b))
        assert img_gap < 2e-4
        assert img_gap == pytest.approx(math.tanh(10.0) - math.tanh(5.0), rel=1e-9)


class TestTreeDistances:
    """Tree-backed set and Hausdorff distances equal full-cdist scans exactly."""

    @staticmethod
    def clouds(kind, k, n, rng):
        if kind == "lattice":  # integer points: duplicates and exact ties everywhere
            return [rng.integers(0, 4, (int(rng.integers(1, 60)), n)).astype(float) for _ in range(k)]
        clouds = [rng.standard_normal((1, n))]  # a single-point cloud
        for _ in range(k - 1):
            clouds.append(rng.standard_normal((int(rng.integers(2, 300)), n)) + rng.uniform(-1, 1, n))
        if kind == "duplicates":  # shared points and repeated rows
            clouds[1] = np.vstack([clouds[1], clouds[0], clouds[1][:3]])
            clouds[-1] = np.vstack([clouds[-1][:5], clouds[-1]])
        return clouds

    @pytest.mark.parametrize("kind", ["random", "duplicates", "lattice"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_equal_to_full_cdist(self, kind, k):
        rng = np.random.default_rng(1000 * k + len(kind))
        for n in (3, 40):
            clouds = self.clouds(kind, k, n, rng)
            assert _set_distance_max(clouds) == brute_set_distance_max(clouds)
            for A, B in zip(clouds, clouds[1:]):
                assert hausdorff_distance_estimate(A, B) == brute_hausdorff(A, B)

    def test_rows_tied_in_exact_arithmetic(self):
        # a and a[P] are equally far from {b, b[P]}; the tree and cdist sum the
        # squares in different orders, so they can rank the two rows oppositely
        rng = np.random.default_rng(5)
        for _ in range(200):
            P = rng.permutation(40)
            a, b = rng.standard_normal(40), rng.standard_normal(40) + 0.5
            A, B = np.array([a, a[P]]), np.array([b, b[P]])
            assert _set_distance_max([A, B]) == brute_set_distance_max([A, B])
            assert hausdorff_distance_estimate(A, B) == brute_hausdorff(A, B)
