import math
import re
import tracemalloc
from dataclasses import replace
from functools import cached_property
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import PINWHEEL_C, PINWHEEL_R_MAX, pinwheel_map, poincare_at, time_limit
from oracle_utils import (
    brute_close_pairs,
    brute_hausdorff,
    brute_set_distance_max,
    full_cdist_theta,
    full_cdist_verify,
    loop_best_window,
    loop_separated_subfamily,
    tangent_ball,
)
import hypack.geometry
import hypack.search
from hypack.geometry import (
    HPoint,
    PolarBatch,
    _row_blocks,
    distance,
    exp_map,
    exp_rows,
    transport_frame,
)
from hypack.maps import LipschitzMapHandle, busemann_map, ideal_point, poincare_inclusion
from hypack.nets import build_reference_net, transport_net
from hypack.packing import CAP_MAX, direction_count, generate_centers, packing_angle
from hypack.search import (
    ScheduleExhausted,
    SearchParams,
    SeparatedFamily,
    ThetaFibers,
    _best_window,
    _CellGrid,
    _close_pairs,
    _pair_cdist,
    _pairwise_max,
    certificate_net,
    certify_configuration,
    choose_C_hausdorff,
    choose_C_setdist,
    corollary_sequences,
    counting_upper_bound,
    default_schedule,
    find_bunched_configuration,
    greedy_separated_subfamily,
    net_images,
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
        sf = greedy_separated_subfamily(imgs, 1.0)
        assert list(sf.selected) == [0]
        assert theta_assignment(sf, imgs).fibers == {0: [1, 2, 3, 4]}

    def test_all_far_apart_select_all(self):
        imgs = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        sf = greedy_separated_subfamily(imgs, 1.0)
        assert list(sf.selected) == [0, 1, 2]

    def test_line_hand_case(self):
        imgs = np.array([[0.0], [0.4], [0.9], [1.3]])
        sf = greedy_separated_subfamily(imgs, 1.0)
        assert list(sf.selected) == [0, 3]
        assert theta_assignment(sf, imgs).fibers == {0: [1], 3: [2]}

    def test_verify_catches_violations(self):
        imgs = np.array([[0.0], [0.5], [2.0]])
        bad = SeparatedFamily(selected=np.array([0, 1]), separation=1.0)
        with pytest.raises(AssertionError, match="separation"):
            theta_assignment(bad, imgs)
        # and a leftover that no selected image covers
        sparse = SeparatedFamily(selected=np.array([0]), separation=1.0)
        with pytest.raises(AssertionError, match="maximality"):
            theta_assignment(sparse, imgs)

    def test_close_pair_without_leftovers_is_refused(self):
        # every image is selected, so only the separation check can see the pair
        imgs = np.array([[0.0], [0.5]])
        fam = SeparatedFamily(selected=np.array([0, 1]), separation=1.0)
        with pytest.raises(AssertionError, match="separation"):
            theta_assignment(fam, imgs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_refused(self, bad):
        imgs = np.zeros((4, 3))
        imgs[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            greedy_separated_subfamily(imgs, 1.0)

    @pytest.mark.parametrize("sep", [float("nan"), 0.0, -1.0])
    def test_separation_not_above_zero_refused(self, sep):
        with pytest.raises(ValueError, match="separation must be > 0"):
            greedy_separated_subfamily(np.zeros((4, 3)), sep)


class TestCountingBound:
    def test_substitution_example(self):
        assert counting_upper_bound(3.0, 8.0, 0.5, 2) == pytest.approx(1369.0, rel=1e-12)

    def test_constant_map_limit(self):
        assert counting_upper_bound(3.0, 8.0, 0.0, 2) == 1.0

    def test_log_domain_guard(self):
        assert counting_upper_bound(1e6, 1e6, 1.0, 1000) == math.inf


class TestThetaAssignment:
    def test_nothing_left_over(self):
        imgs = np.array([[0.0], [5.0]])
        sf = greedy_separated_subfamily(imgs, 1.0)
        fibers = theta_assignment(sf, imgs)
        assert fibers.fibers == {}

    def test_single_selected_one_fiber(self):
        imgs = np.zeros((6, 2))
        sf = greedy_separated_subfamily(imgs, 1.0)
        fibers = theta_assignment(sf, imgs)
        assert list(fibers.fibers) == [0]
        assert fibers.fibers[0] == [1, 2, 3, 4, 5]

    def test_fibers_partition_leftovers(self):
        rng = np.random.default_rng(3)
        imgs = rng.random((40, 2))
        sf = greedy_separated_subfamily(imgs, 0.3)
        fibers = theta_assignment(sf, imgs)
        members = sorted(i for fiber in fibers.fibers.values() for i in fiber)
        expected = sorted(set(range(40)) - set(sf.selected.tolist()))
        assert members == expected

    def test_tie_breaks_to_lowest_index(self):
        imgs = np.array([[0.0], [2.0], [1.0]])  # leftover 2 equidistant to 0 and 1
        sf = greedy_separated_subfamily(imgs, 1.5)
        assert list(sf.selected) == [0, 1]
        fibers = theta_assignment(sf, imgs)
        assert fibers.fibers == {0: [2]}

    def test_largest_of_equal_fibers_is_the_lowest_anchor(self):
        # two fibers of two members each; the higher anchor's members come first in one case
        for imgs, expected, largest in (
            ([[0.0], [10.0], [0.1], [10.1], [0.2], [10.2]], {0: [2, 4], 1: [3, 5]}, [2, 4]),
            ([[0.0], [10.0], [10.1], [0.1], [10.2], [0.2]], {1: [2, 4], 0: [3, 5]}, [3, 5]),
        ):
            fib = theta_assignment(greedy_separated_subfamily(np.array(imgs), 1.0), np.array(imgs))
            assert fib.fibers == expected and list(fib.fibers) == list(expected)
            assert fib.largest == (0, largest)
        # selected out of order: ties still go to the lowest anchor, not the first position
        fib = ThetaFibers(selected=np.array([7, 3]), leftovers=np.array([0, 1, 2, 4]), nearest=np.array([0, 1, 0, 1]))
        assert fib.largest == (3, [1, 4])
        assert fib.fibers == {7: [0, 2], 3: [1, 4]} and list(fib.fibers) == [7, 3]
        # a strictly larger fiber wins over a lower anchor
        fib = ThetaFibers(selected=np.array([3, 7]), leftovers=np.array([0, 1, 2]), nearest=np.array([1, 0, 1]))
        assert fib.largest == (7, [0, 2])

    def test_largest_without_leftovers(self):
        imgs = np.array([[0.0], [5.0]])
        fib = theta_assignment(greedy_separated_subfamily(imgs, 1.0), imgs)
        assert len(fib.leftovers) == 0 and fib.largest == (-1, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_refused(self, bad):
        imgs = np.array([[0.0], [0.5], [2.0]])
        fam = greedy_separated_subfamily(imgs, 1.0)
        imgs[1, 0] = bad
        with pytest.raises(ValueError, match="theta_assignment: images must be a non-empty finite 2-d array"):
            theta_assignment(fam, imgs)

    @pytest.mark.parametrize("imgs", [np.zeros(3), np.zeros((0, 2)), np.zeros((3, 0))])
    def test_one_dimensional_or_empty_images_refused(self, imgs):
        fam = SeparatedFamily(selected=np.array([0]), separation=1.0)
        with pytest.raises(ValueError, match="theta_assignment: images must be a non-empty finite 2-d array"):
            theta_assignment(fam, imgs)

    @pytest.mark.parametrize("selected", [[3], [-1], [0, 5], [0.0]])
    def test_selected_outside_the_rows_refused(self, selected):
        fam = SeparatedFamily(selected=np.array(selected), separation=1.0)
        with pytest.raises(ValueError, match=r"selected must be 1-d integers in \[0, 3\)"):
            theta_assignment(fam, np.array([[0.0], [0.5], [2.0]]))


class TestCertificateNet:
    def test_net_slack_is_half_epsilon(self):
        F = busemann_map([ideal_point(d) for d in np.eye(2)])
        net = hypack.search.certificate_net(F, 1.0, 0.25)
        assert net.rho == 1.0 and net.m == 2
        assert F.L * net.delta == pytest.approx(0.125, rel=1e-15)


class TestSearchParams:
    def test_schedule_must_exceed_2C(self):
        # 2C = 16 for r = 1, eps = 0.5; R_max below it leaves the rung R_max
        assert SearchParams(1.0, 0.5, 2, R_max=16.5).R_schedule == (16.5,)
        with pytest.raises(ValueError, match="exceed 2C"):
            SearchParams(1.0, 0.5, 2, R_max=15.0)

    def test_R_max_drops_higher_rungs(self):
        full = SearchParams(1.0, 0.5, 2).R_schedule
        assert full == default_schedule(choose_C_setdist(1.0, 0.5), 100_000)
        assert SearchParams(1.0, 0.5, 2, R_max=full[1]).R_schedule == full[:2]
        # no rung left: one rung at R_max itself
        assert SearchParams(1.0, 0.5, 2, R_max=16.5).R_schedule == (16.5,)

    def test_replace_keeps_the_schedule(self):
        params = SearchParams(1.0, 0.5, 2, hausdorff=True, R_max=30.0)
        assert replace(params, k=4).R_schedule == params.R_schedule

    def test_replace_rederives_the_schedule(self):
        params = SearchParams(1.0, 0.5, 2, R_max=60.0)
        new = replace(params, epsilon=0.25)
        full = default_schedule(choose_C_setdist(1.0, 0.25), params.cap)
        assert new.C == choose_C_setdist(1.0, 0.25) != params.C
        assert new.R_schedule == tuple(R for R in full if R <= 60.0)
        assert new.R_schedule != params.R_schedule

    def test_schedule_is_not_an_input(self):
        # nor is C, which the chooser derives once
        for name, value in (("R_schedule", (20.0,)), ("C", 8.0)):
            with pytest.raises(TypeError):
                SearchParams(1.0, 0.5, 2, **{name: value})
            with pytest.raises(ValueError, match="init=False"):
                replace(SearchParams(1.0, 0.5, 2), **{name: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # the first rung's centers lie at radius C + 2
            ({"r": 1e300}, "r=1e+300 and epsilon=0.5 give C=4e+300: the first rung puts its centers at radius 4e+300"),
            # an R_max at or below 2C = 16, NaN included
            ({"R_max": math.nan}, "r=1.0 and epsilon=0.5 give C=8: R_max=nan must exceed 2C=16"),
            ({"r": 1e16, "hausdorff": True}, "r=1e+16 and epsilon=0.5 give C=1e+16: the first rung"),
            # by epsilon alone, at r = 1, up to a C that overflows
            ({"epsilon": 1e-300}, "r=1.0 and epsilon=1e-300 give C=2e+300: the first rung"),
            ({"epsilon": 1e-320}, "r=1.0 and epsilon=1e-320 give C=inf: the first rung puts its centers at radius inf"),
            ({"R_max": 5.0}, "r=1.0 and epsilon=0.5 give C=8: R_max=5.0 must exceed 2C=16"),
            ({"R_max": 16.0}, "R_max=16.0 must exceed 2C=16"),
        ],
    )
    def test_bad_schedule_raises(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)) as refused:
            SearchParams(**{"r": 1.0, "epsilon": 0.5, "k": 2, **kwargs})
        assert "too large" not in str(refused.value)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(1e-3, 100.0),
        epsilon=st.floats(5e-3, 0.999),
        hausdorff=st.booleans(),
        cap=st.integers(2, CAP_MAX),
        R_max=st.none() | st.floats(0.0, 1000.0) | st.sampled_from([math.nan, math.inf]),
    )
    def test_every_constructed_ladder_is_usable(self, r, epsilon, hausdorff, cap, R_max):
        # whatever SearchParams accepts, its first rung's centers are
        # representable and its ladder strictly increases above 2C
        try:
            params = SearchParams(r, epsilon, 2, hausdorff=hausdorff, cap=cap, R_max=R_max)
        except ValueError:
            return
        sched = params.R_schedule
        assert sched[0] - params.C <= hypack.geometry.EXP_RADIUS_MAX
        assert sched[0] > 2.0 * params.C
        assert all(b > a for a, b in zip(sched, sched[1:]))

    def test_default_schedule_ladder(self):
        # rung i sits at 2C + 2 + i ln 4, computed from i (no rounding
        # accumulates), so the uncapped family pi/alpha grows 4x per rung
        step = math.log(4.0)
        for C in (0.26, 1.0, 8.0, 170.0):
            sched = default_schedule(C, 100_000)
            assert sched == tuple(2.0 * C + (2.0 + i * step) for i in range(len(sched)))
            for i, R in enumerate(sched):
                assert R - 2.0 * C == pytest.approx(2.0 + i * step, rel=0.0, abs=2.0 * math.ulp(R))
            uncapped = [math.pi / packing_angle(C, R) for R in sched]
            assert all(3.9 <= b / a <= 4.1 for a, b in zip(uncapped, uncapped[1:]))
            # the family counts floor those: at C = 1 the first rung's 26.7
            # directions give 26 centers, and 107 / 26 = 4.12
            family = [direction_count(packing_angle(C, R)) + 1 for R in sched]
            assert all(3.9 <= b / a <= 4.2 for a, b in zip(family, family[1:]))
        assert [direction_count(packing_angle(8.0, R)) + 1 for R in default_schedule(8.0, 100)[:4]] == [
            23, 92, 371, 1485
        ]
        assert [direction_count(packing_angle(0.26, R)) + 1 for R in default_schedule(0.26, 100)[:3]] == [
            56, 228, 915
        ]

    @pytest.mark.parametrize("cap", [2, 1_000, 100_000, CAP_MAX])
    def test_default_schedule_stops_one_rung_past_ten_caps(self, cap):
        # the last rung is the first whose uncapped family pi/alpha exceeds
        # 10 cap; _MAX_RUNGS never ends the ladder first
        for C in [0.26, 1.0, 8.0, 170.0, *np.geomspace(0.01, 700.0, 41)]:
            sched = default_schedule(C, cap)
            over = [math.pi / packing_angle(C, R) > 10.0 * cap for R in sched]
            assert over == [False] * (len(sched) - 1) + [True]
            assert len(sched) <= 11 < hypack.search._MAX_RUNGS


class TestFindBunched:
    def test_fiber_anchor_is_one_row_near_every_member(self):
        # the anchor is the selected center whose image is nearest to each
        # member's, closer than the separation 1/C
        F = poincare_inclusion(2)
        params = SearchParams(1.0, 0.5, 3)
        cfg = find_bunched_configuration(F, params)
        assert isinstance(cfg.fiber_anchor, PolarBatch) and len(cfg.fiber_anchor) == 1
        assert cdist(F.batch(cfg.fiber_anchor), F.batch(cfg.centers)).max() < 1.0 / params.C

    def test_constant_map_first_rung(self):
        params = SearchParams(1.0, 0.5, 3, cap=1_000)
        cfg = find_bunched_configuration(constant_map(), params)
        assert cfg.R_used == params.R_schedule[0]
        assert cfg.pairwise_image_max == 0.0
        assert cfg.pairwise_manifold_min >= 2.0 * params.C - 1e-9

    def test_poincare_k3(self):
        F = poincare_inclusion(2)
        params = SearchParams(1.0, 0.5, 3)
        cfg = find_bunched_configuration(F, params)
        assert cfg.k == 3
        assert cfg.pairwise_manifold_min >= 16.0 - 1e-9
        assert cfg.pairwise_image_max < 0.25 + 1e-9
        # independent recheck through the distance oracle on stored centers
        for i in range(3):
            for j in range(i + 1, 3):
                d = distance(cfg.centers[i], cfg.centers[j])
                assert d >= 16.0 - 1e-6  # polar storage resolution at R ~ 20

    def test_ladder_families_until_the_first_k_fiber(self):
        # set distance, Busemann m = 3, k = 8 (C = 8): the rungs 18 and
        # 18 + ln 4 hold fibers of 0 and 4, and 18 + 2 ln 4 the first of 8
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 8))
        assert [h["family"] for h in cfg.history] == [23, 92, 371]
        assert cfg.R_used == cfg.history[-1]["R"] == cfg.params.R_schedule[2]
        assert all(h["largest_fiber"] < 8 for h in cfg.history[:-1])
        # Hausdorff, Poincare m = 2, k = 2: no 2-fiber among 23 centers
        cfg = find_bunched_configuration(poincare_inclusion(2), SearchParams(1.0, 0.5, 2, hausdorff=True))
        assert [h["family"] for h in cfg.history] == [23, 92]

    def test_busemann_small_schedule_exhausts(self):
        B = busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])])
        params = SearchParams(1.0, 0.5, 2, R_max=16.5)
        with pytest.raises(ScheduleExhausted) as exc:
            find_bunched_configuration(B, params)
        diag = exc.value.diagnostics
        assert len(diag) == 1
        assert diag[0]["largest_fiber"] < 2

    def test_counting_bound_respected(self):
        F = poincare_inclusion(2)
        params = SearchParams(1.0, 0.5, 3)
        cfg = find_bunched_configuration(F, params)
        bound = counting_upper_bound(cfg.R_used, cfg.params.C, F.L, F.n)
        assert cfg.selected_count <= bound


@pytest.fixture(scope="module")
def poincare_cfg():
    F = poincare_inclusion(2)
    params = SearchParams(1.0, 0.5, 3)
    cfg = find_bunched_configuration(F, params)
    return F, cfg


class TestCertify:
    def test_constant_map_trivial(self):
        F = constant_map()
        params = SearchParams(1.0, 0.5, 2, cap=500)
        cfg = find_bunched_configuration(F, params)
        cert = certify_configuration(F, cfg)
        assert cert.pass_i and cert.pass_ii
        assert cert.set_distance_max == 0.0

    def test_poincare_all_pass(self, poincare_cfg):
        F, cfg = poincare_cfg
        cert = certify_configuration(F, cfg)
        assert cert.pass_i and cert.pass_ii
        assert cert.separation_min >= 1.0 / cfg.params.epsilon
        assert cert.set_distance_max <= cfg.params.epsilon

    def test_corrupted_configuration_fails(self, poincare_cfg):
        from dataclasses import replace

        F, cfg = poincare_cfg
        i0, i1, i2 = cfg.indices
        # half a packing angle between two centers breaks the 2C proof
        # invariant, but at the center radius R - C the pair is still more
        # than 2r + 1/eps apart, so conclusion (i) itself survives
        bad = replace(cfg, indices=(i0, i0 + 0.5, i2))
        cert = certify_configuration(F, bad)
        assert cert.pass_i
        assert not cert.separation_2C_ok
        assert not cert.ok
        # a near-duplicate center breaks conclusion (i) outright
        worse = replace(cfg, indices=(i0, i1, i1 + 1e-4))
        cert = certify_configuration(F, worse)
        assert not cert.pass_i

    def test_hausdorff_pipeline_certifies_iii(self):
        F = poincare_inclusion(2)
        params = SearchParams(1.0, 0.5, 2, hausdorff=True)
        cfg = find_bunched_configuration(F, params)
        # the certificate net for r, eps is the reference net at delta = eps/(2L)
        net = hypack.search.certificate_net(F, 1.0, 0.5)
        ref = build_reference_net(1.0, 0.5, 2)
        assert (net.rho, net.delta) == (ref.rho, ref.delta)
        assert np.array_equal(net.tangent_points, ref.tangent_points)
        cert = certify_configuration(F, cfg)
        assert cert.pass_i and cert.pass_ii and cert.pass_iii
        assert cert.hausdorff_max <= 0.5

    def test_all_nets_in_one_transport_call(self, monkeypatch):
        F = poincare_inclusion(2)
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 2, hausdorff=True))
        calls = []

        def counting(tmpl, points):
            calls.append(len(points))
            return transport_net(tmpl, points)

        monkeypatch.setattr(hypack.search, "transport_net", counting)
        assert certify_configuration(F, cfg).ok
        assert calls == [cfg.k]

    @pytest.mark.parametrize("m", [2, 3, 13])
    @pytest.mark.parametrize("label", ["poincare", "busemann"])
    def test_set_distance_bound_is_the_searchs_image_diameter(self, label, m):
        # (ii) is bounded by the center images, recomputed by the certifier;
        # on the plain ladder they are the window the search measured
        F = poincare_inclusion(m) if label == "poincare" else busemann_map([ideal_point(d) for d in np.eye(m)])
        with time_limit(30.0):
            cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 3))
            cert = certify_configuration(F, cfg)
        assert cfg.ladder == "plain" and cert.ok
        assert cert.set_distance_max == cfg.pairwise_image_max
        assert 0.0 < cert.set_distance_max < 2.0 / cfg.params.C

    @pytest.mark.parametrize("m", [2, 3])
    def test_set_distance_bound_is_sound_on_sampled_balls(self, m):
        # any point of B_i and any of B_j bound d(F(B_i), F(B_j)) from above, so
        # the set distance of sampled clouds, centers included, is at most the
        # center bound; the samples lower it by well under 1 %
        F = busemann_map([ideal_point(d) for d in np.eye(m)])
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 3))
        rng = np.random.default_rng(m)
        clouds = []
        for p, img in zip(cfg.centers, F.batch(cfg.centers)):
            X = tangent_ball(rng, m, 1.0, 512)
            vecs = (X[:, None, :] @ transport_frame(p))[:, 0, :]
            clouds.append(np.vstack([F.batch(exp_rows(p, vecs, np.linalg.norm(X, axis=1))), img]))
        sampled = brute_set_distance_max(clouds)
        bound = certify_configuration(F, cfg).set_distance_max
        assert sampled <= bound <= 1.01 * sampled

    @pytest.mark.parametrize("label", ["poincare", "busemann"])
    def test_hausdorff_bound_is_sound_on_a_finer_net(self, label):
        # a delta/4-net of each ball lies in it and covers it at delta/4, so
        # d_H(F(B_i), F(B_j)) is at least the Hausdorff distance of the finer
        # nets' images less L*delta/4, which the bound must clear
        F = poincare_inclusion(2) if label == "poincare" else busemann_map([ideal_point(d) for d in np.eye(2)])
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 3, hausdorff=True))
        cert = certify_configuration(F, cfg)
        fine = build_reference_net(1.0, cert.net.delta / 4.0, 2)
        images = np.split(F.batch(transport_net(fine, cfg.centers)), cfg.k)
        estimate = max(brute_hausdorff(images[i], images[j]) for i in range(cfg.k) for j in range(i + 1, cfg.k))
        assert cert.ok and cert.hausdorff_max >= estimate - F.L * fine.delta

    def test_setdist_pipeline_skips_iii(self, poincare_cfg):
        F, cfg = poincare_cfg
        cert = certify_configuration(F, cfg)
        assert cert.pass_iii is None and cert.hausdorff_max is None


class TestPlainFirst:
    """The Hausdorff search runs the plain ladder first and falls back to the
    augmented ladder only when the plain one is exhausted."""

    @staticmethod
    def record_calls(monkeypatch, name):
        """The argument tuples of every later call of hypack.search.<name>."""
        calls = []
        original = getattr(hypack.search, name)

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hypack.search, name, recording)
        return calls

    def test_plain_bound_is_the_certificates_bit_for_bit(self):
        F = poincare_inclusion(2)
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 2, hausdorff=True))
        cert = certify_configuration(F, cfg)
        assert cfg.ladder == "plain" and cert.ok
        assert cfg.history[-1]["hausdorff_bound"] == cert.hausdorff_max
        assert np.array_equal(cert.net.tangent_points, certificate_net(F, 1.0, 0.5).tangent_points)

    def test_plain_ladder_transports_the_net_to_k_centers(self, monkeypatch):
        transported = self.record_calls(monkeypatch, "transport_net")
        imaged = self.record_calls(monkeypatch, "net_images")
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        with time_limit(10.0):
            cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 2, hausdorff=True))
        # C = 8: the rung 18 (23 centers) holds no 2-fiber; the rung
        # 18 + ln 4 (92 centers) holds one of 4, whose window passes (iii)
        assert cfg.ladder == "plain" and cfg.R_used == 16.0 + (2.0 + math.log(4.0))
        assert [len(points) for _, points in transported] == [2]
        # the net is mapped once, at the chosen centers, never at a whole rung
        [(_, _, points)] = imaged
        assert np.array_equal(points.coords, cfg.centers.coords) and cfg.k == 2

    def test_set_distance_search_builds_and_transports_no_net(self, monkeypatch):
        calls = [self.record_calls(monkeypatch, name) for name in ("certificate_net", "transport_net")]
        cfg = find_bunched_configuration(poincare_inclusion(2), SearchParams(1.0, 0.5, 3))
        assert cfg.ladder == "plain" and calls == [[], []]
        assert all("hausdorff_bound" not in h and h["ladder"] == "plain" for h in cfg.history)

    def test_exhausted_plain_ladder_falls_back_to_the_augmented_ladder(self):
        F = pinwheel_map()
        params = SearchParams(1.0, 0.5, 2, hausdorff=True, R_max=PINWHEEL_R_MAX)
        cfg = find_bunched_configuration(F, params)
        plain, augmented = cfg.history
        # every center maps to 0: one fiber.  Its first window's balls map
        # onto perpendicular segments (N times the angle 2 alpha between the
        # centers is pi/2), and the net point e_3 of the template, at distance
        # 1 above each center, maps to 0.6 times a unit vector on each: the
        # matched bound is 0.6 sqrt(2), plus L*delta = 0.6 * 0.5/1.2 > eps
        assert plain["ladder"] == "plain" and plain["largest_fiber"] == 22
        assert plain["rejected_hausdorff"] == pytest.approx(0.6 * math.sqrt(2.0) + 0.25, abs=1e-12)
        assert augmented["ladder"] == "augmented" and "rejected_hausdorff" not in augmented
        assert cfg.ladder == "augmented" and cfg.indices == (4.0, 8.0)
        cert = certify_configuration(F, cfg)
        assert cert.ok and cert.pass_iii
        # N times the angle 8 alpha between these centers is 2 pi, so matched
        # net points differ only by the angles Delta their frames add.  The
        # largest gap is at the template point v = (0, -1, 1)/sqrt(2):
        # exp(v) at a center (cosh 10, sinh 10 (cos th, sin th, 0)) lies
        # d = asinh(sinh(1)/sqrt(2)) above the plane, at the angle th + Delta
        # with tan Delta = -sinh(1) cos(th)/sqrt(2) over
        # cosh(1) sinh(10) - sinh(1) cosh(10) sin(th)/sqrt(2); its images are
        # 0.6 d (cos, sin)(N th + N Delta), 1.2 d sin(N |Delta_i - Delta_j|/2)
        # apart, 2.45e-4 here
        assert cfg.center_radius == 10.0
        th = np.arctan2(cfg.centers.dirs[:, 1], cfg.centers.dirs[:, 0])
        s, c = math.sinh(1.0) / math.sqrt(2.0), math.cosh(1.0)
        delta = np.arctan2(-s * np.cos(th), c * math.sinh(10.0) - s * math.cosh(10.0) * np.sin(th))
        N = math.pi / (4.0 * packing_angle(PINWHEEL_C, PINWHEEL_R_MAX))
        gap = 1.2 * math.asinh(s) * math.sin(0.5 * N * abs(delta[0] - delta[1]))
        assert gap == pytest.approx(2.45027e-4, abs=1e-9)
        assert cert.hausdorff_max == pytest.approx(gap + 0.25, abs=1e-12)

    def test_augmented_window_bounds_its_own_iii(self):
        # (iii) and the augmented ladder pair net point t of one ball with net
        # point t of the other, so the measured part M of (iii) is at most the
        # distance of the window's augmented images, which is below 2/C
        F = pinwheel_map()
        params = SearchParams(1.0, 0.5, 2, hausdorff=True, R_max=PINWHEEL_R_MAX)
        cfg = find_bunched_configuration(F, params)
        cert = certify_configuration(F, cfg)
        assert cfg.ladder == "augmented" and cert.ok
        stack = net_images(F, cert.net, cfg.centers)
        assert cfg.pairwise_image_max == float(cdist(stack[:1].reshape(1, -1), stack[1:].reshape(1, -1))[0, 0])
        M = cert.hausdorff_max - F.L * cert.net.delta
        assert M == pytest.approx(2.45e-4, rel=1e-2)
        assert M <= cfg.pairwise_image_max < 2.0 / params.C

    def test_both_ladders_exhausted(self):
        # 23 centers on the rung; no augmented fiber holds 8
        params = SearchParams(1.0, 0.5, 8, hausdorff=True, R_max=PINWHEEL_R_MAX)
        with pytest.raises(ScheduleExhausted, match="neither the plain nor the augmented") as exc:
            find_bunched_configuration(pinwheel_map(), params)
        plain, augmented = exc.value.diagnostics
        assert plain["ladder"] == "plain" and plain["rejected_hausdorff"] > 0.5
        assert augmented["ladder"] == "augmented" and augmented["largest_fiber"] < 8


class TestRowPaths:
    """Batched evaluation against the per-point scalar path, bit for bit."""

    def test_augmented_map_matches_per_point_concatenation(self):
        F = poincare_inclusion(2)
        net = build_reference_net(1.0, 0.5, 2)
        centers = generate_centers(4.0, 14.0, 2, cap=60).centers
        expected = np.array(
            [np.concatenate([poincare_at(s) for s in transport_net(net, centers[i : i + 1])])
             for i in range(len(centers))]
        )
        assert np.array_equal(net_images(F, net, centers).reshape(len(centers), -1), expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_ball_samples_match_per_row_exp(self, m):
        # ball samples moved to p by its transport frame, at a basepoint in a
        # direction off the axes; exp_rows takes them in one call
        p = HPoint.from_polar(18.0, np.linspace(0.3, -0.8, m))
        frame = transport_frame(p)
        X = tangent_ball(np.random.default_rng(3), m, 1.0, 300)
        vecs, lengths = np.array([x @ frame for x in X]), np.array([np.linalg.norm(x) for x in X])
        got = exp_rows(p, vecs, lengths)
        assert len(got) == len(X)
        for q, v, t in zip(got, vecs, lengths.tolist()):
            ref = exp_map(p, v, t)
            assert q.r == ref.r
            assert np.array_equal(q.direction, ref.direction)
            assert np.array_equal(q.coords, ref.coords)


class TestHausdorffEstimate:
    """The matched bound of (iii): the largest distance between matched rows
    P[i, t] and P[j, t] of a (k, l, n) stack of net images."""

    def test_identical_sets(self):
        A = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert _pairwise_max(np.stack([A, A])) == 0.0

    def test_singletons(self):
        assert _pairwise_max(np.array([[[0.0]], [[3.0]]])) == 3.0

    def test_directed_asymmetry(self):
        # A lies within 10 of B and B within 0 of A; the bound takes the larger
        A = np.array([[0.0], [10.0]])
        B = np.array([[0.0], [0.0]])
        assert _pairwise_max(np.stack([A, B])) == 10.0 == brute_hausdorff(A, B)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            A, B, Cs = rng.random((3, 6, 3))
            ab = _pairwise_max(np.stack([A, B]))
            assert ab == _pairwise_max(np.stack([B, A]))
            ac = _pairwise_max(np.stack([A, Cs]))
            cb = _pairwise_max(np.stack([Cs, B]))
            assert ab <= ac + cb + 1e-12
            assert _pairwise_max(np.stack([A, B, Cs])) == max(ab, ac, cb)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_blocks_equal_per_index_cdist(self, chunk):
        rng = np.random.default_rng(chunk)
        with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
            for shape in [(2, 1, 1), (3, 5, 2), (7, 40, 3), (12, 9, 1)]:
                P = rng.integers(0, 3, shape).astype(float)  # tied distances
                P[rng.integers(shape[0])] += rng.standard_normal(shape[1:])
                expected = max(np.diag(cdist(P[i], P[j])).max()
                               for i in range(len(P)) for j in range(i + 1, len(P)))
                assert _pairwise_max(P) == expected
            P[1, 2, 0] = np.nan
            assert math.isnan(_pairwise_max(P))

    def test_matched_rows_not_nearest(self):
        # the same two points in opposite orders: Hausdorff distance 0, but
        # each row is measured against its matched row only
        A = np.array([[0.0], [10.0]])
        assert brute_hausdorff(A, A[::-1]) == 0.0
        assert _pairwise_max(np.stack([A, A[::-1]])) == 10.0


class TestCorollarySequences:
    def test_poincare_three_levels(self):
        F = poincare_inclusion(2)
        base = SearchParams(1.0, 0.5, 2)
        cfgs = corollary_sequences(F, k=2, levels=3, base_params=base)
        seps = [c.pairwise_manifold_min for c in cfgs]
        diams = [c.pairwise_image_max for c in cfgs]
        assert seps[0] >= 2.0 and seps[1] >= 4.0 and seps[2] >= 8.0
        assert all(b > a for a, b in zip(seps, seps[1:]))
        assert diams[0] <= 0.5 and diams[1] <= 0.25 and diams[2] <= 0.125
        assert all(b < a for a, b in zip(diams, diams[1:]))

    def test_single_level(self):
        F = poincare_inclusion(2)
        base = SearchParams(1.0, 0.5, 2)
        cfgs = corollary_sequences(F, k=2, levels=1, base_params=base)
        assert len(cfgs) == 1

    def test_hausdorff_base_carries_to_every_level(self):
        F = poincare_inclusion(2)
        base = SearchParams(1.0, 0.5, 2, hausdorff=True)
        (cfg,) = corollary_sequences(F, k=2, levels=1, base_params=base)
        assert cfg.params.hausdorff
        assert cfg.params.C == choose_C_hausdorff(1.0, 0.5)

    def test_busemann_m3_levels_build_no_net(self):
        # the certificate net of Busemann m = 3 at eps = 0.25 exceeds the grid
        # limit; the set-distance search never reads a net, so it builds none
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        with time_limit(60.0):
            cfgs = corollary_sequences(F, k=2, levels=2, base_params=SearchParams(1.0, 0.5, 2))
        # level 0 (C = 8) accepts on its second rung, 18 + ln 4, at image
        # diameter 0.0402; level 1 (C = 12) rejects the 2-fiber of its second
        # rung, 26 + ln 4, at diameter 0.0836 and accepts on its third
        assert [c.R_used for c in cfgs] == [16.0 + (2.0 + math.log(4.0)), 24.0 + (2.0 + 2 * math.log(4.0))]
        assert all(c.centers.dirs.shape[1] == 3 for c in cfgs)

    def test_constant_map_zero_diameters(self):
        base = SearchParams(1.0, 0.5, 2, cap=500)
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
    """The center-image bound of (ii), the matched bound of (iii) and window
    diameters equal full-cdist scans exactly."""

    @staticmethod
    def check_matched_bound(A, B):
        """The matched bound of the clouds' first rows, as many of each as
        the shorter has, is the largest cdist value of matched rows and
        bounds their Hausdorff distance."""
        l = min(len(A), len(B))
        A, B = A[:l], B[:l]
        got = _pairwise_max(np.stack([A, B]))
        assert got == float(np.diag(cdist(A, B)).max())
        assert got >= brute_hausdorff(A, B)

    @staticmethod
    def check_center_bound(clouds):
        """The blocked max over the clouds' last rows, which stand for the
        center images, is cdist's and bounds the clouds' set distances."""
        P = np.array([c[-1] for c in clouds])
        got = _pairwise_max(P)
        assert got == float(cdist(P, P).max())
        assert got >= brute_set_distance_max(clouds)

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
            self.check_center_bound(clouds)
            for A, B in zip(clouds, clouds[1:]):
                self.check_matched_bound(A, B)

    def test_rows_tied_in_exact_arithmetic(self):
        # a and a[P] are equally far from {b, b[P]}; a prefilter and cdist that
        # sum the squares in different orders can rank the two rows oppositely
        rng = np.random.default_rng(5)
        for _ in range(200):
            P = rng.permutation(40)
            a, b = rng.standard_normal(40), rng.standard_normal(40) + 0.5
            A, B = np.array([a, a[P]]), np.array([b, b[P]])
            self.check_center_bound([A, B])
            self.check_matched_bound(A, B)


    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_narrow_clouds_far_apart(self, k):
        # clouds about 1e-8 wide near the unit circle, 0.037 apart in a row, as
        # the m = 2 Hausdorff certificate's: every cross pair is about as far
        rng = np.random.default_rng(k)
        angles = 0.7 + 0.037 * np.arange(k)
        for rows in (1, 2, 513):
            clouds = [
                np.array([math.cos(t), math.sin(t)]) + 1e-8 * rng.standard_normal((rows, 2))
                for t in angles
            ]
            self.check_center_bound(clouds)
            for A, B in zip(clouds, clouds[1:]):
                self.check_matched_bound(A, B)

    def test_clouds_whose_last_rows_are_not_closest(self):
        # the last rows bound a pair's minimum only from above; a small budget
        # puts the pairs of last rows in several blocks of rows
        rng = np.random.default_rng(9)
        for _ in range(50):
            clouds = [rng.standard_normal((int(rng.integers(1, 40)), 3)) + 3.0 * rng.standard_normal(3)
                      for _ in range(int(rng.integers(2, 6)))]
            for c in clouds:
                c[-1] = 20.0 * rng.standard_normal(3)
            for chunk in (1, 7, 1 << 16):
                with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
                    self.check_center_bound(clouds)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_best_window_equals_one_window_at_a_time(self, chunk):
        rng = np.random.default_rng(chunk)
        with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
            for _ in range(40):
                count, k = int(rng.integers(2, 30)), int(rng.integers(2, 6))
                k = min(k, count)
                imgs = 0.5 * rng.integers(0, 3, (count, 3)).astype(float)  # tied diameters
                members = sorted(rng.choice(1000, count, replace=False).tolist())
                columns = np.full((3, 1000), np.nan)  # only the members' columns are read
                columns[:, members] = imgs.T
                assert _best_window(members, columns, k) == loop_best_window(members, imgs, k)

    def test_best_window_of_a_wide_fiber_is_fast(self):
        # 2,000 members on a line in increasing order: a window's diameter is
        # the gap between its ends; a scan of all pairs of every window of
        # 1,000 takes minutes
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.integers(1, 4, 2000)).astype(float)
        k = 1000
        members = list(range(5000, 7000))
        columns = np.zeros((1, 7000))
        columns[0, members] = x
        with time_limit(10.0):
            chosen, diam = _best_window(members, columns, k)
        gaps = x[k - 1 :] - x[: len(x) - k + 1]
        s = int(np.argmin(gaps))  # the first on ties
        assert chosen == members[s : s + k]
        assert diam == gaps[s]

    def test_center_bound_of_one_row_and_of_nan(self):
        assert _pairwise_max(np.ones((1, 3))) == 0.0
        # no rows: no pairs, and rows of width 0 take one block
        assert _pairwise_max(np.zeros((0, 3))) == 0.0 and _pairwise_max(np.zeros((0, 4, 3))) == 0.0
        assert [range(5)[part] for part in _row_blocks(5, 0)] == [range(5)]
        assert math.isnan(_pairwise_max(np.array([[0.0, 1.0], [0.0, np.nan], [1.0, 0.0]])))

    def test_hausdorff_bound_of_one_ball_is_the_net_slack(self):
        # one ball has no pair: (iii) is the net slack L*delta alone
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        net = certificate_net(F, 1.0, 0.5)
        centers = generate_centers(8.0, 18.0, 3, cap=100).centers[3:4]
        assert hypack.search._hausdorff_bound(F, net, centers) == F.L * net.delta

    def test_hausdorff_memory_is_bounded_in_the_ball_count(self):
        # 100 balls of the l = 2,103 net of Busemann m = 3: their transported
        # rows at once would hold about 70 MB
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        net = certificate_net(F, 1.0, 0.5)
        centers = generate_centers(8.0, 28.0, 3, cap=1000).centers[:100]
        assert net.l == 2103 and len(centers) == 100
        images = np.array([F.batch(transport_net(net, centers[i : i + 1])) for i in range(len(centers))])
        expected = 0.0
        for i in range(len(images) - 1):
            d = images[i + 1 :] - images[i]
            expected = max(expected, float(np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2).max()))
        tracemalloc.start()
        try:
            got = hypack.search._hausdorff_bound(F, net, centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected + F.L * net.delta
        assert peak < 32e6

    def test_set_distance_memory_is_bounded_in_the_cloud_count(self):
        # 3,000 center images: 4.5 million pairs, whose distances at once
        # would hold 36 MB, and their index arrays 72 MB more
        P = np.random.default_rng(12).standard_normal((3000, 2))
        expected = float(cdist(P, P).max())
        tracemalloc.start()
        try:
            got = _pairwise_max(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 32e6


@st.composite
def pigeonhole_cases(draw):
    """(images, sep, recheck chunk, blocks): small image sets of l = blocks
    blocks with duplicates, exact distances and equidistant ties, in clusters
    up to 1e9 apart, shifted far from the origin or not.  "tiled" rows repeat one vector in every block, so
    a pair moves by the same vector in each and the block-sum prefilter is
    tight; a pair may sit exactly at the separation or one ulp inside it."""
    blocks = draw(st.sampled_from([1, 2, 20]))
    n = draw(st.sampled_from([1, 2, 3, 8, 40] if blocks == 1 else [1, 2, 3, 4]))
    width = blocks * n
    count = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["lattice", "random", "clustered", "spread", "tiled", "vast"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":  # few distinct distances: exact ties everywhere
        X = 0.5 * rng.integers(0, 3, (count, width)).astype(float)
    elif kind == "random":
        X = rng.standard_normal((count, width))
    elif kind in ("clustered", "vast"):  # vast: keys span over 1e7 cube sides per column
        scale = 3.0 if kind == "clustered" else 1e9
        centers = scale * rng.standard_normal((max(1, count // 5), width))
        X = centers[rng.integers(0, len(centers), count)] + 0.2 * rng.standard_normal((count, width))
    elif kind == "tiled":  # clustered in one block, repeated in all
        centers = 3.0 * rng.standard_normal((max(1, count // 5), n))
        Y = centers[rng.integers(0, len(centers), count)] + 0.2 * rng.standard_normal((count, n))
        X = np.tile(Y, (1, blocks))
    else:  # all far apart (no leftover), or one repeated row (one leftover)
        X = np.zeros((count, width))
        X[:, 0] = 10.0 * np.arange(count)
        if count > 1 and draw(st.booleans()):
            X[-1] = X[int(rng.integers(0, count - 1))]
    if kind != "spread" and count > 1 and draw(st.booleans()):  # duplicated rows
        X[rng.integers(0, count, count // 3 + 1)] = X[rng.integers(0, count, count // 3 + 1)]
    if draw(st.booleans()):
        X = X + 1e6
    how = draw(st.sampled_from(["norm pair", "cdist pair", "inside pair", "scale"]))
    sep = draw(st.floats(0.05, 3.0)) if kind != "spread" else 1.0
    if how != "scale" and kind != "spread" and count > 1:
        i, j = rng.choice(count, 2, replace=False)
        exact = (
            float(np.linalg.norm(X[i] - X[j]))
            if how != "cdist pair"
            else float(cdist(X[i : i + 1], X[j : j + 1])[0, 0])
        )
        if exact > 0.0:  # a pair at exactly the separation, or just inside it
            sep = exact if how != "inside pair" else float(np.nextafter(exact, np.inf))
    chunk = draw(st.sampled_from([1, 7, 1 << 16, 1 << 40]))
    return X, sep, chunk, blocks


def vast_norm_pair_case():
    """A "vast" case whose separation is one pair's np.linalg.norm distance:
    10 rows of width 60 (20 blocks) in two clusters about 1e10 apart, where
    one ulp of the distances is 1.9e-6.  15 of its 45 pairs read differently
    under np.linalg.norm and cdist, so scans that measure with different
    bits disagree about which pairs clear the separation."""
    rng = np.random.default_rng(10)
    centers = 1e9 * rng.standard_normal((2, 60))
    X = centers[rng.integers(0, 2, 10)] + 0.2 * rng.standard_normal((10, 60))
    i, j = rng.choice(10, 2, replace=False)
    return X, float(np.linalg.norm(X[i] - X[j])), 1 << 16, 20


class TestPigeonholeScans:
    """The neighbour-local scans against the one-image loop and full cdists."""

    @settings(max_examples=400, deadline=None)
    @given(case=pigeonhole_cases())
    @example(case=vast_norm_pair_case())
    def test_equal_to_full_scans(self, case):
        X, sep, chunk, blocks = case
        sel, kept = loop_separated_subfamily(X, sep)
        grid = _CellGrid(X, sep, blocks)  # the search's one grid per rung
        with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
            sf = greedy_separated_subfamily(X, sep, grid)
            assert sf.selected.dtype == sel.dtype
            assert np.array_equal(sf.selected, sel)
            assert np.array_equal(X[sf.selected], kept)
            assert full_cdist_verify(sel, kept, sep, X)
            fib = theta_assignment(sf, X, grid)
        fibers = full_cdist_theta(len(X), sel, kept, X, sep)
        assert fib.fibers == fibers and list(fib.fibers) == list(fibers)

    @settings(max_examples=200, deadline=None)
    @given(case=pigeonhole_cases(), pick=st.integers(0, 2**32 - 1))
    def test_hand_built_families(self, case, pick):
        # arbitrary subsets: the assignment must fail exactly where the full scans fail
        X, sep, chunk, blocks = case
        grid = _CellGrid(X, sep, blocks)
        rng = np.random.default_rng(pick)
        sel = np.flatnonzero(rng.random(len(X)) < 0.5)
        if sel.size == 0:
            sel = np.array([int(rng.integers(0, len(X)))])
        fam = SeparatedFamily(selected=sel, separation=sep)
        with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
            if not full_cdist_verify(sel, X[sel], sep, X):
                with pytest.raises(AssertionError, match="separation|maximality"):
                    theta_assignment(fam, X, grid)
                return
            expected = full_cdist_theta(len(X), sel, X[sel], X, sep)
            fib = theta_assignment(fam, X, grid)
        assert fib.fibers == expected and list(fib.fibers) == list(expected)

    def test_equidistant_leftover_goes_to_the_lowest_anchor(self):
        # the middle rows are exactly 1 from both neighbours in every width
        for width in (1, 2, 3, 8, 40):
            X = np.zeros((5, width))
            X[:, 0] = [0.0, 2.0, 1.0, 4.0, 3.0]
            sf = greedy_separated_subfamily(X, 1.5)
            assert sf.selected.tolist() == [0, 1, 3]
            assert theta_assignment(sf, X).fibers == {0: [2], 1: [4]}

    @pytest.mark.parametrize("width", [1, 3, 40])
    def test_images_exactly_sep_apart_are_separated(self, width):
        X = np.zeros((3, width))
        X[:, 0] = [0.0, 1.0, 0.5]
        X += 1e6
        sf = greedy_separated_subfamily(X, 1.0)
        assert sf.selected.tolist() == [0, 1]
        assert full_cdist_verify(sf.selected, X[sf.selected], 1.0, X)
        assert theta_assignment(sf, X).fibers == {0: [2]}
        # a separation just above the gap, and one ulp above it
        for above in (1.0 + 2e-9, float(np.nextafter(1.0, 2.0))):
            wider = SeparatedFamily(selected=sf.selected, separation=above)
            assert not full_cdist_verify(wider.selected, X[wider.selected], wider.separation, X)
            with pytest.raises(AssertionError, match="separation"):
                theta_assignment(wider, X)

    @pytest.mark.parametrize("blocks, n", [(2, 1), (2, 3), (20, 1), (20, 3)])
    def test_translated_pairs_at_the_separation(self, blocks, n):
        # every pair moves by the same vector in each block, so its block-sum
        # key distance equals its full distance: the prefilter is tight, and
        # the 1e6 offset makes the keys' rounding as large as the reach's slack
        rng = np.random.default_rng(100 * blocks + n)
        for _ in range(100):
            Y = rng.integers(0, 4, (12, 1)) + 0.1 * rng.standard_normal((12, n))
            X = np.tile(Y, (1, blocks)) + 1e6
            i, j = rng.choice(len(X), 2, replace=False)
            exact = float(np.linalg.norm(X[i] - X[j]))
            for sep in (exact, float(np.nextafter(exact, np.inf))):
                sel, kept = loop_separated_subfamily(X, sep)
                grid = _CellGrid(X, sep, blocks)
                sf = greedy_separated_subfamily(X, sep, grid)
                assert np.array_equal(sf.selected, sel)
                fib = theta_assignment(sf, X, grid)
                fibers = full_cdist_theta(len(X), sel, kept, X, sep)
                assert fib.fibers == fibers and list(fib.fibers) == list(fibers)

    @pytest.mark.parametrize("blocks", [2, 20, 2565])
    def test_key_rounding_is_bounded(self, blocks):
        # computed keys against 50-digit block sums, offsets of mixed sign and size
        rng = np.random.default_rng(blocks)
        X = rng.standard_normal((4, 3 * blocks)) * 10.0 ** rng.integers(-2, 7, (4, 3 * blocks))
        grid = _CellGrid(X, 1.0, blocks)
        with mpmath.workdps(50):
            scale = 1 / mpmath.sqrt(blocks)
            worst = max(
                abs(mpmath.mpf(float(grid.keys[r, c])) - scale * mpmath.fsum(X[r, c::3].tolist()))
                for r in range(len(X))
                for c in range(3)
            )
        assert 0.0 < 2.0 * math.sqrt(3.0) * float(worst) <= grid.rounding

    def test_one_block_keys_are_the_leading_columns(self):
        X = np.random.default_rng(3).standard_normal((5, 8)) + 1e6
        grid = _CellGrid(X, 0.5)
        assert grid.rounding == 0.0 and np.shares_memory(grid.keys, X)
        assert np.array_equal(grid.keys, X[:, :3])
        assert grid.reach == 0.5 * (1.0 + hypack.search._CDIST_SLACK)
        with pytest.raises(ValueError, match="multiple of 3 blocks"):
            _CellGrid(X, 0.5, 3)

    def test_search_keys_have_one_block_per_net_point(self):
        # only the augmented ladder keys l blocks; the pinwheel map's plain
        # Hausdorff ladder is exhausted, so its search reaches it
        F, P = poincare_inclusion(2), pinwheel_map()
        hausdorff = SearchParams(1.0, 0.5, 2, hausdorff=True, R_max=PINWHEEL_R_MAX)
        seen, original = [], _CellGrid

        def spy(images, limit, blocks=1):
            seen.append((images.shape[1], blocks))
            return original(images, limit, blocks)

        with mock.patch.object(hypack.search, "_CellGrid", spy):
            cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 2))
            plain = len(seen)
            assert plain == len(cfg.history)
            cfg = find_bunched_configuration(P, hausdorff)
        l = certificate_net(P, 1.0, 0.5).l
        assert seen[:plain] == [(2, 1)] * plain
        assert cfg.ladder == "augmented"
        assert [e["ladder"] for e in cfg.history] == ["plain", "augmented"]
        assert seen[plain:] == [(2, 1), (2 * l, l)]

    def test_scans_refuse_a_grid_over_other_images_or_a_smaller_limit(self):
        X = np.zeros((4, 2))
        X[:, 0] = [0.0, 0.5, 2.0, 2.2]
        sf = greedy_separated_subfamily(X, 1.0)
        for grid in (_CellGrid(X.copy(), 2.0), _CellGrid(X, float(np.nextafter(1.0, 0.0)))):
            grid.listing  # a listing already built changes nothing
            with pytest.raises(ValueError, match="greedy_separated_subfamily: the grid"):
                greedy_separated_subfamily(X, 1.0, grid)
            with pytest.raises(ValueError, match="theta_assignment: the grid"):
                theta_assignment(sf, X, grid)
        # a grid for exactly the separation serves both scans, and so does a larger one
        for limit in (1.0, 2.0):
            grid = _CellGrid(X, limit)
            assert np.array_equal(greedy_separated_subfamily(X, 1.0, grid).selected, sf.selected)
            assert theta_assignment(sf, X, grid).fibers == {0: [1], 2: [3]}

    def test_norm_one_ulp_above_cdist_is_not_separated(self):
        # from 8 columns on np.linalg.norm sums in pairs and cdist from left
        # to right; with s the norm distance of rows 0 and 1, where cdist reads
        # one ulp less, row 1 is within s of row 0 and must not be kept
        rng = np.random.default_rng(13)
        for _ in range(1000):
            X = rng.uniform(-0.7, 0.7, (30, 13))  # entries of Poincare m=13 size
            sep = float(np.linalg.norm(X[:1] - X[1:2], axis=1)[0])
            if sep == np.nextafter(cdist(X[:1], X[1:2])[0, 0], np.inf):
                break
        else:
            pytest.fail("no pair of rows whose norm distance is one ulp above cdist's")
        sel, kept = loop_separated_subfamily(X, sep)
        sf = greedy_separated_subfamily(X, sep)
        assert 1 not in sf.selected.tolist()
        assert np.array_equal(sf.selected, sel)
        assert full_cdist_verify(sf.selected, X[sf.selected], sep, X)
        assert theta_assignment(sf, X).fibers == full_cdist_theta(len(X), sel, kept, X, sep)

    def test_augmented_pinwheel_grid(self):
        # the l-block grid of the pinwheel map's augmented ladder on its one
        # rung, at the search's separation and at wider ones
        P = pinwheel_map()
        net = certificate_net(P, 1.0, 0.5)
        C = SearchParams(1.0, 0.5, 2, hausdorff=True).C
        centers = generate_centers(C, PINWHEEL_R_MAX, 3, 100_000).centers
        X = net_images(P, net, centers).reshape(len(centers), -1)
        assert X.shape[1] == 2 * net.l
        kinds = set()
        for sep in (1.0 / C, 0.5, 1.0, 2.0, 4.0):
            sel, kept = loop_separated_subfamily(X, sep)
            grid = _CellGrid(X, sep, net.l)
            sf = greedy_separated_subfamily(X, sep, grid)
            assert np.array_equal(sf.selected, sel)
            fibers = full_cdist_theta(len(X), sel, kept, X, sep)
            fib = theta_assignment(sf, X, grid)
            assert fib.fibers == fibers and list(fib.fibers) == list(fibers)
            kinds.add((len(sel) == 1, len(sel) == len(X)))
        assert (False, False) in kinds  # some separation keeps some images and leaves others

    def test_one_listing_per_rung(self, monkeypatch):
        # the greedy scan and the fiber assignment of a rung share its grid's listing
        builds = []
        original = _CellGrid.listing.func

        def counting(grid):
            builds.append(len(grid.images))
            return original(grid)

        listing = cached_property(counting)
        listing.__set_name__(_CellGrid, "listing")
        monkeypatch.setattr(_CellGrid, "listing", listing)
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        cfg = find_bunched_configuration(F, SearchParams(1.0, 0.5, 8))
        assert builds == [e["family"] for e in cfg.history]

    @pytest.mark.parametrize("width", [2, 3, 6, 13, 40, 7695])
    def test_pair_distances_have_cdist_bits(self, width):
        # chunk 1 makes every pair a lone pair
        rng = np.random.default_rng(width)
        A = rng.standard_normal((9, width)) * 10.0 ** rng.integers(-3, 4, (9, 1))
        B = A[::-1] + 1e-3 * rng.standard_normal((9, width))
        a = np.repeat(np.arange(9), 9)
        b = np.tile(np.arange(9), 9)
        cols_a, cols_b = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
        for chunk in (1, 1 << 16):
            with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
                assert np.array_equal(_pair_cdist(cols_a, a, cols_b, b), cdist(A, B).ravel())
        # every column of B against one of A, the greedy step's form
        for t in range(9):
            got = hypack.search._image_distance(cols_b, np.arange(9), cols_a, [t])
            assert np.array_equal(got, cdist(A[t : t + 1], B)[0])

    def test_wide_clustered_family_is_fast(self):
        # 6,000 images of width 512 in 2,000 tight clusters far apart; the
        # one-image loop takes over ten seconds here
        rng = np.random.default_rng(7)
        clusters, members, width = 2000, 3, 512
        jitter = rng.standard_normal((clusters * members, width))
        jitter *= (0.2 * rng.random(len(jitter)) / np.linalg.norm(jitter, axis=1))[:, None]
        X = np.repeat(10.0 * rng.standard_normal((clusters, width)), members, axis=0) + jitter
        order = rng.permutation(len(X))
        X, label = X[order], np.repeat(np.arange(clusters), members)[order]
        with time_limit(10.0):
            sf = greedy_separated_subfamily(X, 1.0)
            fib = theta_assignment(sf, X)
        # each cluster keeps its first row and gathers the others in its fiber
        first = {}
        for pos, c in enumerate(label.tolist()):
            first.setdefault(c, pos)
        assert sf.selected.tolist() == sorted(first.values())
        assert all(label[a] == label[m] for a, ms in fib.fibers.items() for m in ms)
        assert sum(map(len, fib.fibers.values())) == len(X) - clusters


class TestCellGrid:
    """The neighbour index and its close pairs against a brute full-cdist listing."""

    @staticmethod
    def close_pairs(X, a, b, limit):
        grid = _CellGrid(X, limit)
        t, u, d = _close_pairs(grid, a, b, limit)
        assert np.array_equal(d, _pair_cdist(grid.columns, a[t], grid.columns, b[u]))
        assert np.array_equal(d, cdist(X[a[t]], X[b[u]]).diagonal())
        return sorted(zip(t.tolist(), u.tolist()))

    @staticmethod
    def subsets(rng, count):
        a = np.flatnonzero(rng.random(count) < 0.7)
        b = np.flatnonzero(rng.random(count) < 0.5)
        return (a if a.size else np.arange(count)), (b if b.size else np.arange(count))

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", ["lattice", "random", "single"])
    def test_pairs_equal_brute_listing(self, width, kind):
        # keys of min(3, width) columns; lattice rows give duplicates and pairs
        # exactly at the limit, which cdist does not put below it
        rng = np.random.default_rng(10 * width + len(kind))
        for _ in range(40):
            count = 1 if kind == "single" else int(rng.integers(2, 80))
            if kind == "lattice":
                X, limit = 0.5 * rng.integers(0, 4, (count, width)).astype(float), 1.0
            else:
                X, limit = rng.standard_normal((count, width)), float(rng.uniform(0.05, 2.0))
            a, b = self.subsets(rng, count)
            assert self.close_pairs(X, a, b, limit) == brute_close_pairs(X, a, b, limit)

    def test_queries_outside_the_indexed_box(self):
        # indexed rows fill the unit square; the queries lie inside it, just
        # outside it within the limit of a corner, and far beyond it
        rng = np.random.default_rng(4)
        inside = rng.random((60, 2))
        queries = np.array([[-0.1, -0.1], [1.05, 0.5], [0.5, 1.2], [-3.0, 0.5], [1e9, -1e9], [0.5, 0.5]])
        X = np.vstack([inside, queries])
        a, b = np.arange(len(X)), np.arange(60)
        for limit in (0.05, 0.2, 0.5):
            pairs = self.close_pairs(X, a, b, limit)
            assert pairs == brute_close_pairs(X, a, b, limit)
            assert any(t >= 60 for t, _ in pairs)  # some query outside the box has a neighbour

    @pytest.mark.parametrize("w", [1, 2, 3])
    @pytest.mark.parametrize("code_max", [2**62, 50])
    def test_span_of_1e10_cubes_per_column(self, w, code_max):
        # clusters 1e10 apart: a mixed-radix code of two or three raw columns
        # would pass int64, so the coordinates are renumbered; a small code
        # limit forces the halving of renumbered coordinates as well
        rng = np.random.default_rng(w)
        centers = 1e10 * rng.random((30, w))
        X = np.repeat(centers, 4, axis=0) + 0.4 * rng.standard_normal((120, w))
        X = X[rng.permutation(len(X))]
        sep = 1.0
        with mock.patch.object(hypack.search, "_CODE_MAX", code_max):
            grid = _CellGrid(X, sep)
            assert 0 <= grid.codes.min() and grid.codes.max() + 2 * np.abs(grid.steps).max() < code_max
            a, b = self.subsets(rng, len(X))
            assert self.close_pairs(X, a, b, sep) == brute_close_pairs(X, a, b, sep)
            sel, kept = loop_separated_subfamily(X, sep)
            sf = greedy_separated_subfamily(X, sep, grid)
            assert np.array_equal(sf.selected, sel)
            assert theta_assignment(sf, X, grid).fibers == full_cdist_theta(len(X), sel, kept, X, sep)

    def test_empty_reach_lists_nothing(self):
        # a limit at or below 0: cdist puts no pair below it
        X = np.zeros((5, 2))
        for limit in (0.0, -1.0):
            assert self.close_pairs(X, np.arange(5), np.arange(5), limit) == []


class TestPairKernel:
    """The column-major pair kernel keeps cdist's bits: squares summed from
    the first column to the last, a lone pair included."""

    @staticmethod
    def lone_pairs(width, count, seed):
        """`count` pairs of rows of `width` columns over 7 decades of scale."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4, (count, 1))
        A = rng.standard_normal((count, width)) * scale
        return A, A + rng.standard_normal((count, width)) * scale

    @pytest.mark.parametrize("width", [2, 3, 8, 13, 40, 7695])
    def test_reduce_down_columns_sums_in_order(self, width):
        # the summation order the kernel rests on: np.add.reduce down axis 0
        # of a C-contiguous (W, P >= 2) array adds its rows first to last, as
        # a Python sum does and as cdist does; a numpy that changes this
        # order fails here rather than changing artifacts
        A, B = self.lone_pairs(width, 3, width)
        for P in (2, 3):
            d = np.ascontiguousarray((A[:P] - B[:P]).T)
            d *= d
            got = np.add.reduce(d, axis=0)
            for col, value in zip(d.T.tolist(), got.tolist()):
                total = col[0]
                for v in col[1:]:
                    total += v
                assert value == total
            assert np.array_equal(np.sqrt(got), cdist(A[:P], B[:P]).diagonal())
        # the lone-pair path
        cols_a, cols_b = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
        for t in range(len(A)):
            lone = hypack.search._image_distance(cols_a, [t], cols_b, [t])
            assert lone.shape == (1,) and lone[0] == cdist(A[t : t + 1], B[t : t + 1])[0, 0]

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_pairwise_max_of_two_wide_stacks(self, l):
        # (2, l, 13) stacks: one pair per t, alone in its block at l = 1 or
        # with one-element blocks
        A, B = self.lone_pairs(13, 60 * l, l)
        for P in np.stack([A.reshape(60, l, 13), B.reshape(60, l, 13)], axis=1):
            want = float(cdist(P[0], P[1]).diagonal().max())
            for chunk in (1, 1 << 16):
                with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
                    assert _pairwise_max(P) == want

    def test_best_window_of_two(self):
        # k = 2 measures one pair per window; two members make a lone pair
        A, B = self.lone_pairs(13, 40, 3)
        X = np.stack([A, B], axis=1).reshape(80, 13)  # rows 2t and 2t + 1 a pair
        columns = np.ascontiguousarray(X.T)
        for chunk in (1, 1 << 16):
            with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", chunk):
                for members in [[s, s + 1] for s in range(0, 80, 2)] + [list(range(80))]:
                    want = loop_best_window(members, X[members], 2)
                    assert _best_window(members, columns, 2) == want

    def test_greedy_step_with_one_undecided_row(self):
        # two rows: row 0 is kept, and its listing holds row 1 alone; the
        # separation sits at the pair's cdist value or one ulp above it, so
        # a value one ulp off cdist's flips one of the two decisions
        A, B = self.lone_pairs(13, 100, 4)
        for x, y in zip(A, B):
            X = np.stack([x, y])
            d = float(cdist(X[:1], X[1:])[0, 0])
            for sep in (d, float(np.nextafter(d, math.inf))):
                grid = _CellGrid(X, sep)
                cell, indptr, rows = grid.listing
                assert sorted(rows[indptr[cell[0]] : indptr[cell[0] + 1]].tolist()) == [0, 1]
                sel, _ = loop_separated_subfamily(X, sep)
                assert greedy_separated_subfamily(X, sep, grid).selected.tolist() == sel.tolist()
                assert sel.tolist() == ([0, 1] if sep == d else [0])
