import numpy as np
import pytest

from conftest import random_point, time_limit
from hypack.geometry import HPoint, distance
from hypack.maps import busemann_map, ideal_point
from hypack.nets import (
    GRID_POINTS_MAX,
    NetTemplate,
    _candidate_grid,
    _window,
    build_reference_net,
    net_from_json,
    net_to_json,
    transport_net,
    verify_cover,
)
from oracle_utils import brute_greedy_net


@pytest.fixture(scope="module")
def net_2d():
    return build_reference_net(1.0, 0.25, 2)


class TestBuildReferenceNet:
    def test_single_point_when_delta_covers(self):
        tmpl = build_reference_net(1.0, 1.0, 2)
        assert tmpl.l == 1
        np.testing.assert_array_equal(tmpl.tangent_points, np.zeros((1, 2)))

    def test_l_in_expected_band(self, net_2d):
        assert 30 <= net_2d.l <= 300

    def test_points_inside_ball(self, net_2d):
        norms = np.linalg.norm(net_2d.tangent_points, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    def test_deterministic(self, net_2d):
        again = build_reference_net(1.0, 0.25, 2)
        np.testing.assert_array_equal(again.tangent_points, net_2d.tangent_points)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_reference_net(0.0, 0.1, 2)
        with pytest.raises(ValueError):
            build_reference_net(1.0, -0.1, 2)

    def test_l_depends_only_on_parameters(self, net_2d):
        # the template never sees a basepoint; transported copies share l
        p = HPoint.from_polar(7.0, [0.6, 0.8])
        assert len(transport_net(net_2d, p)) == net_2d.l


class TestLocalGreedy:
    @pytest.mark.parametrize(
        "rho, delta, m",
        [
            (1.0, 0.25, 2),
            (1.0, 0.1, 2),
            (0.5, 0.05, 2),
            (2.0, 0.3, 2),
            (3.0, 0.5, 2),
            (1.0, 0.3, 3),
            (1.0, 0.2, 3),
            (1.0, 0.05, 1),
            (1.0, 0.6, 4),
            (1.0, 1.0, 2),
            (1.0, 1.5, 3),
        ],
    )
    def test_equals_full_pass_greedy(self, rho, delta, m):
        tmpl = build_reference_net(rho, delta, m)
        assert np.array_equal(tmpl.tangent_points, brute_greedy_net(rho, delta, m))

    def test_search_m3_net_equals_full_pass_greedy(self):
        # the net of `search --map busemann --m 3` at r = 1, eps = 0.5
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        delta = 0.5 / (2.0 * F.L)
        tmpl = build_reference_net(1.0, delta, 3)
        assert tmpl.l == 2565
        assert np.array_equal(tmpl.tangent_points, brute_greedy_net(1.0, delta, 3))

    @pytest.mark.parametrize(
        "rho, h, m, picks", [(1.0, 0.07, 2, 60), (2.0, 0.3, 2, 60), (1.0, 0.11, 3, 12)]
    )
    def test_window_holds_every_candidate_that_can_drop(self, rho, h, m, picks):
        # dmax one ulp above a candidate's computed value is the tightest case:
        # that candidate's value can still drop, so its cell must be in the window
        grid, keep = _candidate_grid(rho, h, m)
        pts = grid.reshape(-1, m)
        cnorm2 = np.sum(pts * pts, axis=1)
        cells = np.argwhere(keep)
        rng = np.random.default_rng(m)
        for xi in rng.choice(np.flatnonzero(keep), picks, replace=False):
            x = pts[xi]
            value = (cnorm2 - 2.0 * (pts @ x) + x @ x)[keep.ravel()]
            for cell, v in zip(cells, value):
                if v <= 0.0:  # x itself; picks have dmax above the stop radius
                    continue
                box = _window(x, np.nextafter(v, np.inf), rho, h, keep.shape[0] // 2)
                assert all(s.start <= g < s.stop for s, g in zip(box, cell)), (x, cell)

    @pytest.mark.parametrize(
        "rho, delta, m", [(1.0, 0.5, 5), (1.0, 0.5, 6), (1.0, 0.5, 400), (1.0, 1e-7, 2), (1.0, 1e-300, 2)]
    )
    def test_grid_over_limit_refused(self, rho, delta, m):
        with time_limit(10.0), pytest.raises(ValueError, match=f"limit of {GRID_POINTS_MAX:,}"):
            build_reference_net(rho, delta, m)


class TestTransportNet:
    def test_identity_at_origin(self, net_2d):
        o = HPoint.origin(2)
        pts = transport_net(net_2d, o)
        for tp, p in zip(net_2d.tangent_points, pts):
            r = float(np.linalg.norm(tp))
            assert p.r == pytest.approx(r, abs=1e-12)
            if r > 0:
                np.testing.assert_allclose(p.direction, tp / r, atol=1e-12)

    def test_radial_distances_match_template(self, net_2d, rng):
        p = random_point(rng, 2, 8.0)
        pts = transport_net(net_2d, p)
        norms = np.linalg.norm(net_2d.tangent_points, axis=1)
        for q, t in zip(pts, norms):
            assert distance(p, q) == pytest.approx(float(t), abs=1e-9)

    def test_congruence_between_basepoints(self, net_2d, rng):
        # transported nets are isometric copies: pairwise distance multisets agree
        a = random_point(rng, 2, 6.0)
        b = random_point(rng, 2, 6.0)
        pts_a = transport_net(net_2d, a)
        pts_b = transport_net(net_2d, b)
        sample = rng.choice(net_2d.l, size=min(25, net_2d.l), replace=False)
        for i in sample[:12]:
            for j in sample[12:]:
                da = distance(pts_a[int(i)], pts_a[int(j)])
                db = distance(pts_b[int(i)], pts_b[int(j)])
                assert da == pytest.approx(db, abs=1e-9)

    def test_dimension_mismatch(self, net_2d):
        with pytest.raises(ValueError):
            transport_net(net_2d, HPoint.origin(3))


class TestVerifyCover:
    def test_single_point_net_passes(self):
        tmpl = build_reference_net(0.8, 0.9, 2)
        rep = verify_cover(tmpl, HPoint.origin(2), samples=5_000, seed=1)
        assert rep.ok and rep.covered_fraction == 1.0

    def test_default_cover_at_origin(self, net_2d):
        rep = verify_cover(net_2d, HPoint.origin(2), samples=50_000, seed=2)
        assert rep.ok
        assert rep.max_gap <= net_2d.delta

    def test_cover_at_far_basepoint(self, net_2d):
        p = HPoint.from_polar(50.0, [1.0, 0.0])
        rep = verify_cover(net_2d, p, samples=50_000, seed=3)
        assert rep.ok

    def test_deleting_half_fails(self, net_2d):
        keep = net_2d.tangent_points[net_2d.tangent_points[:, 0] <= 0.0]
        broken = NetTemplate(net_2d.rho, net_2d.delta, keep)
        rep = verify_cover(broken, HPoint.origin(2), samples=20_000, seed=4)
        assert not rep.ok
        assert rep.covered_fraction < 1.0
        assert rep.max_gap > net_2d.delta

    def test_samples_precondition(self, net_2d):
        with pytest.raises(ValueError):
            verify_cover(net_2d, HPoint.origin(2), samples=0)


class TestSerialization:
    def test_json_round_trip(self, net_2d):
        text = net_to_json(net_2d)
        back = net_from_json(text)
        assert back.rho == net_2d.rho
        assert back.delta == net_2d.delta
        np.testing.assert_array_equal(back.tangent_points, net_2d.tangent_points)

    def test_template_validation(self):
        with pytest.raises(ValueError):
            NetTemplate(rho=1.0, delta=0.2, tangent_points=np.array([[2.0, 0.0]]))
        with pytest.raises(ValueError):
            NetTemplate(rho=1.0, delta=0.2, tangent_points=np.zeros((0, 2)))
