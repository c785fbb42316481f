import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypack.search
from conftest import random_point, random_unit, time_limit
from hypack.geometry import HPoint, NumericRangeError, PolarBatch, distance
from hypack.maps import busemann_map, ideal_point, poincare_inclusion
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
from hypack.search import _AUGMENT_BLOCK_ROWS, augment_map
from oracle_utils import brute_greedy_net, per_point_augmented, per_point_transport


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
        assert len(transport_net(net_2d, PolarBatch.of([p]))) == net_2d.l


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
        pts = transport_net(net_2d, PolarBatch.of([o]))
        for tp, p in zip(net_2d.tangent_points, pts):
            r = float(np.linalg.norm(tp))
            assert p.r == pytest.approx(r, abs=1e-12)
            if r > 0:
                np.testing.assert_allclose(p.direction, tp / r, atol=1e-12)

    def test_radial_distances_match_template(self, net_2d, rng):
        p = random_point(rng, 2, 8.0)
        pts = transport_net(net_2d, PolarBatch.of([p]))
        norms = np.linalg.norm(net_2d.tangent_points, axis=1)
        for q, t in zip(pts, norms):
            assert distance(p, q) == pytest.approx(float(t), abs=1e-9)

    def test_congruence_between_basepoints(self, net_2d, rng):
        # transported nets are isometric copies: pairwise distance multisets agree
        a = random_point(rng, 2, 6.0)
        b = random_point(rng, 2, 6.0)
        both = transport_net(net_2d, PolarBatch.of([a, b]))
        pts_a, pts_b = both[: net_2d.l], both[net_2d.l :]
        sample = rng.choice(net_2d.l, size=min(25, net_2d.l), replace=False)
        for i in sample[:12]:
            for j in sample[12:]:
                da = distance(pts_a[int(i)], pts_a[int(j)])
                db = distance(pts_b[int(i)], pts_b[int(j)])
                assert da == pytest.approx(db, abs=1e-9)

    def test_dimension_mismatch(self, net_2d):
        with pytest.raises(ValueError):
            transport_net(net_2d, PolarBatch.of([HPoint.origin(3)]))


def _basepoints(rng, m, n, max_radius=30.0):
    """The origin, a point at max_radius and n - 2 random points, as rows."""
    pts = [HPoint.origin(m), HPoint.from_polar(max_radius, random_unit(rng, m))]
    pts += [random_point(rng, m, max_radius) for _ in range(n - 2)]
    return PolarBatch.of(pts[:n])


def _assert_same_rows(got, ref):
    assert np.array_equal(got.r, ref.r)
    assert np.array_equal(got.dirs, ref.dirs)
    assert np.array_equal(got.coords, ref.coords)


def _check_transport_matches_oracle(m, n=40, seed=0):
    """Batched transport and augmented maps equal the per-basepoint oracle bit for bit."""
    rng = np.random.default_rng(seed)
    tmpl = build_reference_net(1.0, 0.3, m)
    assert not tmpl.tangent_points[0].any()  # the t = 0 rows are exercised
    pts = _basepoints(rng, m, n)
    got = transport_net(tmpl, pts)
    assert len(got) == n * tmpl.l
    for i in range(n):
        _assert_same_rows(got[i * tmpl.l : (i + 1) * tmpl.l], per_point_transport(tmpl, pts[i]))
    e = np.eye(m)
    for F in (poincare_inclusion(m), busemann_map([ideal_point(d) for d in np.vstack([e, -e])])):
        assert np.array_equal(augment_map(F, tmpl).batch(pts), per_point_augmented(F, tmpl, pts))


def _count_transport_calls(monkeypatch):
    """Route the augmented map's transport_net calls through a counter; returns
    the list of batch sizes it sees."""
    calls = []

    def counting(net, points):
        calls.append(len(points))
        return transport_net(net, points)

    monkeypatch.setattr(hypack.search, "transport_net", counting)
    return calls


class TestBatchedTransport:
    """transport_net over N basepoints against the per-basepoint oracle."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_point_oracle(self, m):
        _check_transport_matches_oracle(m)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_oracle_at_blas_threads(self, threads):
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        code = "import test_nets\nfor m in (2, 3): test_nets._check_transport_matches_oracle(m, seed=1)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("m", [2, 3])
    def test_single_basepoint(self, m, rng):
        tmpl = build_reference_net(1.0, 0.3, m)
        for p in (HPoint.origin(m), random_point(rng, m, 30.0)):
            _assert_same_rows(transport_net(tmpl, PolarBatch.of([p])), per_point_transport(tmpl, p))

    def test_empty_batch(self):
        tmpl = build_reference_net(1.0, 0.5, 2)
        got = transport_net(tmpl, _basepoints(np.random.default_rng(0), 2, 3)[:0])
        assert len(got) == 0 and got.dirs.shape == (0, 2)

    def test_range_error_past_radius_350(self):
        tmpl = build_reference_net(1.0, 0.5, 2)
        ok = HPoint.from_polar(300.0, [1.0, 0.0])
        for far in (HPoint.from_polar(349.5, [0.6, 0.8]), HPoint.from_polar(400.0, [0.0, 1.0])):
            with pytest.raises(NumericRangeError):
                transport_net(tmpl, PolarBatch.of([ok, far]))
            with pytest.raises(NumericRangeError):
                augment_map(poincare_inclusion(2), tmpl).batch(PolarBatch.of([far]))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_augmented_blocks_match_oracle(self, offset):
        tmpl = build_reference_net(1.0, 0.5, 2)
        block = _AUGMENT_BLOCK_ROWS // tmpl.l
        pts = _basepoints(np.random.default_rng(2), 2, block + offset)
        F = poincare_inclusion(2)
        assert np.array_equal(augment_map(F, tmpl).batch(pts), per_point_augmented(F, tmpl, pts))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_transport_call_per_block(self, monkeypatch, n):
        tmpl = build_reference_net(1.0, 0.5, 2)
        block = _AUGMENT_BLOCK_ROWS // tmpl.l
        N = (n - 1) * block + 1
        calls = _count_transport_calls(monkeypatch)
        augment_map(poincare_inclusion(2), tmpl).batch(_basepoints(np.random.default_rng(3), 2, N))
        assert len(calls) == n == -(-N // block) and sum(calls) == N
        assert max(calls) <= block

    def test_block_holds_one_basepoint_when_the_net_exceeds_the_budget(self, monkeypatch):
        tmpl = build_reference_net(1.0, 0.5, 2)
        monkeypatch.setattr(hypack.search, "_AUGMENT_BLOCK_ROWS", tmpl.l - 1)
        calls = _count_transport_calls(monkeypatch)
        pts = _basepoints(np.random.default_rng(4), 2, 4)
        F = poincare_inclusion(2)
        assert np.array_equal(augment_map(F, tmpl).batch(pts), per_point_augmented(F, tmpl, pts))
        assert calls == [1, 1, 1, 1]


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
