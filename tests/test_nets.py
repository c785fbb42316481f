import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import hypack.geometry
import hypack.search
from conftest import random_point, random_unit, time_limit
from hypack.geometry import HPoint, NumericRangeError, PolarBatch, distance
from hypack.maps import LipschitzMapHandle, busemann_map, ideal_point, poincare_inclusion
from hypack.nets import (
    NET_POINTS_MAX,
    NetTemplate,
    _lattice_step,
    build_reference_net,
    transport_net,
)
from hypack.search import net_images
from oracle_utils import (
    brute_lattice_points,
    cover_probes,
    net_gap,
    per_point_augmented,
    per_point_transport,
    tangent_ball,
)


@pytest.fixture(scope="module")
def net_2d():
    return build_reference_net(1.0, 0.25, 2)


class TestBuildReferenceNet:
    def test_single_point_when_delta_covers(self):
        tmpl = build_reference_net(1.0, 1.0, 2)
        assert tmpl.l == 1
        np.testing.assert_array_equal(tmpl.tangent_points, np.zeros((1, 2)))
        # the center alone covers: every point of the ball lies within rho < delta
        wide = build_reference_net(0.8, 0.9, 2)
        assert wide.l == 1 and net_gap(wide.tangent_points, np.vstack(cover_probes(0.8, 0.9, 2))) <= wide.delta

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


_NET_CASES = [
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
]


def _size_bound(rho, delta, m):
    """vol B_m(rho + 2 spacing) / h^m, in floats."""
    spacing, h = _lattice_step(rho, delta, m)
    unit_ball = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
    return unit_ball * (rho + 2.0 * spacing) ** m / h**m


class TestLatticeNet:
    @pytest.mark.parametrize("rho, delta, m", _NET_CASES)
    def test_size_equals_brute_count(self, rho, delta, m):
        tmpl = build_reference_net(rho, delta, m)
        if delta >= rho:  # the center alone covers the ball
            assert tmpl.l == 1
        else:
            spacing, h = _lattice_step(rho, delta, m)
            assert tmpl.l == len(brute_lattice_points(rho, spacing, h, m))

    @pytest.mark.parametrize("rho, delta, m", [c for c in _NET_CASES if c[1] < c[0]])
    def test_covers_cell_corners_and_sphere(self, rho, delta, m):
        # the cell corners are the points farthest from the lattice; sphere
        # points are the ones the projection onto the ball serves.  In the
        # tangent ball the net covers at the spacing; in H^m, by the exact
        # law of cosines, at delta, also at a uniform sample of the ball
        spacing, h = _lattice_step(rho, delta, m)
        assert h * math.sqrt(m) / 2.0 <= spacing
        tmpl = build_reference_net(rho, delta, m)
        corners, sphere, ball = cover_probes(rho, delta, m)
        for x in (corners, sphere):
            gap = cdist(x, tmpl.tangent_points).min(axis=1)
            assert gap.max() <= spacing * (1.0 + 1e-12)
        assert net_gap(tmpl.tangent_points, np.vstack([corners, sphere, ball])) <= delta

    @pytest.mark.parametrize("rho, delta, m", [c for c in _NET_CASES if c[1] < c[0]])
    def test_half_net_fails_the_probe(self, rho, delta, m):
        # without its points of positive first coordinate the net leaves the
        # sphere points near rho e_1 about rho from every point it keeps
        pts = build_reference_net(rho, delta, m).tangent_points
        corners, sphere, _ = cover_probes(rho, delta, m)
        assert net_gap(pts[pts[:, 0] <= 0.0], np.vstack([corners, sphere])) > delta

    @pytest.mark.parametrize("rho, delta, m", [c for c in _NET_CASES if c[1] < c[0]])
    def test_size_within_closed_form_bound(self, rho, delta, m):
        assert build_reference_net(rho, delta, m).l <= _size_bound(rho, delta, m)

    @pytest.mark.parametrize("rho, delta, m", _NET_CASES)
    def test_origin_is_row_0(self, rho, delta, m):
        tmpl = build_reference_net(rho, delta, m)
        assert not tmpl.tangent_points[0].any()
        assert np.count_nonzero(~tmpl.tangent_points.any(axis=1)) == 1

    def test_search_m3_net_size(self):
        # the net of `search --map busemann --m 3` at r = 1, eps = 0.5
        F = busemann_map([ideal_point(d) for d in np.eye(3)])
        tmpl = hypack.search.certificate_net(F, 1.0, 0.5)
        assert tmpl.l == 2103
        assert tmpl.l <= _size_bound(1.0, tmpl.delta, 3) < NET_POINTS_MAX

    @pytest.mark.parametrize(
        "rho, delta, m",
        [
            (1.0, 0.5, 5), (1.0, 0.5, 6), (1.0, 0.5, 400), (1.0, 1e-7, 2), (1.0, 1e-300, 2),
            (1000.0, 0.25, 2), (1e300, 0.25, 2),  # sinh(rho) overflows
        ],
    )
    def test_over_limit_refused(self, rho, delta, m):
        # refused from the closed-form bound, before anything is allocated
        tracemalloc.start()
        try:
            with time_limit(10.0), pytest.raises(ValueError, match=f"limit of {NET_POINTS_MAX:,}"):
                build_reference_net(rho, delta, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestTransportNet:
    def test_identity_at_origin(self, net_2d):
        o = HPoint.origin(2)
        pts = transport_net(net_2d, PolarBatch.of([o]))
        for tp, p in zip(net_2d.tangent_points, pts):
            r = float(np.linalg.norm(tp))
            assert p.r == pytest.approx(r, abs=1e-12)
            if r > 0:
                np.testing.assert_allclose(p.direction, tp / r, atol=1e-12)

    def test_moves_origin_to_target(self, rng):
        # the zero tangent vector lands exactly on the basepoint
        tmpl = NetTemplate(rho=1.0, delta=1.0, tangent_points=np.zeros((1, 3)))
        for p in (random_point(rng, 3, 8.0), HPoint.from_polar(300.0, random_unit(rng, 3))):
            _assert_same_rows(transport_net(tmpl, PolarBatch.of([p])), PolarBatch.of([p]))

    def test_distance_preservation(self, rng):
        # sigma_p is an isometry: the net's pairwise distances at p equal those at o
        tmpl = NetTemplate(rho=5.0, delta=1.0, tangent_points=tangent_ball(rng, 3, 5.0, 1_000))
        p = HPoint.from_polar(6.0, random_unit(rng, 3))
        both = transport_net(tmpl, PolarBatch.of([HPoint.origin(3), p]))
        at_o, at_p = both[: tmpl.l], both[tmpl.l :]
        i, j = np.triu_indices(tmpl.l, 1)
        gap = distance(at_p[i], at_p[j]) - distance(at_o[i], at_o[j])
        assert np.max(np.abs(gap)) <= 1e-9

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


def _augmented_rows(F, tmpl, pts):
    """The net-augmented map at every basepoint: its row of net_images, raveled."""
    return net_images(F, tmpl, pts).reshape(len(pts), -1)


def _check_transport_matches_oracle(m, n=40, seed=0):
    """Batched transport and net images equal the per-basepoint oracle bit for bit."""
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
        assert np.array_equal(_augmented_rows(F, tmpl, pts), per_point_augmented(F, tmpl, pts))


def _count_transport_calls(monkeypatch):
    """Route the transport_net calls of net_images through a counter; returns
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
                net_images(poincare_inclusion(2), tmpl, PolarBatch.of([far]))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_augmented_blocks_match_oracle(self, offset):
        tmpl = build_reference_net(1.0, 0.5, 2)
        block = hypack.geometry._BLOCK_ELEMENTS // (tmpl.l * 3)  # l*(m+1) elements per basepoint
        pts = _basepoints(np.random.default_rng(2), 2, block + offset)
        F = poincare_inclusion(2)
        assert np.array_equal(_augmented_rows(F, tmpl, pts), per_point_augmented(F, tmpl, pts))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_transport_call_per_block(self, monkeypatch, n):
        tmpl = build_reference_net(1.0, 0.5, 2)
        block = hypack.geometry._BLOCK_ELEMENTS // (tmpl.l * 3)  # l*(m+1) elements per basepoint
        N = (n - 1) * block + 1
        calls = _count_transport_calls(monkeypatch)
        net_images(poincare_inclusion(2), tmpl, _basepoints(np.random.default_rng(3), 2, N))
        assert len(calls) == n == -(-N // block) and sum(calls) == N
        assert max(calls) <= block

    def test_block_holds_one_basepoint_when_the_net_exceeds_the_budget(self, monkeypatch):
        tmpl = build_reference_net(1.0, 0.5, 2)
        monkeypatch.setattr(hypack.geometry, "_BLOCK_ELEMENTS", tmpl.l * 3 - 1)
        calls = _count_transport_calls(monkeypatch)
        pts = _basepoints(np.random.default_rng(4), 2, 4)
        F = poincare_inclusion(2)
        assert np.array_equal(_augmented_rows(F, tmpl, pts), per_point_augmented(F, tmpl, pts))
        assert calls == [1, 1, 1, 1]

    def test_net_images_of_no_basepoints(self, monkeypatch):
        tmpl = build_reference_net(1.0, 0.5, 2)
        calls = _count_transport_calls(monkeypatch)
        got = net_images(poincare_inclusion(2), tmpl, _basepoints(np.random.default_rng(5), 2, 3)[:0])
        assert got.shape == (0, tmpl.l, 2) and calls == []

    def test_net_images_refuse_a_map_of_the_wrong_shape(self):
        # the right number of values, raveled: F.batch checks the shape of F.fn's output
        tmpl = build_reference_net(1.0, 0.5, 2)
        P = poincare_inclusion(2)
        raveled = LipschitzMapHandle(fn=lambda pts: P.fn(pts).ravel(), L=P.L, n=2, m=2, label="raveled")
        pts = _basepoints(np.random.default_rng(6), 2, 3)
        with pytest.raises(ValueError, match=r"raveled: expected output of shape \(%d, 2\)" % (3 * tmpl.l)):
            net_images(raveled, tmpl, pts)


class TestSerialization:
    def test_template_validation(self):
        with pytest.raises(ValueError):
            NetTemplate(rho=1.0, delta=0.2, tangent_points=np.array([[2.0, 0.0]]))
        with pytest.raises(ValueError):
            NetTemplate(rho=1.0, delta=0.2, tangent_points=np.zeros((0, 2)))
