import numpy as np
import pytest

from conftest import poincare_at, random_point
from hypack.geometry import HPoint, PolarBatch, distance
from hypack.maps import (
    LipschitzMapHandle,
    _mesh_shortest_path,
    busemann_map,
    compose_euclidean,
    flat_graph_example,
    ideal_point,
    poincare_inclusion,
    radial_distance_map,
)
from oracle_utils import loop_mesh_shortest_path, sampled_lipschitz

TANH1 = 0.7615941559557649  # tanh(1), oracle rounded to double


def images(F, *points):
    return F.batch(PolarBatch.of(points))


class TestPoincareInclusion:
    def test_origin_maps_to_zero(self):
        F = poincare_inclusion(2)
        np.testing.assert_array_equal(images(F, HPoint.origin(2))[0], np.zeros(2))

    def test_radial_value(self):
        F = poincare_inclusion(2)
        np.testing.assert_allclose(
            images(F, HPoint.from_polar(2.0, [1.0, 0.0]))[0], [TANH1, 0.0], atol=1e-15
        )

    def test_image_inside_unit_ball(self, rng):
        F = poincare_inclusion(3)
        pts = PolarBatch.of([random_point(rng, 3, 40.0) for _ in range(200)])
        assert np.linalg.norm(F.batch(pts), axis=1).max() < 1.0

    def test_sampled_ratios_below_half(self):
        F = poincare_inclusion(2)
        est = sampled_lipschitz(F, 10_000, np.random.default_rng(5), 10.0)
        assert 0.0 < est <= 0.5


class TestBusemannMap:
    def test_normalized_at_origin(self):
        B = busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])])
        np.testing.assert_allclose(images(B, HPoint.origin(2))[0], [0.0, 0.0], atol=1e-15)

    def test_along_own_ray(self):
        B = busemann_map([ideal_point([1.0, 0.0])])
        for t in (0.5, 3.0, 40.0, 500.0):
            assert images(B, HPoint.from_polar(t, [1.0, 0.0]))[0, 0] == pytest.approx(-t, abs=1e-9)

    def test_per_coordinate_one_lipschitz(self, rng):
        B = busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])])
        for _ in range(2_000):
            x = random_point(rng, 2, 10.0)
            y = random_point(rng, 2, 10.0)
            d = distance(x, y)
            if d < 1e-9:
                continue
            bx, by = images(B, x, y)
            diff = np.abs(bx - by)
            assert diff.max() <= d * (1.0 + 1e-9) + 1e-12

    def test_rejects_non_null(self):
        with pytest.raises(ValueError):
            busemann_map([np.array([1.0, 0.5, 0.0])])

    def test_rejects_past_pointing(self):
        with pytest.raises(ValueError):
            busemann_map([np.array([-1.0, 1.0, 0.0])])


class TestComposeEuclidean:
    def test_identity(self):
        F = poincare_inclusion(2)
        G = compose_euclidean(F, lambda v: v, 1.0)
        assert G.L == F.L and G.n == F.n
        p = HPoint.from_polar(1.5, [0.0, 1.0])
        np.testing.assert_array_equal(images(G, p), images(F, p))

    def test_scaling_doubles_L(self):
        F = poincare_inclusion(2)
        G = compose_euclidean(F, lambda v: 2.0 * v, 2.0)
        assert G.L == 2.0 * F.L

    def test_projection_reduces_n(self, rng):
        F = poincare_inclusion(2)
        G = compose_euclidean(F, lambda v: v[:, :1], 1.0)
        assert G.n == 1
        est = sampled_lipschitz(G, 3_000, np.random.default_rng(6), 10.0)
        assert est <= G.L * (1.0 + 1e-9)


class TestEstimateLipschitz:
    def test_constant_map(self):
        const = LipschitzMapHandle(fn=lambda pts: np.zeros((len(pts), 2)), L=1.0, n=2, m=2, label="const")
        assert sampled_lipschitz(const, 500, np.random.default_rng(7), 5.0) == 0.0

    def test_radial_map_at_most_one(self):
        R = radial_distance_map(2)
        est = sampled_lipschitz(R, 5_000, np.random.default_rng(8), 10.0)
        assert est <= 1.0 + 1e-9

    def test_shipped_handles_within_declared_L(self):
        handles = [
            poincare_inclusion(2),
            busemann_map([ideal_point([1.0, 0.0]), ideal_point([0.0, 1.0])]),
            radial_distance_map(2),
        ]
        for F in handles:
            for seed in (11, 12, 13):
                est = sampled_lipschitz(F, 2_000, np.random.default_rng(seed), 20.0)
                assert est <= F.L * (1.0 + 1e-9)


def _unit_rows(dirs):
    return np.array([(lambda e: e / np.linalg.norm(e))(ideal_point(d)[1:]) for d in dirs])


def busemann_at(E, p):
    c = np.clip(E @ p.direction, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.logaddexp(p.r + np.log(0.5 * (1.0 - c)), -p.r + np.log(0.5 * (1.0 + c)))


class TestBatchMatchesClosedForm:
    """Each shipped map's row evaluation equals its closed form at one point, bit for bit."""

    @staticmethod
    def points(rng, m):
        pts = [HPoint.origin(m), HPoint.from_polar(500.0, np.eye(m)[1])]
        pts += [random_point(rng, m, 40.0) for _ in range(400)]
        return pts

    @pytest.mark.parametrize("m", [2, 3])
    def test_poincare(self, rng, m):
        pts = self.points(rng, m)
        expected = np.array([poincare_at(p) for p in pts])
        assert np.array_equal(poincare_inclusion(m).batch(PolarBatch.of(pts)), expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_busemann(self, rng, m):
        dirs = np.vstack([np.eye(m), rng.standard_normal((4, m))])
        E = _unit_rows(dirs)
        pts = self.points(rng, m)
        expected = np.array([busemann_at(E, p) for p in pts])
        got = busemann_map([ideal_point(d) for d in dirs]).batch(PolarBatch.of(pts))
        assert np.array_equal(got, expected)

    def test_radial(self, rng):
        pts = self.points(rng, 3)
        got = radial_distance_map(3).batch(PolarBatch.of(pts))
        assert np.array_equal(got, np.array([[p.r] for p in pts]))

    def test_composed_rows(self, rng):
        pts = self.points(rng, 2)
        G = compose_euclidean(poincare_inclusion(2), lambda v: v[:, ::-1] * 3.0, 3.0)
        expected = np.array([poincare_at(p)[::-1] * 3.0 for p in pts])
        assert np.array_equal(G.batch(PolarBatch.of(pts)), expected)

    def test_output_shape_checked(self):
        bad = LipschitzMapHandle(fn=lambda pts: np.zeros((1, 2)), L=1.0, n=2, m=2, label="bad")
        with pytest.raises(ValueError):
            bad.batch(PolarBatch.of([HPoint.origin(2)] * 3))


@pytest.fixture(scope="module")
def rows():
    return flat_graph_example(K=6)


class TestFlatGraphExample:
    def test_extrinsic_exact(self, rows):
        for row in rows:
            assert row.extrinsic == 2.0 / (row.k + 1.0)

    def test_extrinsic_strictly_decreasing(self, rows):
        e = [row.extrinsic for row in rows]
        assert all(b < a for a, b in zip(e, e[1:]))

    def test_lower_bound_is_ridge_climb(self, rows):
        for row in rows:
            assert row.intrinsic_lo == pytest.approx(2.0 * row.k, abs=1e-12)

    def test_bounds_ordered(self, rows):
        for row in rows:
            assert row.intrinsic_lo <= row.intrinsic_hi
            # the straight-over-the-ridge path is short: hi stays close to lo
            assert row.intrinsic_hi <= row.intrinsic_lo * 1.25

    def test_k3_exceeds_spec_floor(self, rows):
        row = rows[2]
        assert row.k == 3
        assert row.intrinsic_lo >= 5.4  # 2 * 3 * 0.9

    def test_ratio_diverges(self, rows):
        ratios = [row.ratio for row in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 10.0  # k = 6

    def test_empty_report(self):
        assert flat_graph_example(K=0) == []

    @pytest.mark.parametrize("k, nx", [(1, 31), (3, 61), (8, 121), (32, 61)])
    def test_mesh_equals_edge_by_edge_build(self, k, nx):
        assert _mesh_shortest_path(k, nx) == loop_mesh_shortest_path(k, nx)
