import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_utils as oracle
from conftest import random_point, random_unit
from hypack.geometry import (
    HPoint,
    HTangent,
    NumericRangeError,
    PolarBatch,
    _comb2,
    dist_given_q,
    distance,
    dist_polar_angle,
    exp_map,
    exp_rows,
    law_of_sines_residual,
    log_map,
    minkowski_inner,
    parallel_transport,
    polar_distance,
    sample_ball,
    transport_frame,
    transvection_to,
    triangle_angles,
)

COSH1 = 1.5430806348152437  # cosh(1), 40-digit oracle rounded to double


class TestMinkowskiInner:
    def test_base_point_self_product(self):
        o = np.array([1.0, 0.0, 0.0])
        assert minkowski_inner(o, o) == -1.0

    def test_orthogonality(self):
        assert minkowski_inner([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0

    def test_cosh1_value(self):
        x = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        o = np.array([1.0, 0.0, 0.0])
        assert minkowski_inner(x, o) == pytest.approx(-COSH1, abs=1e-15)

    def test_bilinear_symmetric(self, rng):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        z = rng.standard_normal(4)
        assert minkowski_inner(x, y) == pytest.approx(minkowski_inner(y, x))
        assert minkowski_inner(x + 2.0 * z, y) == pytest.approx(
            minkowski_inner(x, y) + 2.0 * minkowski_inner(z, y)
        )


class TestDistance:
    def test_coincident(self):
        o = HPoint.origin(2)
        assert distance(o, o) == 0.0

    def test_radial(self):
        o = HPoint.origin(2)
        p = HPoint.from_polar(2.5, [1.0, 0.0])
        assert distance(o, p) == pytest.approx(2.5, abs=1e-12)

    def test_right_angle_polar_points(self):
        # arccosh(cosh^2 3), frozen from the 40-digit oracle
        a = HPoint.from_polar(3.0, [1.0, 0.0])
        b = HPoint.from_polar(3.0, [0.0, 1.0])
        assert distance(a, b) == pytest.approx(5.311779854154866, abs=1e-12)

    def test_symmetry(self, rng):
        # radii up to 350 reach the log-domain branch (r1 + r2 >= 300), which
        # must be bit-symmetric too
        for _ in range(300):
            x = random_point(rng, 3, 350.0)
            y = random_point(rng, 3, 350.0)
            assert distance(x, y) == distance(y, x)
        r1, r2 = rng.uniform(0.0, 350.0, size=(2, 20_000))
        q = rng.uniform(0.0, 1.0, size=20_000)
        assert np.array_equal(dist_given_q(r1, r2, q), dist_given_q(r2, r1, q))

    def test_triangle_inequality_bulk(self, rng):
        violation = 0.0
        for _ in range(10_000):
            x, y, z = (random_point(rng, 2, 8.0) for _ in range(3))
            violation = max(violation, distance(x, z) - distance(x, y) - distance(y, z))
        assert violation <= 1e-9


class TestPolarDistance:
    def test_same_point(self):
        assert polar_distance(3.0, 3.0, 1.0) == 0.0

    def test_antipodal(self):
        assert polar_distance(5.0, 5.0, -1.0) == pytest.approx(10.0, abs=1e-12)

    def test_large_radius_log_domain(self):
        from oracle_utils import mp_polar_distance, rel_err

        got = polar_distance(100.0, 100.0, math.cos(0.01))
        assert float(rel_err(got, mp_polar_distance(100, 100, math.cos(0.01)))) < 1e-12
        # asymptotic form 2*100 + 2*log(sin(0.005))
        assert got == pytest.approx(200.0 + 2.0 * math.log(math.sin(0.005)), abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            polar_distance(1.0, 1.0, 1.0 + 1e-9)
        with pytest.raises(ValueError):
            polar_distance(-0.5, 1.0, 0.0)

    def test_agrees_with_direct_arccosh(self, rng):
        for _ in range(2_000):
            r1 = rng.uniform(0.0, 15.0)
            r2 = rng.uniform(0.0, 15.0 - max(0.0, r1 - 15.0))
            c = rng.uniform(-1.0, 1.0)
            direct = math.acosh(
                max(1.0, math.cosh(r1) * math.cosh(r2) - math.sinh(r1) * math.sinh(r2) * c)
            )
            assert polar_distance(r1, r2, c) == pytest.approx(direct, abs=1e-10)

    def test_monotone_in_theta(self):
        thetas = np.linspace(0.0, math.pi, 200)
        d = [polar_distance(2.0, 3.0, math.cos(t)) for t in thetas]
        assert np.all(np.diff(d) > 0.0)

    def test_angle_form_folds(self):
        # sin^2(theta/2) is symmetric about pi, so angles fold correctly
        assert dist_polar_angle(2.0, 2.0, 1.5) == pytest.approx(
            float(dist_polar_angle(2.0, 2.0, 2.0 * math.pi - 1.5)), rel=1e-14
        )


class TestExpLog:
    def test_exp_zero(self):
        o = HPoint.origin(2)
        assert exp_map(HTangent(o, np.zeros(3))) is o

    def test_exp_unit_radial(self):
        o = HPoint.origin(2)
        p = exp_map(HTangent.at(o, [0.0, 1.0, 0.0]))
        np.testing.assert_allclose(p.coords, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-15)

    def test_log_coincident(self):
        o = HPoint.origin(2)
        assert log_map(o, o).norm == 0.0

    def test_log_radial(self):
        o = HPoint.origin(2)
        y = HPoint.from_coords([math.cosh(2.0), math.sinh(2.0), 0.0])
        np.testing.assert_allclose(log_map(o, y).vec, [0.0, 2.0, 0.0], atol=1e-12)

    def test_exp_log_round_trip(self, rng):
        # the 1e-9 round-trip envelope in doubles: cosh(d) carries eps
        # relative rounding, so the recombination error grows like
        # eps * e^(t + rx - ry); with basepoints at radius <= 4 that caps
        # usable geodesic lengths near 12 (measured worst ~8e-10)
        for _ in range(1_000):
            x = random_point(rng, 3, 4.0)
            t = rng.uniform(0.0, 12.0)
            u = HTangent.at(x, rng.standard_normal(4), project=True)
            if u.norm == 0.0:
                continue
            y = exp_map(u.scaled(t / u.norm))
            v = log_map(x, y)
            assert abs(v.norm - distance(x, y)) <= 1e-9
            assert distance(exp_map(v), y) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="absolute 1e-9 at d = 20 is below the double-precision floor: "
        "either an endpoint sits at radius > 16.8 where direction storage "
        "resolves positions only to eps*sinh(r) > 1e-9, or the geodesic "
        "overlaps the origin region and cosh(d)*coords input rounding costs "
        "eps*e^(t + rx - ry) > 1e-9; no evaluation strategy avoids both",
    )
    def test_exp_log_round_trip_to_d20_as_stated(self, rng):
        worst = 0.0
        for _ in range(1_000):
            x = random_point(rng, 3, 4.0)
            t = rng.uniform(0.0, 20.0)
            u = HTangent.at(x, rng.standard_normal(4), project=True)
            if u.norm == 0.0:
                continue
            y = exp_map(u.scaled(t / u.norm))
            worst = max(worst, distance(exp_map(log_map(x, y)), y))
        assert worst <= 1e-9

    def test_log_exp_round_trip(self, rng):
        for _ in range(500):
            x = random_point(rng, 2, 4.0)
            t = rng.uniform(0.0, 10.0)
            u = random_unit(rng, 3)
            v = HTangent.at(x, u, project=True)
            if v.norm == 0.0:
                continue
            v = v.scaled(t / v.norm)
            w = log_map(x, exp_map(v))
            scale = max(1.0, t) * math.cosh(x.r)
            assert np.linalg.norm(w.vec - v.vec) <= 1e-9 * scale

    def test_exp_distance_matches_norm(self, rng):
        for _ in range(200):
            x = random_point(rng, 2, 3.0)
            t = rng.uniform(0.0, 20.0)
            u = random_unit(rng, 3)
            v = HTangent.at(x, u, project=True)
            if v.norm == 0.0:
                continue
            v = v.scaled(t / v.norm)
            assert distance(x, exp_map(v)) == pytest.approx(t, abs=1e-9)

    def test_exp_range_guard(self):
        p = HPoint.from_polar(340.0, [1.0, 0.0])
        v = parallel_transport(HTangent.at(HPoint.origin(2), [0.0, 0.0, 1.0]), p)
        with pytest.raises(NumericRangeError):
            exp_map(v.scaled(50.0))


def scalar_exp(base, v, t):
    """One exp in scalar arithmetic: libm cosh/sinh/asinh and the 1-D norm."""
    if t == 0.0:
        return base.r, base.direction, base.coords_extended
    c = _comb2(math.cosh(t), base.coords_extended, math.sinh(t), v / t)
    rest = c[1:]
    nr = float(np.linalg.norm(rest))
    d = rest / nr if nr > 0.0 else np.eye(1, rest.shape[0])[0]
    return math.asinh(nr), d, np.concatenate(([math.sqrt(1.0 + nr * nr)], rest))


def exp_case(rng, m, r0, n=64):
    """A base point at radius r0 and n tangent rows (three of length 0) in the o-frame."""
    base = HPoint.from_polar(r0, random_unit(rng, m)) if r0 > 0 else HPoint.origin(m)
    W = rng.standard_normal((n, m)) * rng.uniform(0.0, 2.0, size=(n, 1))
    W[[0, n // 2, n - 1]] = 0.0
    vecs = W @ transport_frame(base)
    return base, W, vecs, np.sqrt(np.einsum("ij,ij->i", W, W))


EXP_RADII = [0.0, 0.5, 3.0, 10.0, 17.0, 25.0]


class TestExpRows:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("r0", EXP_RADII)
    def test_rows_equal_scalar_and_one_row_calls(self, rng, m, r0):
        base, _, vecs, t = exp_case(rng, m, r0)
        rows = exp_rows(base, vecs, t)
        assert len(rows) == len(t)
        for i in range(len(t)):
            r, d, c = scalar_exp(base, vecs[i], float(t[i]))
            one = exp_rows(base, vecs[i : i + 1], t[i : i + 1])
            p = exp_map(HTangent(base, vecs[i], float(t[i])))
            for got in (rows[i], one[0], p):
                assert got.r == r
                assert np.array_equal(got.direction, d)
                assert np.array_equal(got.coords_extended, c)
        for i in (0, len(t) // 2, len(t) - 1):
            assert rows[i].r == base.r and np.array_equal(rows[i].direction, base.direction)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("r0", EXP_RADII)
    def test_against_mpmath(self, rng, m, r0):
        base, W, vecs, t = exp_case(rng, m, r0, n=24)
        rows = exp_rows(base, vecs, t)
        for i in range(len(t)):
            radius, direction = oracle.mp_exp(base.r, base.direction, W[i])
            assert float(oracle.rel_err(rows.r[i], radius)) <= 1e-10
            gap = max(abs(float(a) - b) for a, b in zip(direction, rows.dirs[i]))
            assert gap <= 1e-10

    def test_empty_and_range_guard(self):
        o = HPoint.origin(2)
        assert len(exp_rows(o, np.zeros((0, 3)), np.zeros(0))) == 0
        with pytest.raises(NumericRangeError):
            exp_rows(o, [[0.0, 1.0, 0.0], [0.0, 400.0, 0.0]], [1.0, 400.0])
        far = PolarBatch.of([o, HPoint.from_polar(349.5, [0.6, 0.8])])
        with pytest.raises(NumericRangeError):
            exp_rows(far, np.zeros((2, 1, 3)), [1.0])

    @pytest.mark.parametrize("m", [2, 3])
    def test_many_bases_equal_one_base_calls(self, rng, m):
        bases = PolarBatch.of(
            [HPoint.from_polar(r0, random_unit(rng, m)) if r0 > 0 else HPoint.origin(m) for r0 in EXP_RADII]
        )
        frames = transport_frame(bases)
        W = rng.standard_normal((16, m)) * rng.uniform(0.0, 2.0, size=(16, 1))
        W[[0, 7]] = 0.0
        vecs, t = W @ frames, np.sqrt(np.einsum("ij,ij->i", W, W))
        shared = exp_rows(bases, vecs, t)
        each = exp_rows(bases, vecs, np.tile(t, (len(bases), 1)))
        for i in range(len(bases)):
            assert np.array_equal(frames[i], transport_frame(bases[i]))
            one = exp_rows(bases[i], vecs[i], t)
            for rows in (shared, each):
                block = rows[16 * i : 16 * (i + 1)]
                assert np.array_equal(block.r, one.r)
                assert np.array_equal(block.dirs, one.dirs)
                assert np.array_equal(block.coords, one.coords)
            assert one.r[7] == bases.r[i] and np.array_equal(one.coords[0], bases.coords[i])


class TestPolarBatch:
    def test_rows_and_sub_batches(self, rng):
        pts = [random_point(rng, 3, 20.0) for _ in range(5)]
        batch = PolarBatch.of(pts)
        assert len(batch) == 5 and batch.coords.shape == (5, 4)
        for p, q in zip(pts, batch):
            assert q.r == p.r and type(q.r) is float
            assert np.array_equal(q.direction, p.direction)
            assert np.array_equal(q.coords_extended, p.coords_extended)
        sub = batch[[4, 1]]
        assert isinstance(sub, PolarBatch) and np.array_equal(sub.r, [pts[4].r, pts[1].r])
        assert len(batch[1:3]) == 2

    def test_read_only(self, rng):
        batch = PolarBatch.of([random_point(rng) for _ in range(3)])
        for a in (batch.r, batch.dirs, batch.coords, batch[1:].dirs, batch[[0]].r):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_coords_only_where_representable(self):
        far = HPoint.from_polar(400.0, [1.0, 0.0])
        batch = PolarBatch.of([HPoint.origin(2), far])
        assert batch.coords is None and batch.r[1] == 400.0
        with pytest.raises(NumericRangeError):
            batch[0].coords_extended


class TestHPoint:
    def test_self_product_small_radius(self, rng):
        for _ in range(200):
            p = random_point(rng, 3, 4.0)
            assert abs(minkowski_inner(p.coords, p.coords) + 1.0) <= 1e-12

    def test_coords_polar_agreement(self, rng):
        for _ in range(200):
            p = random_point(rng, 2, 30.0)
            rebuilt = np.concatenate(([math.cosh(p.r)], math.sinh(p.r) * p.direction))
            np.testing.assert_allclose(p._coords, rebuilt, rtol=1e-9, atol=1e-9)

    def test_polar_authoritative_beyond_30(self):
        p = HPoint.from_polar(50.0, [1.0, 0.0])
        with pytest.raises(NumericRangeError):
            _ = p.coords
        assert p.r == 50.0

    def test_from_coords_round_trip(self, rng):
        for _ in range(100):
            p = random_point(rng, 3, 10.0)
            q = HPoint.from_coords(p.coords)
            assert distance(p, q) <= 1e-11

    def test_from_coords_rejects_off_sheet(self):
        with pytest.raises(ValueError):
            HPoint.from_coords([2.0, 0.0, 0.0])

    def test_upper_sheet_required(self):
        with pytest.raises(ValueError):
            HPoint.from_coords([-1.0, 0.0, 0.0])


class TestParallelTransport:
    def test_identity_at_base(self, rng):
        x = random_point(rng, 2, 3.0)
        v = HTangent.at(x, random_unit(rng, 3), project=True)
        w = parallel_transport(v, x)
        np.testing.assert_allclose(w.vec, v.vec, atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(300):
            x = random_point(rng, 3, 5.0)
            y = random_point(rng, 3, 5.0)
            v = HTangent.at(x, rng.standard_normal(4), project=True)
            w = parallel_transport(v, y)
            computed = math.sqrt(max(float(minkowski_inner(w.vec, w.vec)), 0.0))
            assert abs(computed - v.norm) <= 1e-10 * max(1.0, v.norm)

    def test_orthonormal_frame_stays_orthonormal(self, rng):
        x = HPoint.origin(3)
        y = random_point(rng, 3, 8.0)
        frame = [
            parallel_transport(HTangent.at(x, e), y)
            for e in np.eye(4)[1:]
        ]
        gram = np.array(
            [[float(minkowski_inner(a.vec, b.vec)) for b in frame] for a in frame]
        )
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)

    def test_transport_frame_matches_pointwise(self, rng):
        p = random_point(rng, 3, 6.0)
        F = transport_frame(p)
        for i, e in enumerate(np.eye(4)[1:]):
            w = parallel_transport(HTangent.at(HPoint.origin(3), e), p)
            np.testing.assert_allclose(F[i], w.vec, atol=1e-9)


class TestTriangles:
    def test_equilateral_symmetric(self):
        o = HPoint.origin(2)
        pts = [
            exp_map(HTangent.at(o, [0.0, math.cos(t), math.sin(t)]).scaled(2.0))
            for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        ]
        angs = triangle_angles(*pts)
        assert max(angs) - min(angs) <= 1e-9

    def test_angle_sum_below_pi(self, rng):
        for _ in range(200):
            a = random_point(rng, 2, 3.0)
            b = random_point(rng, 2, 3.0)
            c = random_point(rng, 2, 3.0)
            try:
                angs = triangle_angles(a, b, c)
            except ValueError:
                continue
            assert sum(angs) < math.pi - 1e-9

    def test_thin_triangle_angle_sum(self):
        o = HPoint.origin(2)
        a = exp_map(HTangent.at(o, [0.0, 1.0, 0.0]).scaled(10.0))
        b = exp_map(HTangent.at(o, [0.0, math.cos(1e-3), math.sin(1e-3)]).scaled(10.0))
        angs = triangle_angles(o, a, b)
        assert sum(angs) < math.pi - 1e-9

    def test_degenerate_raises(self):
        o = HPoint.origin(2)
        p = HPoint.from_polar(1.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            triangle_angles(o, o, p)

    def test_law_of_sines_built_triangles(self, rng):
        # double precision supports the 1e-8 absolute residual up to
        # sinh(side)/sin(angle) ~ 1e7; keep legs below ~3.75 so the longest
        # side stays under ~8 (see notes in the acceptance suite)
        for _ in range(300):
            o = random_point(rng, 2, 2.0)
            t1 = rng.uniform(0.0, 2.0 * math.pi)
            t2 = t1 + rng.uniform(0.4, math.pi - 0.4)
            b, c = rng.uniform(0.1, 3.7, size=2)
            u1 = HTangent.at(o, [0.0, math.cos(t1), math.sin(t1)], project=True)
            u2 = HTangent.at(o, [0.0, math.cos(t2), math.sin(t2)], project=True)
            p1 = exp_map(u1.scaled(b / u1.norm))
            p2 = exp_map(u2.scaled(c / u2.norm))
            sides = (distance(p1, p2), distance(o, p2), distance(o, p1))
            if min(sides) < 0.1:
                continue
            angs = triangle_angles(o, p1, p2)
            assert law_of_sines_residual(sides, angs) <= 1e-8

    def test_residual_sensitive_to_perturbation(self):
        o = HPoint.origin(2)
        a = exp_map(HTangent.at(o, [0.0, 1.5, 0.0]))
        b = exp_map(HTangent.at(o, [0.0, 0.0, 1.5]))
        sides = (distance(a, b), distance(o, b), distance(o, a))
        angs = list(triangle_angles(o, a, b))
        clean = law_of_sines_residual(sides, angs)
        angs[1] += 0.1
        assert law_of_sines_residual(sides, angs) > max(10.0 * clean, 1e-3)

    def test_isoceles_midpoint_identity_C1_R4(self):
        # right triangle cut from the isoceles pair: sinh(d(q, p_i)) equals
        # sinh(R - C) * sin(angle/2), checked for (C, R) = (1, 4)
        C, R = 1.0, 4.0
        rho = R - C
        o = HPoint.origin(2)
        from hypack.packing import packing_angle

        theta = 2.0 * packing_angle(C, R)
        pi_ = exp_map(HTangent.at(o, [0.0, 1.0, 0.0]).scaled(rho))
        pj = exp_map(HTangent.at(o, [0.0, math.cos(theta), math.sin(theta)]).scaled(rho))
        q = exp_map(log_map(pi_, pj).scaled(0.5))
        lhs = math.sinh(distance(q, pi_))
        rhs = math.sinh(rho) * math.sin(theta / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        # the midpoint subtends a right angle
        angs = triangle_angles(q, o, pi_)
        assert angs[0] == pytest.approx(math.pi / 2.0, abs=1e-9)


class TestTriangleRange:
    def test_far_vertices_raise_or_fit_a_triangle(self):
        # vertex radii in [20, 40]: the ambient coordinates cannot resolve the angles
        rng = np.random.default_rng(20261018)
        raised = 0
        for _ in range(300):
            pts = [HPoint.from_polar(rng.uniform(20.0, 40.0), random_unit(rng, 2)) for _ in range(3)]
            try:
                angs = triangle_angles(*pts)
            except NumericRangeError:
                raised += 1
                continue
            assert all(0.0 < a < math.pi for a in angs) and sum(angs) < math.pi
        assert raised > 0


class TestTangentPairKernel:
    def test_matches_ambient_distance_at_moderate_base(self, rng):
        # the law-of-cosines kernel on tangent data at p equals the ambient
        # distance between the exponentials; this is what makes local
        # geometry computable at basepoints where coordinates collapse
        p = random_point(rng, 2, 5.0)
        for _ in range(100):
            a = rng.uniform(0.0, 2.0) * random_unit(rng, 2)
            b = rng.uniform(0.0, 2.0) * random_unit(rng, 2)
            frame = transport_frame(p)
            pa = exp_map(HTangent(p, a @ frame, float(np.linalg.norm(a))))
            pb = exp_map(HTangent(p, b @ frame, float(np.linalg.norm(b))))
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na > 0 and nb > 0:
                q = 0.25 * float(np.sum((a / na - b / nb) ** 2))
            else:
                q = 0.0
            local = float(dist_given_q(na, nb, q))
            assert local == pytest.approx(distance(pa, pb), abs=1e-9)


class TestDistGivenQKernel:
    # the log-domain branch runs only where r1 + r2 >= 300 and is skipped when
    # no element needs it; batched, 0-d and oracle values must all agree

    @staticmethod
    def _cases(kind, rng):
        if kind == "scalars":
            triples = [
                (0.0, 0.0, 0.0),
                (3.0, 3.0, 0.0),
                (0.0, 7.0, 0.3),
                (20.0, 20.0, 1e-16),
                (149.5, 150.4, 0.2),
                (150.0, 150.0, 1e-9),
                (1e4, 2.5, 1e-6),
                (1e4, 1e4, 1.0),
            ]
            return tuple(np.array(col) for col in zip(*triples))
        lo, hi = (0.0, 20.0) if kind == "direct" else (100.0, 200.0)
        r1, r2, q = rng.uniform(lo, hi, 300), rng.uniform(lo, hi, 300), rng.uniform(0.0, 1.0, 300)
        q[:10] = 0.0
        q[10:20] = 1e-12
        return r1, r2, q

    @pytest.mark.parametrize("kind", ["scalars", "direct", "straddle"])
    def test_matches_scalar_and_oracle(self, rng, kind):
        r1, r2, q = self._cases(kind, rng)
        direct = r1 + r2 < 300.0
        if kind == "direct":
            assert direct.all()
        else:
            assert direct.any() and not direct.all()
        batch = dist_given_q(r1, r2, q)
        one_by_one = [dist_given_q(float(a), float(b), float(c)) for a, b, c in zip(r1, r2, q)]
        assert all(np.ndim(d) == 0 for d in one_by_one)
        assert np.array(one_by_one, dtype=float).tobytes() == batch.tobytes()
        worst = max(
            float(oracle.rel_err(d, oracle.mp_dist_given_q(a, b, c)))
            for d, a, b, c in zip(batch, r1, r2, q)
        )
        assert worst <= 1e-10


class TestTransvections:
    def test_identity_at_origin(self, rng):
        T = transvection_to(HPoint.origin(2))
        x = random_point(rng, 2, 5.0)
        assert distance(T(x), x) <= 1e-12

    def test_moves_origin_to_target(self, rng):
        p = random_point(rng, 3, 8.0)
        T = transvection_to(p)
        assert distance(T(HPoint.origin(3)), p) <= 1e-9

    def test_distance_preservation(self, rng):
        p = HPoint.from_polar(6.0, random_unit(rng, 3))
        T = transvection_to(p)
        for _ in range(1_000):
            x = random_point(rng, 3, 5.0)
            y = random_point(rng, 3, 5.0)
            assert abs(distance(T(x), T(y)) - distance(x, y)) <= 1e-9

    def test_inverse_composition(self, rng):
        p = random_point(rng, 2, 7.0)
        T = transvection_to(p)
        Ti = T.inverse()
        for _ in range(50):
            x = random_point(rng, 2, 5.0)
            assert distance(Ti(T(x)), x) <= 1e-9


class TestSampling:
    def test_radius_density_m2(self, rng):
        X = sample_ball(2, 1.5, 100_000, rng)
        r = np.linalg.norm(X, axis=1)
        assert r.max() <= 1.5
        # CDF at rho/2 under sinh-density
        expected = (math.cosh(0.75) - 1.0) / (math.cosh(1.5) - 1.0)
        assert np.mean(r <= 0.75) == pytest.approx(expected, abs=0.01)

    def test_radius_density_m3(self, rng):
        import mpmath as mp

        X = sample_ball(3, 2.0, 100_000, rng)
        r = np.linalg.norm(X, axis=1)
        assert np.mean(r <= 2.0) == 1.0
        # CDF at radius 1 under the sinh^2 density, by quadrature
        oracle = float(
            mp.quad(lambda s: mp.sinh(s) ** 2, [0, 1]) / mp.quad(lambda s: mp.sinh(s) ** 2, [0, 2])
        )
        assert np.mean(r <= 1.0) == pytest.approx(oracle, abs=0.01)


@settings(max_examples=50, deadline=None)
@given(
    r1=st.floats(0.0, 20.0),
    r2=st.floats(0.0, 20.0),
    theta=st.floats(0.0, math.pi),
)
def test_polar_distance_metric_properties(r1, r2, theta):
    c = math.cos(theta)
    d = polar_distance(r1, r2, c)
    assert d >= abs(r1 - r2) - 1e-9
    assert d <= r1 + r2 + 1e-9
    assert polar_distance(r2, r1, c) == pytest.approx(d, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.0, 3.0),
    t=st.floats(0.0, 10.0),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_exp_log_inverse_property(r, t, phi):
    x = HPoint.from_polar(r, [1.0, 0.0])
    v = HTangent.at(x, [0.0, math.cos(phi), math.sin(phi)], project=True)
    if v.norm == 0.0:
        return
    v = v.scaled(t / v.norm) if t > 0 else v.scaled(0.0)
    y = exp_map(v)
    assert abs(distance(x, y) - t) <= 1e-9
    w = log_map(x, y)
    assert np.linalg.norm(w.vec - v.vec) <= 1e-8 * max(1.0, t) * math.cosh(r)
