import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypack.geometry
import oracle_utils as oracle
from conftest import random_point, random_unit
from hypack.geometry import (
    EXP_RADIUS_MAX,
    HPoint,
    NumericRangeError,
    PolarBatch,
    _asinh,
    _comb2,
    _cosh,
    _sinh,
    _tanh,
    dist_given_q,
    distance,
    exp_map,
    exp_rows,
    polar_distance,
    transport_frame,
)
from oracle_utils import (
    exp_along,
    law_of_sines_residual,
    log_map,
    minkowski_inner,
    parallel_transport,
    project_tangent,
    tangent_norm,
    triangle_angles,
)

COSH1 = 1.5430806348152437  # cosh(1), 40-digit oracle rounded to double


class TestMinkowskiInner:
    """The oracle's Minkowski form, which the tangent references are built on."""

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_rows_equal_scalar_pairs(self, rng, m):
        # radii up to 350 put pairs on both sides of the log-domain switch at r1 + r2 = 300
        xs, ys = (PolarBatch.of([random_point(rng, m, 350.0) for _ in range(300)]) for _ in range(2))
        assert np.any(xs.r + ys.r >= 300.0) and np.any(xs.r + ys.r < 300.0)
        rows = distance(xs, ys)
        assert rows.shape == (300,)
        assert np.array_equal(rows, [distance(x, y) for x, y in zip(xs, ys)])
        for p in (xs[0], xs[int(np.argmax(xs.r))]):
            assert np.array_equal(distance(p, ys), [distance(p, y) for y in ys])
            assert np.array_equal(distance(ys, p), distance(p, ys))
        for d, x, y in zip(rows[:60], xs, ys):
            q = sum((oracle.mp.mpf(a) - oracle.mp.mpf(b)) ** 2 for a, b in zip(x.direction, y.direction)) / 4
            assert float(oracle.rel_err(d, oracle.mp_dist_given_q(x.r, y.r, q))) < 1e-10

    def test_dimension_mismatch(self, rng):
        p2, p3 = random_point(rng, 2), random_point(rng, 3)
        for x, y in ((p2, p3), (p2, PolarBatch.of([p3])), (PolarBatch.of([p3, p3]), PolarBatch.of([p2, p2]))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                distance(x, y)

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



class TestExpLog:
    def test_exp_zero(self):
        o = HPoint.origin(2)
        p = exp_map(o, np.zeros(3), 0.0)
        assert p.r == o.r and np.array_equal(p.direction, o.direction)
        assert np.array_equal(p.coords, o.coords)

    def test_exp_unit_radial(self):
        o = HPoint.origin(2)
        p = exp_map(o, [0.0, 1.0, 0.0], 1.0)
        np.testing.assert_allclose(p.coords, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-15)

    def test_log_coincident(self):
        o = HPoint.origin(2)
        v, d = log_map(o, o)
        assert d == 0.0 and not v.any()

    def test_log_radial(self):
        o = HPoint.origin(2)
        y = HPoint.from_polar(2.0, [1.0, 0.0])
        np.testing.assert_allclose(log_map(o, y)[0], [0.0, 2.0, 0.0], atol=1e-12)

    def test_exp_log_round_trip(self, rng):
        # the 1e-9 round-trip envelope in doubles: cosh(d) carries eps
        # relative rounding, so the recombination error grows like
        # eps * e^(t + rx - ry); with basepoints at radius <= 4 that caps
        # usable geodesic lengths near 12 (measured worst ~8e-10)
        for _ in range(1_000):
            x = random_point(rng, 3, 4.0)
            t = rng.uniform(0.0, 12.0)
            u = project_tangent(x, rng.standard_normal(4))
            if tangent_norm(u) == 0.0:
                continue
            y = exp_along(x, t / tangent_norm(u) * u)
            v, d = log_map(x, y)
            assert abs(d - distance(x, y)) <= 1e-9
            assert distance(exp_map(x, v, d), y) <= 1e-9

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
            u = project_tangent(x, rng.standard_normal(4))
            if tangent_norm(u) == 0.0:
                continue
            y = exp_along(x, t / tangent_norm(u) * u)
            worst = max(worst, distance(exp_map(x, *log_map(x, y)), y))
        assert worst <= 1e-9

    def test_log_exp_round_trip(self, rng):
        for _ in range(500):
            x = random_point(rng, 2, 4.0)
            t = rng.uniform(0.0, 10.0)
            u = random_unit(rng, 3)
            v = project_tangent(x, u)
            if tangent_norm(v) == 0.0:
                continue
            v = t / tangent_norm(v) * v
            w, _ = log_map(x, exp_along(x, v))
            scale = max(1.0, t) * math.cosh(x.r)
            assert np.linalg.norm(w - v) <= 1e-9 * scale

    def test_exp_distance_matches_norm(self, rng):
        for _ in range(200):
            x = random_point(rng, 2, 3.0)
            t = rng.uniform(0.0, 20.0)
            u = random_unit(rng, 3)
            v = project_tangent(x, u)
            if tangent_norm(v) == 0.0:
                continue
            v = t / tangent_norm(v) * v
            assert distance(x, exp_along(x, v)) == pytest.approx(t, abs=1e-9)

    def test_exp_range_guard(self):
        # e_2 transported to radius 340; 50 along it would end past EXP_RADIUS_MAX
        p = HPoint.from_polar(340.0, [1.0, 0.0])
        with pytest.raises(NumericRangeError):
            exp_map(p, 50.0 * transport_frame(p)[1], 50.0)


def scalar_exp(base, v, t):
    """One exp in scalar arithmetic: libm cosh/sinh/asinh and the 1-D norm."""
    if t == 0.0:
        return base.r, base.direction, base.coords
    c = _comb2(math.cosh(t), base.coords, math.sinh(t), v / t)
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
            p = exp_map(base, vecs[i], float(t[i]))
            for got in (rows[i], one[0], p):
                assert got.r == r
                assert np.array_equal(got.direction, d)
                assert np.array_equal(got.coords, c)
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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.5])
    def test_one_shared_length_equals_full_and_one_row_calls(self, rng, m, t):
        bases = PolarBatch.of(
            [HPoint.from_polar(r0, random_unit(rng, m)) if r0 > 0 else HPoint.origin(m) for r0 in EXP_RADII]
        )
        W = rng.standard_normal((len(bases), 8, m))
        W *= t / np.sqrt(np.einsum("bij,bij->bi", W, W))[..., None]
        vecs = np.einsum("bij,bjk->bik", W, transport_frame(bases))
        shared = exp_rows(bases, vecs, t)
        full = exp_rows(bases, vecs, np.full((len(bases), 8), t))
        assert len(shared) == 8 * len(bases)
        for i in range(len(bases)):
            base = bases[i]
            block = shared[8 * i : 8 * (i + 1)]
            one_base = exp_rows(base, vecs[i], np.float64(t))
            for rows in (full[8 * i : 8 * (i + 1)], one_base):
                assert np.array_equal(block.r, rows.r)
                assert np.array_equal(block.dirs, rows.dirs)
                assert np.array_equal(block.coords, rows.coords)
            for j in range(8):
                one = exp_rows(base, vecs[i, j : j + 1], [t])[0]
                r, d, c = scalar_exp(base, vecs[i, j], t)
                for got in (block[j], one):
                    assert got.r == r
                    assert np.array_equal(got.direction, d)
                    assert np.array_equal(got.coords, c)
                if t == 0.0:
                    assert block[j].r == base.r and np.array_equal(block[j].direction, base.direction)

    def test_one_shared_length_range_guard(self):
        o = HPoint.origin(2)
        with pytest.raises(NumericRangeError):
            exp_rows(o, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 400.0)
        far = PolarBatch.of([o, HPoint.from_polar(349.5, [0.6, 0.8])])
        with pytest.raises(NumericRangeError):
            exp_rows(far, np.zeros((2, 3, 3)), 1.0)
        assert len(exp_rows(far, np.zeros((2, 3, 3)), 0.0)) == 6


#: Direction components with signed zeros, subnormals and the normal extremes.
SPECIAL_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-315, 2.2250738585072014e-308, 1e-300, -1.0]


@st.composite
def exp_at_o_cases(draw):
    """(bases, vecs, t): B bases at o (B = 0 for one HPoint), l tangent rows
    at each with t their lengths (0-d shared or one per row, some of them 0),
    directions with signed zeros and subnormal components, t up to
    EXP_RADIUS_MAX."""
    m = draw(st.integers(2, 13))
    B = draw(st.integers(0, 3))
    l = draw(st.integers(1, 6))
    rows = max(B, 1) * l
    component = st.one_of(
        st.sampled_from(SPECIAL_COMPONENTS),
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
    )
    d = np.array(draw(st.lists(component, min_size=rows * m, max_size=rows * m))).reshape(rows, m)
    d[~d.any(axis=1), 0] = 1.0  # a zero row has no direction
    d /= np.abs(d).max(axis=1, keepdims=True)
    u = d / np.sqrt(np.vecdot(d, d))[:, None]
    length = st.one_of(st.just(0.0), st.floats(1e-300, EXP_RADIUS_MAX), st.sampled_from([1e-8, 1.0, EXP_RADIUS_MAX]))
    if draw(st.booleans()):
        t = np.float64(draw(length))
        lengths = np.full(rows, t)
    else:
        lengths = np.array(draw(st.lists(length, min_size=rows, max_size=rows)))
        t = lengths if B == 0 else lengths.reshape(B, l)
    vecs = np.pad(u * lengths[:, None], ((0, 0), (1, 0)))
    o = HPoint.origin(m)
    if B == 0:
        return o, vecs, t
    return PolarBatch.of([o] * B), vecs.reshape(B, l, m + 1), t


def same_bits(got, expected):
    return all(a.tobytes() == b.tobytes() for a, b in zip((got.r, got.dirs, got.coords), expected))


class TestExpAtOrigin:
    """exp from o skips the compensation; its rows keep the compensated bits."""

    @settings(max_examples=400, deadline=None)
    @given(case=exp_at_o_cases())
    def test_equal_to_the_compensated_rows(self, case):
        bases, vecs, t = case
        assert same_bits(exp_rows(bases, vecs, t), oracle.compensated_exp_rows(bases, vecs, t))

    def spy(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _comb2(*args)

        monkeypatch.setattr(hypack.geometry, "_comb2", counting)
        return calls

    @pytest.mark.parametrize("m", [2, 13])
    def test_only_bases_off_o_take_the_compensation(self, rng, m, monkeypatch):
        calls = self.spy(monkeypatch)
        o = HPoint.origin(m)
        W = rng.standard_normal((5, m))
        vecs, t = np.pad(W, ((0, 0), (1, 0))), np.sqrt(np.vecdot(W, W))
        exp_rows(o, vecs, t)
        exp_rows(PolarBatch.of([o, o]), np.stack([vecs, vecs]), t)
        assert calls == []
        # a base off o, a base at o among others, and o with a -0.0 coordinate
        p = HPoint.from_polar(0.5, random_unit(rng, m))
        signed = HPoint.from_polar(0.0, -np.eye(1, m)[0])
        assert np.signbit(signed.coords[1])
        for bases in (p, PolarBatch.of([o, p]), signed):
            rows = vecs if isinstance(bases, HPoint) else np.stack([vecs, vecs])
            got = exp_rows(bases, rows, t)
            assert calls.pop() and calls == []
            assert same_bits(got, oracle.compensated_exp_rows(bases, rows, t))

    def test_products_below_the_exact_range_take_the_compensation(self, monkeypatch):
        # sinh(t) times the second direction component is about 1e-305, below
        # 2^-969, where the Dekker error need not be exact
        calls = self.spy(monkeypatch)
        o = HPoint.origin(2)
        vecs = np.array([[0.0, 1e-5, 1e-300 * 1e-5]])
        t = np.array([np.sqrt(np.vecdot(vecs[:, 1:], vecs[:, 1:]))[0]])
        got = exp_rows(o, vecs, t)
        assert calls == [1]
        assert same_bits(got, oracle.compensated_exp_rows(o, vecs, t))


class TestPolarBatch:
    def test_rows_and_sub_batches(self, rng):
        pts = [random_point(rng, 3, 20.0) for _ in range(5)]
        batch = PolarBatch.of(pts)
        assert len(batch) == 5 and batch.coords.shape == (5, 4)
        for p, q in zip(pts, batch):
            assert q.r == p.r and type(q.r) is float
            assert np.array_equal(q.direction, p.direction)
            assert np.array_equal(q.coords, p.coords)
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
            transport_frame(batch[0])


class TestHPoint:
    def test_self_product_small_radius(self, rng):
        for _ in range(200):
            p = random_point(rng, 3, 4.0)
            assert abs(minkowski_inner(p.coords, p.coords) + 1.0) <= 1e-12

    def test_coords_polar_agreement(self, rng):
        for _ in range(200):
            p = random_point(rng, 2, 30.0)
            rebuilt = np.concatenate(([math.cosh(p.r)], math.sinh(p.r) * p.direction))
            np.testing.assert_allclose(p.coords, rebuilt, rtol=1e-9, atol=1e-9)

    def test_no_coords_past_exp_radius_max(self):
        p = HPoint.from_polar(400.0, [1.0, 0.0])
        assert p.coords is None and p.r == 400.0
        with pytest.raises(NumericRangeError):
            transport_frame(p)
        with pytest.raises(NumericRangeError):
            exp_rows(p, np.zeros((1, 3)), [0.0])

    @pytest.mark.parametrize("r", [0.0, 29.0, 31.0, 349.0])
    def test_point_is_a_batch_row(self, r):
        # an HPoint holds what a PolarBatch row holds, bit for bit, on
        # either side of radius 30
        p = HPoint.from_polar(r, [0.6, -0.3, 0.74])
        batch = PolarBatch.of([p])
        q = batch[0]
        assert q.r == p.r
        for a, b in ((q.direction, p.direction), (q.coords, p.coords)):
            assert a.tobytes() == b.tobytes()
        if r > 30.0:
            assert transport_frame(p).tobytes() == transport_frame(batch)[0].tobytes()


class TestParallelTransport:
    def test_identity_at_base(self, rng):
        x = random_point(rng, 2, 3.0)
        v = project_tangent(x, random_unit(rng, 3))
        np.testing.assert_allclose(parallel_transport(x, v, x), v, atol=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(300):
            x = random_point(rng, 3, 5.0)
            y = random_point(rng, 3, 5.0)
            v = project_tangent(x, rng.standard_normal(4))
            w = parallel_transport(x, v, y)
            assert abs(tangent_norm(w) - tangent_norm(v)) <= 1e-10 * max(1.0, tangent_norm(v))

    def test_orthonormal_frame_stays_orthonormal(self, rng):
        x = HPoint.origin(3)
        y = random_point(rng, 3, 8.0)
        frame = [parallel_transport(x, e, y) for e in np.eye(4)[1:]]
        gram = np.array([[float(minkowski_inner(a, b)) for b in frame] for a in frame])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)

    def test_transport_frame_matches_pointwise(self, rng):
        p = random_point(rng, 3, 6.0)
        F = transport_frame(p)
        for i, e in enumerate(np.eye(4)[1:]):
            np.testing.assert_allclose(F[i], parallel_transport(HPoint.origin(3), e, p), atol=1e-9)


def at_o(theta, t):
    """exp at the origin of H^2 of length t at plane angle theta."""
    return exp_along(HPoint.origin(2), t * np.array([0.0, math.cos(theta), math.sin(theta)]))


class TestTriangles:
    def test_equilateral_symmetric(self):
        pts = [at_o(t, 2.0) for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
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
        angs = triangle_angles(o, at_o(0.0, 10.0), at_o(1e-3, 10.0))
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
            u1 = project_tangent(o, [0.0, math.cos(t1), math.sin(t1)])
            u2 = project_tangent(o, [0.0, math.cos(t2), math.sin(t2)])
            p1 = exp_along(o, b / tangent_norm(u1) * u1)
            p2 = exp_along(o, c / tangent_norm(u2) * u2)
            sides = (distance(p1, p2), distance(o, p2), distance(o, p1))
            if min(sides) < 0.1:
                continue
            angs = triangle_angles(o, p1, p2)
            assert law_of_sines_residual(sides, angs) <= 1e-8

    def test_residual_sensitive_to_perturbation(self):
        o = HPoint.origin(2)
        a = exp_along(o, np.array([0.0, 1.5, 0.0]))
        b = exp_along(o, np.array([0.0, 0.0, 1.5]))
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
        pi_ = at_o(0.0, rho)
        pj = at_o(theta, rho)
        v, d = log_map(pi_, pj)
        q = exp_map(pi_, 0.5 * v, 0.5 * d)
        lhs = math.sinh(distance(q, pi_))
        rhs = math.sinh(rho) * math.sin(theta / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        # the midpoint subtends a right angle
        angs = triangle_angles(q, o, pi_)
        assert angs[0] == pytest.approx(math.pi / 2.0, abs=1e-9)


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
            pa = exp_map(p, a @ frame, float(np.linalg.norm(a)))
            pb = exp_map(p, b @ frame, float(np.linalg.norm(b)))
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


class TestLibmHelpers:
    # the row kernels call libm once per element, or once per double of a
    # short run of consecutive doubles that a long array lies in; numpy's own
    # ufuncs differ from libm in the last bit on a few percent of elements
    HELPERS = [(_cosh, math.cosh), (_sinh, math.sinh), (_tanh, math.tanh), (_asinh, math.asinh)]

    @staticmethod
    def assert_bitwise(x):
        """Every helper equals its math function elementwise, bit for bit
        (the sign of zero and NaN payloads included)."""
        x = np.asarray(x, dtype=float)
        for helper, fn in TestLibmHelpers.HELPERS:
            got = helper(x)
            assert got.shape == x.shape and got.dtype == np.float64
            want = np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def calls(x):
        """How many times the libm function runs for `x`."""
        seen = []
        hypack.geometry._libm(lambda v: seen.append(v) or math.asinh(v))(x)
        return len(seen)

    @staticmethod
    def ulp_run(base, ulps, size, rng):
        """`size` doubles from `base` up to `ulps` ulps beyond it, both ends
        included, in random order (NaN patterns beyond inf)."""
        start = np.float64(base).view(np.int64)
        bits = start + rng.integers(0, ulps + 1, size)
        bits[:2] = start, start + ulps
        return rng.permutation(bits).view(float)

    @pytest.mark.parametrize("shape", [(), (257,), (6, 5, 1), (0,), (3, 0, 1)])
    def test_equal_math_elementwise(self, rng, shape):
        self.assert_bitwise(rng.uniform(-30.0, 30.0, shape))

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.5, -3.0, 20.0, 710.0, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [65, 1000])
    def test_constant_arrays(self, value, size):
        x = np.full(size, value)
        self.assert_bitwise(x)
        self.assert_bitwise(x.reshape(5, -1))
        assert self.calls(x) == 1

    def test_short_arrays_take_one_call_per_element(self):
        assert self.calls(np.full(64, 0.5)) == 64
        assert self.calls(np.full((8, 8), 0.5)) == 64

    @pytest.mark.parametrize("ulps", [1, 2, 17, 63, 64, 65, 1000])
    @pytest.mark.parametrize("base", [0.0, -0.0, 5e-324, 1e-300, 0.7, -2.5, 3.0, -700.0, math.inf])
    def test_runs_of_ulps(self, rng, base, ulps):
        # runs of at most 64 doubles (up to 63 ulps end to end) are evaluated
        # whole, once per double; longer ones element by element
        x = self.ulp_run(base, ulps, 300, rng)
        self.assert_bitwise(x)
        run = ulps < 64 and not np.isnan(x).any()
        assert self.calls(x) == (ulps + 1 if run else 300)

    def test_mixed_signs_and_nan(self):
        x = np.full(100, 0.0)
        x[::2] = -0.0  # the two zeros, 2^63 bit patterns apart
        self.assert_bitwise(x)
        assert self.calls(x) == 100
        x = np.full(100, 1e-310)
        x[::3] = -1e-310
        self.assert_bitwise(x)
        # +0.0 and the NaN of bit pattern -1 are one pattern apart; a run
        # through both signs passes a NaN pattern and is not taken
        x = np.full(100, 0.0)
        x[7] = np.array([-1], dtype=np.int64).view(float)[0]
        self.assert_bitwise(x)
        assert self.calls(x) == 100
        for special in (np.nan, math.inf, -math.inf):
            x = np.full(100, 1.5)
            x[50] = special
            self.assert_bitwise(x)
        x = np.full(100, np.nan)
        self.assert_bitwise(x)
        assert self.calls(x) == 100

    def test_all_distinct(self, rng):
        x = rng.uniform(-30.0, 30.0, 5000)
        self.assert_bitwise(x)
        assert self.calls(x) == 5000

    def test_overflow_propagates(self):
        for helper in (_cosh, _sinh):
            with pytest.raises(OverflowError):
                helper(np.array([1.0, 800.0]))
            with pytest.raises(OverflowError):
                helper(np.full(1000, 800.0))  # one call for the whole run
            with pytest.raises(OverflowError):
                helper(np.full(1000, 1.0) + np.arange(1000) % 2 * 799.0)


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
    v = project_tangent(x, [0.0, math.cos(phi), math.sin(phi)])
    if tangent_norm(v) == 0.0:
        return
    v = t / tangent_norm(v) * v
    y = exp_along(x, v)
    assert abs(distance(x, y) - t) <= 1e-9
    w, _ = log_map(x, y)
    assert np.linalg.norm(w - v) <= 1e-8 * max(1.0, t) * math.cosh(r)
