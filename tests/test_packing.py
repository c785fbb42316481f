import math
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from conftest import time_limit
import hypack.geometry
import hypack.packing
from hypack.geometry import HPoint, NumericRangeError, dist_given_q, distance, exp_rows
from hypack.packing import (
    CAP_MAX,
    count_lower_bound,
    direction_count,
    generate_centers,
    growth_table,
    growth_table_csv,
    lag_distance,
    min_lag_distance,
    packing_angle,
    verify_packing,
)
from oracle_utils import (
    brute_min_lag_distance,
    mp_count_lower_bound,
    mp_direction_count,
    mp_dist_given_q,
    mp_packing_angle,
    rel_err,
)


class TestPackingAngle:
    def test_boundary_near_pi_half(self):
        alpha = packing_angle(1.0, 2.0 + 1e-12)
        assert alpha == pytest.approx(math.pi / 2.0, abs=1e-5)

    def test_oracle_value_C1_R3(self):
        assert float(rel_err(packing_angle(1.0, 3.0), mp_packing_angle(1, 3))) < 1e-14

    def test_monotone_decreasing_in_R(self):
        assert packing_angle(1.0, 5.0) < packing_angle(1.0, 4.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            packing_angle(1.0, 2.0)
        with pytest.raises(ValueError):
            packing_angle(0.0, 1.0)

    def test_underflow_guard(self):
        with pytest.raises(NumericRangeError):
            packing_angle(1.0, 1e4)


class TestDirectionCount:
    def test_two_antipodal(self):
        assert direction_count(math.pi / 2.0) == 1

    def test_pi_over_four(self):
        assert direction_count(math.pi / 4.0) == 3

    def test_oracle_C1_R3(self):
        alpha = packing_angle(1.0, 3.0)
        assert direction_count(alpha) == 8
        assert direction_count(alpha) == mp_direction_count(1, 3)

    def test_boundary_consistency(self):
        for alpha in (0.1, 0.31, math.pi / 6.0, 1.2, math.pi / 2.0):
            k = direction_count(alpha)
            assert k * alpha <= math.pi - alpha + 1e-12
            assert (k + 1) * alpha > math.pi - alpha - 1e-12
            # Eq. form: k exceeds (pi - alpha)/alpha - 1
            assert k > (math.pi - alpha) / alpha - 1.0 - 1e-12

    def test_oracle_sweep(self):
        for R in range(3, 13):
            assert direction_count(packing_angle(1.0, R)) == mp_direction_count(1, R)

    def test_largest_k_in_floating_point(self):
        # (k+1)*alpha <= pi < (k+2)*alpha, evaluated in doubles, pins k down
        # uniquely; counts pass 2**53 from about R = 38 on
        for R in range(3, 46):
            alpha = packing_angle(1.0, R)
            k = direction_count(alpha)
            assert (k + 1) * alpha <= math.pi < (k + 2) * alpha

    @pytest.mark.parametrize("R", [60.0, 100.0, 300.0])
    def test_huge_counts_return_quickly(self, R):
        alpha = packing_angle(1.0, R)
        t0 = time.perf_counter()
        with time_limit(5.0):
            k = direction_count(alpha)
        assert time.perf_counter() - t0 < 1.0
        assert (k + 1) * alpha <= math.pi < (k + 2) * alpha


class TestGenerateCenters:
    def test_canonical_C1_R3(self):
        fam = generate_centers(1.0, 3.0, 2)
        assert len(fam) == 9
        center = HPoint.origin(2)
        for c in fam.centers:
            assert distance(center, c) == pytest.approx(2.0, abs=1e-9)
        rep = verify_packing(fam)
        assert rep.ok and rep.min_pairwise >= 2.0 - 1e-9

    def test_near_boundary_two_centers(self):
        # alpha is just under pi/2, so the two directions are nearly
        # antipodal and the gap sits between 2C and 2(R - C)
        R = 2.0 + 1e-6
        fam = generate_centers(1.0, R, 2)
        assert len(fam) == 2
        d01 = float(lag_distance(fam.center_radius, fam.alpha, fam.indices[1] - fam.indices[0]))
        assert d01 == pytest.approx(2.0 * (R - 1.0), abs=1e-5)
        assert 2.0 - 1e-12 <= d01 <= 2.0 * (R - 1.0) + 1e-12

    def test_subsample_exact_cap(self):
        fam = generate_centers(0.5, 11.0, 2, cap=100)
        assert len(fam) == 100
        k = direction_count(fam.alpha)
        assert np.array_equal(fam.indices, np.unique(np.round(np.linspace(0.0, k, 100))))
        lags = np.diff(fam.indices)
        assert lags.min() >= 1.0
        # even spacing up to rounding
        assert lags.max() - lags.min() <= 1.0

    @pytest.mark.parametrize("cap", [1, CAP_MAX + 1, 2_000_000_000])
    def test_cap_outside_limits_refused(self, cap):
        # R = 22 has 1.76e9 centers, so an unchecked cap of 2e9 would allocate ~14 GB
        with time_limit(10.0), pytest.raises(ValueError, match="cap must lie in"):
            generate_centers(1.0, 22.0, 2, cap=cap)

    def test_angle_separation_claim(self):
        fam = generate_centers(1.0, 4.0, 2)
        alpha = fam.alpha
        k = len(fam) - 1
        angles = 2.0 * fam.indices * alpha
        min_gap = math.inf
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                gap = abs(angles[j] - angles[i])
                gap = min(gap, 2.0 * math.pi - gap)
                min_gap = min(min_gap, gap)
        assert min_gap >= 2.0 * alpha - 1e-12

    def test_isoceles_midpoint_identity(self):
        fam = generate_centers(1.0, 4.0, 2)
        rho = fam.center_radius
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                theta = 2.0 * abs(fam.indices[j] - fam.indices[i]) * fam.alpha
                theta = min(theta, 2.0 * math.pi - theta)
                d = float(lag_distance(rho, fam.alpha, fam.indices[j] - fam.indices[i]))
                assert math.sinh(0.5 * d) == pytest.approx(
                    math.sinh(rho) * math.sin(0.5 * theta), rel=1e-8
                )

    @pytest.mark.parametrize("m", [3, 5])
    def test_centers_lie_in_the_first_two_directions(self, m):
        fam = generate_centers(1.0, 4.0, m)
        assert np.all(fam.centers.dirs[:, 2:] == 0.0)
        assert np.array_equal(fam.centers.dirs[:, :2], generate_centers(1.0, 4.0, 2).centers.dirs)

    def test_enclosure_via_triangle_inequality(self):
        fam = generate_centers(0.7, 4.0, 2)
        rep = verify_packing(fam)
        assert rep.enclosure_ok
        assert rep.max_center_offset <= fam.R - fam.C + 1e-9

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_blocked_rows_equal_one_exp_call(self, block):
        # the rows are made in blocks; each has the bits of one exp_rows call
        # over the whole family
        with mock.patch.object(hypack.geometry, "_BLOCK_ELEMENTS", block):
            fam = generate_centers(1.0, 20.0, 13, cap=5_000)
        rho, theta = fam.center_radius, 2.0 * fam.indices * fam.alpha
        vecs = np.zeros((len(fam), 14))
        vecs[:, 1], vecs[:, 2] = rho * np.cos(theta), rho * np.sin(theta)
        whole = exp_rows(HPoint.origin(13), vecs, np.full(len(fam), rho))
        for got, want in ((fam.centers.r, whole.r), (fam.centers.dirs, whole.dirs), (fam.centers.coords, whole.coords)):
            assert np.array_equal(got, want)

    def test_memory_peak_is_about_the_rows(self):
        # one exp_rows call over 100,000 rows at m = 13 held about five times
        # the rows' bytes in temporaries
        tracemalloc.start()
        try:
            fam = generate_centers(1.0, 20.0, 13, cap=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = fam.centers
        assert len(fam) == 100_000
        assert peak <= 2 * (c.r.nbytes + c.dirs.nbytes + c.coords.nbytes) + 8e6

    def test_twenty_thousand_plane_centers_are_one_block(self):
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return exp_rows(*args)

        with mock.patch.object(hypack.packing, "exp_rows", counting):
            fam = generate_centers(1.0, 11.5, 2, cap=20_000)
        assert calls == [len(fam)] == [20_000]


class TestVerifyPacking:
    def test_duplicated_centers_fail(self):
        fam = generate_centers(1.0, 3.0, 2)
        dup = replace(fam, centers=fam.centers[[0, 0]], indices=fam.indices[[0, 0]])
        rep = verify_packing(dup)
        assert not rep.ok and rep.min_pairwise == 0.0

    def test_single_ball_vacuous(self):
        fam = generate_centers(1.0, 3.0, 2)
        assert verify_packing(replace(fam, centers=fam.centers[:1], indices=fam.indices[:1])).ok

    def test_fallback_matches_angle_path(self):
        # the index-lag certificate against a sweep over the stored directions
        fam = generate_centers(1.0, 5.0, 2)
        c = fam.centers
        swept = min(float(np.min(distance(c[i], c[i + 1 :]))) for i in range(len(fam) - 1))
        assert swept == pytest.approx(verify_packing(fam).min_pairwise, abs=1e-10)

    def test_lag_distance_matches_angle_kernel(self):
        # 0.5 * (2 * lag * alpha) rounds to lag * alpha, so both forms agree bitwise
        fam = generate_centers(1.0, 7.0, 2, cap=1_000)
        lags = fam.indices[1:] - fam.indices[0]
        rho, alpha = fam.center_radius, fam.alpha
        by_angle = dist_given_q(rho, rho, np.sin(0.5 * (2 * lags * alpha)) ** 2)
        assert np.array_equal(lag_distance(rho, alpha, lags), by_angle)
        assert np.array_equal(lag_distance(rho, alpha, -lags), lag_distance(rho, alpha, lags))

    def test_min_lag_distance_domain(self):
        assert min_lag_distance(2.0, 0.1, [3.0]) == math.inf
        assert min_lag_distance(2.0, 0.1, [4.0, 1.0, 4.0]) == 0.0
        # 9 * 0.33 is close to pi, so the span, not the smallest gap, is closest
        span_min = float(lag_distance(2.0, 0.33, 9.0))
        assert span_min < float(lag_distance(2.0, 0.33, 1.0))
        assert min_lag_distance(2.0, 0.33, [9.0, 0.0, 1.0]) == span_min
        assert brute_min_lag_distance(2.0, 0.33, [9.0, 0.0, 1.0]) == span_min
        with pytest.raises(ValueError):
            min_lag_distance(2.0, 1.0, [0.0, 4.0])

    def test_sweep_limit(self):
        # the two-lag certificate is O(n): 20,001 centers (2e8 pairs) in one pass
        fam = generate_centers(1.0, 11.5, 2, cap=20_001)
        with time_limit(10.0):
            rep = verify_packing(fam)
        assert rep.ok and len(fam) == 20_001 and rep.pairs_checked == 20_001 * 20_000 // 2

    def test_random_families_hold_2C(self, rng):
        for _ in range(5):
            C = rng.uniform(0.5, 3.0)
            R = 2.0 * C + rng.uniform(0.5, 10.0)
            fam = generate_centers(C, R, 2, cap=2_000)
            rep = verify_packing(fam)
            assert rep.ok
            assert rep.min_pairwise >= 2.0 * C - 1e-9

    @staticmethod
    def _oracle_families():
        """Seeded families: uncapped and subsampled, m = 2 and 3, plus edge cases
        (R = 24 is near the largest R that generate_centers accepts at C = 1)."""
        rng = np.random.default_rng(4242)
        specs = [(1.0, 2.0 + 1e-6, 2, 100), (1.0, 3.0, 3, 100), (1.0, 24.0, 2, 500), (1.0, 24.0, 3, 300)]
        for i in range(18):
            C = float(rng.uniform(0.5, 3.0))
            specs.append((C, 2.0 * C + float(rng.uniform(0.2, 6.0)), 2 + i % 2, (5_000, 700)[i // 2 % 2]))
        return [generate_centers(C, R, m, cap=cap) for C, R, m, cap in specs]

    def test_lag_extremes_match_brute_force(self):
        fams = self._oracle_families()
        subsampled = [len(f) < f.family_size_uncapped for f in fams]
        assert any(subsampled) and not all(subsampled)
        for fam in fams:
            oracle = brute_min_lag_distance(fam.center_radius, fam.alpha, fam.indices)
            rep = verify_packing(fam)
            assert rep.min_pairwise == oracle
            assert rep.pairs_checked == len(fam) * (len(fam) - 1) // 2


class TestLagResolution:
    """generate_centers refuses packing angles that the rounding of lag * alpha swamps."""

    @staticmethod
    def wrap_pair(C, R):
        """(k, lag_distance, exact distance) of the pair (0, k), at the double
        alpha times exact k in the mpmath oracle."""
        alpha = packing_angle(C, R)
        k = direction_count(alpha)
        rho = R - C
        exact = mp_dist_given_q(rho, rho, mp.sin(k * mp.mpf(alpha)) ** 2)
        return k, float(lag_distance(rho, alpha, k)), exact

    def test_R38_refused_where_doubles_pass_a_close_pair(self):
        k, doubles, exact = self.wrap_pair(1.0, 38.0)
        assert doubles >= 2.0 and exact < 2.0  # 3.83 in doubles, 1.92 exactly
        assert k != mp_direction_count(1, 38)
        with pytest.raises(NumericRangeError, match="too small for double precision"):
            generate_centers(1.0, 38.0, 2, cap=100)

    @pytest.mark.parametrize("C, R", [(1.0, 12.0), (1.0, 20.0), (1.0, 24.0), (8.0, 32.0), (1.0, 11.7)])
    def test_accepted_families_match_the_oracle(self, C, R):
        # R = 32 at C = 8 is the last rung of the default search ladder
        fam = generate_centers(C, R, 2, cap=100)
        k, doubles, exact = self.wrap_pair(C, R)
        assert k == mp_direction_count(C, R) == fam.indices[-1]
        assert exact >= 2.0 * C
        assert abs(doubles - exact) <= 2e-6

    @pytest.mark.parametrize("R", [26.0, 30.0])
    def test_refused_beyond_the_bound(self, R):
        with pytest.raises(NumericRangeError):
            generate_centers(1.0, R, 2, cap=100)


class TestCountLowerBound:
    def test_oracle_C1_R3(self):
        assert float(rel_err(count_lower_bound(1.0, 3.0), mp_count_lower_bound(1, 3))) < 1e-13

    def test_below_family_size(self):
        for R in range(3, 13):
            fam_size = direction_count(packing_angle(1.0, R)) + 1
            assert count_lower_bound(1.0, R) <= fam_size

    def test_ratio_approaches_e(self):
        ratio = count_lower_bound(1.0, 21.0) / count_lower_bound(1.0, 20.0)
        assert ratio == pytest.approx(math.e, abs=1e-3)

    def test_positive(self):
        for R in (2.1, 3.0, 50.0, 500.0):
            assert count_lower_bound(1.0, R) > 0.0


class TestGrowthTable:
    def test_ten_rows_increasing(self):
        rows = growth_table(1.0, range(3, 13))
        assert len(rows) == 10
        sizes = [row.family_size for row in rows]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert rows[0].ratio is None
        assert all(row.ratio is not None for row in rows[1:])

    def test_empty(self):
        assert growth_table(1.0, []) == []
        assert "".join(growth_table_csv([])) == "R,alpha,family_size,lower_bound,ratio\n"

    def test_single_row_no_ratio(self):
        rows = growth_table(1.0, [4.0])
        assert len(rows) == 1 and rows[0].ratio is None
        csv = "".join(growth_table_csv(rows))
        assert csv.splitlines()[1].endswith(",")

    def test_ratios_near_e_at_large_R(self):
        rows = growth_table(1.0, range(15, 22))
        for row in rows[1:]:
            assert abs(row.ratio / math.e - 1.0) < 0.05

    def test_csv_header(self):
        csv = "".join(growth_table_csv(growth_table(1.0, [3.0, 4.0])))
        assert csv.splitlines()[0] == "R,alpha,family_size,lower_bound,ratio"


class TestSpecValidation:
    def test_R_must_exceed_2C(self):
        with pytest.raises(ValueError):
            generate_centers(1.0, 2.0, 2)
