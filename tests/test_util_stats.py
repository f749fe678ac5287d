"""Statistics helpers: CoV, percentiles, running stats, regression."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.util.stats import (
    RunningStats,
    coefficient_of_variation,
    ecdf,
    linear_regression_predict,
    percentile,
)


class TestCoV:
    def test_uniform_loads_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        # mean 2, sample std sqrt(2)
        vals = [1.0, 3.0]
        assert coefficient_of_variation(vals) == pytest.approx(math.sqrt(2) / 2)

    def test_single_mds_is_zero(self):
        assert coefficient_of_variation([10.0]) == 0.0

    def test_empty_is_zero(self):
        assert coefficient_of_variation([]) == 0.0

    def test_all_zero_loads(self):
        assert coefficient_of_variation([0.0, 0.0, 0.0]) == 0.0

    def test_max_when_one_loaded(self):
        # One of n busy: CoV == sqrt(n) (the paper's normalization bound).
        for n in (2, 5, 16):
            loads = [1.0] + [0.0] * (n - 1)
            assert coefficient_of_variation(loads) == pytest.approx(math.sqrt(n))

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=20), st.floats(0.1, 100.0))
    # squared deviations of this load are subnormal unless normalised
    @example(loads=[0.0, 2.3141773382025882e-157], k=0.109375)
    def test_scale_invariant(self, loads, k):
        a = coefficient_of_variation(loads)
        b = coefficient_of_variation([x * k for x in loads])
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=16))
    def test_bounded_by_sqrt_n(self, loads):
        # relative tolerance: denormal inputs can push the float result a
        # few ulps past the mathematical sqrt(n) bound
        n = len(loads)
        assert coefficient_of_variation(loads) <= math.sqrt(n) * (1 + 1e-6)


class TestPercentileEcdf:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_ecdf_monotone(self):
        xs, fr = ecdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(fr) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_ecdf_empty(self):
        xs, fr = ecdf([])
        assert xs.size == 0 and fr.size == 0


class TestRunningStats:
    def test_matches_numpy(self):
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        rs = RunningStats()
        for x in data:
            rs.push(x)
        assert rs.mean == pytest.approx(np.mean(data))
        assert rs.variance == pytest.approx(np.var(data, ddof=1))
        assert rs.std == pytest.approx(np.std(data, ddof=1))

    def test_empty(self):
        rs = RunningStats()
        assert rs.count == 0 and rs.mean == 0.0 and rs.variance == 0.0

    def test_single_sample_variance_zero(self):
        rs = RunningStats()
        rs.push(42.0)
        assert rs.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_streaming_equals_batch(self, data):
        rs = RunningStats()
        for x in data:
            rs.push(x)
        assert rs.mean == pytest.approx(float(np.mean(data)), rel=1e-6, abs=1e-6)


class TestLinearRegression:
    def test_empty_history(self):
        assert linear_regression_predict([]) == 0.0

    def test_single_point_extrapolates_flat(self):
        assert linear_regression_predict([7.0]) == 7.0

    def test_linear_trend(self):
        assert linear_regression_predict([1.0, 2.0, 3.0]) == pytest.approx(4.0)

    def test_steps_ahead(self):
        assert linear_regression_predict([1.0, 2.0, 3.0], steps_ahead=3) == pytest.approx(6.0)

    def test_declining_clamped_at_zero(self):
        assert linear_regression_predict([10.0, 5.0, 0.0]) == 0.0

    def test_constant_history(self):
        assert linear_regression_predict([5.0, 5.0, 5.0]) == pytest.approx(5.0)

    @given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=20))
    def test_never_negative(self, hist):
        assert linear_regression_predict(hist) >= 0.0
