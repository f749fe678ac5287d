"""Statistics helpers used across the balancers and the experiment harness."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "coefficient_of_variation",
    "percentile",
    "ecdf",
    "RunningStats",
    "linear_regression_predict",
]


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Corrected-sample coefficient of variation (paper Eq. 1).

    ``CoV = sigma(l) / mean(l)`` where ``sigma`` uses the ``n - 1``
    (Bessel-corrected) sample standard deviation. Returns 0.0 when the mean
    is zero (an all-idle cluster is perfectly balanced) or when fewer than
    two samples are given.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n < 2:
        return 0.0
    top = float(arr.max())
    if top > 0.0:
        # Normalise by an exact power of two. The scale commutes with
        # every rounding in the mean, the deviations, their squares, the
        # sqrt and the division wherever neither side under- or
        # overflows, so the result has the unscaled bits for every
        # normal-range load vector, and squares of tiny loads stay normal.
        arr = np.ldexp(arr, -math.frexp(top)[1])
    mean = float(arr.mean())
    if mean <= 0.0:
        return 0.0
    sigma = float(arr.std(ddof=1))
    return sigma / mean


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


def ecdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return arr, arr
    frac = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    return arr, frac


class RunningStats:
    """Welford streaming mean/variance, used for per-epoch load summaries."""

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Bessel-corrected sample variance (0.0 with < 2 samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def linear_regression_predict(history: Sequence[float], steps_ahead: int = 1) -> float:
    """Least-squares linear extrapolation of a load history.

    Used by the Migration Initiator to predict an importer's future load
    (``fld`` in paper Algorithm 1). With fewer than two points the last
    observation (or 0.0) is returned. Predictions are clamped at zero:
    a negative load is meaningless.
    """
    arr = np.asarray(history, dtype=np.float64)
    n = arr.size
    if n == 0:
        return 0.0
    if n == 1:
        return max(0.0, float(arr[-1]))
    x = np.arange(n, dtype=np.float64)
    xm = x.mean()
    ym = arr.mean()
    denom = float(((x - xm) ** 2).sum())
    if denom == 0.0:
        return max(0.0, float(arr[-1]))
    slope = float(((x - xm) * (arr - ym)).sum()) / denom
    intercept = ym - slope * xm
    pred = intercept + slope * (n - 1 + steps_ahead)
    return max(0.0, pred)
