"""The Pattern Analyzer (paper §3.3): per-directory locality factors.

From the cutting-window counters maintained by
:class:`repro.cluster.stats.AccessStats` it derives, per directory:

- ``alpha`` — temporal-locality inclination: the recurrent-visit ratio in
  the recent windows,
- ``beta`` — spatial-locality inclination: unvisited stock (plus freshly
  created inodes, which were unvisited until the instant of creation)
  relative to recent visit volume, capped at 1,
- ``l_t`` — predicted temporally-driven load: visits in the last N windows,
- ``l_s`` — predicted spatially-driven load: first visits plus the sibling
  correlation bonus.

The per-directory migration index is ``alpha * l_t + beta * l_s`` (Eq. 4);
subtree-level aggregation lives in :mod:`repro.core.mindex`.

:func:`analyze` is the only implementation of these formulas. Given
``dirs`` it evaluates them on those directories only: every formula is
elementwise, so each entry has the bits the every-directory call gives
it. :func:`repro.core.mindex.mindex_per_dir` passes the dirs the cutting
window names, so an epoch's Eq. 4 costs what the window saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.stats import AccessStats

__all__ = ["PatternSnapshot", "analyze"]


@dataclass
class PatternSnapshot:
    """Vectorized per-directory locality view for one epoch."""

    alpha: np.ndarray
    beta: np.ndarray
    l_t: np.ndarray
    l_s: np.ndarray

    @property
    def mindex(self) -> np.ndarray:
        """Paper Eq. 4, per directory (own files only, not descendants)."""
        return self.alpha * self.l_t + self.beta * self.l_s


def analyze(stats: AccessStats, dirs: np.ndarray | None = None) -> PatternSnapshot:
    """Compute alpha/beta/l_t/l_s from window sums, for every directory or,
    entry ``i`` for ``dirs[i]``, for ``dirs`` only."""
    arrays = stats.pattern_arrays(dirs)
    visits = arrays["visits"]
    denom = np.maximum(visits, 1.0)

    alpha = arrays["recurrent"] / denom
    # Spatial inclination: how much unvisited (or newly created) territory
    # this directory exposes relative to its recent traffic. A directory
    # with unvisited stock but no traffic yet gets beta = 1 — its sibling
    # bonus l_s is then its entire predicted load.
    spatial_stock = arrays["unvisited"] + arrays["created"]
    beta = np.minimum(1.0, spatial_stock / denom)
    # Fully-scanned directories (no unvisited stock, no creates) must decay
    # to zero even if their visit window still remembers first visits.
    beta[spatial_stock <= 0.0] = 0.0

    # pattern_arrays hands out copies, so the snapshot owns its arrays
    return PatternSnapshot(alpha=alpha, beta=beta, l_t=visits, l_s=arrays["ls"])
