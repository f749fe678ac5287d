"""Per-directory migration index (paper Eq. 4) and helpers.

``mIndex = alpha * l_t + beta * l_s`` estimates each directory's *future*
load: temporal recurrence predicts re-visits; spatial inclination predicts
first visits into unvisited (or newly created) territory. Subtree-level
values are produced by aggregating the per-directory array through
:func:`repro.balancers.candidates.candidates_for`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.stats import AccessStats
from repro.core.pattern import analyze

__all__ = ["mindex_per_dir"]


def mindex_per_dir(stats: AccessStats) -> np.ndarray:
    """The migration index of every directory's own files.

    Eq. 4 runs over the dirs a cutting-window entry names; every other
    dir has ``l_t == l_s == 0``, so its index is exactly 0.0.
    """
    dirs = stats.window_dirs()
    out = np.zeros(stats.tree.n_dirs)
    out[dirs] = analyze(stats, dirs).mindex
    return out
