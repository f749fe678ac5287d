"""Serve-path kernel: the simulator's per-tick serve loop.

:mod:`repro.kernel.engine` holds the one serve loop. ``ScalarEngine`` is
the reference: clients drained round-robin, one op at a time.
``ColumnarEngine`` (the default) runs the same loop behind a tick-level
fast path for create storms, which resolves each client's directory once
per tick, walks fragment owners from per-directory cycles
(:mod:`repro.kernel.authtable`) and serves a whole tick in integer
arithmetic. Decision equivalence between
the two is the contract — see ``docs/PERFORMANCE.md``.
"""

from repro.kernel.authtable import AuthTable
from repro.kernel.engine import ColumnarEngine, ScalarEngine

__all__ = ["AuthTable", "ColumnarEngine", "ScalarEngine"]
