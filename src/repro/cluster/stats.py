"""Per-directory access statistics feeding the balancers.

Two statistic families live here, updated from the same access stream:

- **Heat** — CephFS-Vanilla's decayed popularity counter per directory.
  Accumulates on access, decays multiplicatively per epoch. The balancer
  that selects by heat selects the *past*; the paper's §2.2 shows why that
  invalidates migration for scan workloads.
- **Pattern stats** — Lunule's cutting-window counters per directory:
  visits, recurrent visits (same file re-touched within the recurrence
  window), first visits (file never touched before), plus the sibling
  spatial-correlation bonus. These produce ``alpha``, ``beta``, ``l_t``,
  ``l_s`` of paper Eq. 4.

Both are epoch-granular: the balancer reads nothing about an access until
the epoch boundary. So recording an access only checks its indices and
appends it to a per-epoch log, and one numpy fold (``AccessStats._fold``)
applies the pending log: per-file stamps, unvisited counts and epoch
histograms through :meth:`NamespaceTree.touch_files`, then per-dir
counters and heat. Every reader folds first — :meth:`AccessStats.end_epoch`,
:meth:`~AccessStats.heat_array`, :meth:`~AccessStats.live_heat`,
:meth:`~AccessStats.unvisited_array` and :meth:`~AccessStats.pattern_arrays`.
Folding a prefix of an epoch and then the rest gives the same state as
one fold, and the same state the accesses applied one at a time would
give, so a reader at any point mid-epoch sees exactly that state.

Each closed cutting window is kept sparse (:class:`WindowEntry`): the
dirs the epoch touched with their counts, and the dirs its ``l_s`` term
names. The dense running sums ``win_*`` move only at those indices when
an entry is appended or evicted, so rolling the window costs what the
epoch saw, not the namespace size. Every other dir would add or subtract
0.0, which leaves its sum unchanged: the sums are non-negative and
integer-valued, hence exact. For the same reason a dir named by no entry
(:meth:`AccessStats.window_dirs`) has all window sums exactly 0.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from repro.namespace.tree import NEVER_ACCESSED, NamespaceTree
from repro.util.rng import substream

__all__ = ["AccessStats", "WindowEntry"]

#: at and above 2**53 a unit step no longer lands on an exact float
_TWO53 = float(1 << 53)


class WindowEntry(NamedTuple):
    """One closed cutting window, sparse.

    ``dirs`` holds the ascending ids of the dirs touched that epoch, and
    ``visits``, ``recurrent``, ``first`` and ``created`` their counts, in
    the same order. ``ls_dirs`` (ascending, every touched dir plus each
    sibling that drew a bonus) and ``ls`` hold the epoch's ``l_s`` term:
    a dir's first visits plus the sibling bonuses it received.
    """

    dirs: np.ndarray
    visits: np.ndarray
    recurrent: np.ndarray
    first: np.ndarray
    created: np.ndarray
    ls_dirs: np.ndarray
    ls: np.ndarray


class AccessStats:
    """Records accesses and maintains heat + Lunule pattern windows."""

    def __init__(
        self,
        tree: NamespaceTree,
        *,
        heat_decay: float = 0.8,
        recurrence_window: int = 3,
        pattern_windows: int = 3,
        sibling_probability: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 < heat_decay <= 1.0:
            raise ValueError("heat_decay must be in (0, 1]")
        if recurrence_window < 1 or pattern_windows < 1:
            raise ValueError("windows must be >= 1")
        if not 0.0 <= sibling_probability <= 1.0:
            raise ValueError("sibling_probability must be a probability")
        self.tree = tree
        self.heat_decay = heat_decay
        self.recurrence_window = recurrence_window
        self.pattern_windows = pattern_windows
        self.sibling_probability = sibling_probability
        self._rng = substream(seed, "access-stats")

        n = tree.n_dirs
        self.heat: list[float] = [0.0] * n
        # Current-epoch counters (reset every epoch).
        self._visits: list[int] = [0] * n
        self._recurrent: list[int] = [0] * n
        self._first: list[int] = [0] * n
        self._created: list[int] = [0] * n
        # Rolling window of the last `pattern_windows` epochs, plus running
        # sums over every dir.
        self._win: deque[WindowEntry] = deque()
        self.win_visits = np.zeros(n)
        self.win_recurrent = np.zeros(n)
        self.win_first = np.zeros(n)
        self.win_ls = np.zeros(n)
        self.win_created = np.zeros(n)
        self._dir_last_access: list[int] = [NEVER_ACCESSED] * n
        # Sparse bookkeeping: dirs with any counter bump this epoch, and
        # dirs whose heat is nonzero (monotone — decay never reaches 0.0).
        # The epoch roll and heat decay visit only these sets, so their
        # cost scales with the touched population, not the namespace.
        self._touched_epoch: set[int] = set()
        self._heat_live: set[int] = set()
        # This epoch's accesses not yet folded: the dir and file of each
        # file access, the log positions of created ones, and the dirs of
        # dir accesses.
        self._file_dirs: list[int] = []
        self._file_idxs: list[int] = []
        self._created_at: list[int] = []
        self._dir_log: list[int] = []
        self.epoch = 0
        # Cluster-wide op-mix sums of the epoch just closed (filled by
        # ``end_epoch``); feeds the workload characterization stream.
        self.last_epoch_mix: dict[str, int] = {
            "visits": 0, "recurrent": 0, "first": 0, "created": 0}

    # ------------------------------------------------------------- recording
    def _grow(self) -> None:
        n = self.tree.n_dirs
        grow = n - len(self.heat)
        if grow <= 0:
            return
        self.heat.extend([0.0] * grow)
        self._visits.extend([0] * grow)
        self._recurrent.extend([0] * grow)
        self._first.extend([0] * grow)
        self._created.extend([0] * grow)
        self._dir_last_access.extend([NEVER_ACCESSED] * grow)
        for name in ("win_visits", "win_recurrent", "win_first", "win_ls", "win_created"):
            arr = getattr(self, name)
            setattr(self, name, np.concatenate([arr, np.zeros(grow)]))

    def record_file_access(self, dir_id: int, file_idx: int, *, created: bool = False) -> None:
        """A metadata op touched file ``file_idx`` of ``dir_id``.

        ``created`` marks a freshly created inode: it counts as a first
        visit (the inode was unvisited until this instant) and feeds the
        created-in-window tally so that create streams keep a high spatial
        inclination (beta) even though they leave no unvisited stock behind.

        The access is logged for the next fold. An unknown directory or a
        file outside ``0 <= file_idx < n_files[dir_id]`` raises
        ``IndexError`` here, at the op.
        """
        if dir_id < 0 or not 0 <= file_idx < self.tree.n_files[dir_id]:
            raise IndexError(f"file {file_idx} out of range in dir {dir_id}")
        if created:
            self._created_at.append(len(self._file_dirs))
        self._file_dirs.append(dir_id)
        self._file_idxs.append(file_idx)

    def record_dir_access(self, dir_id: int) -> None:
        """A metadata op touched the directory itself (readdir, mkdir...).

        Logged for the next fold; an unknown directory raises ``IndexError``.
        """
        if not 0 <= dir_id < self.tree.n_dirs:
            raise IndexError(f"unknown directory id {dir_id}")
        self._dir_log.append(dir_id)

    # -------------------------------------------------------------- the fold
    # Folded and direct updates commute: integer tallies are commutative,
    # a file already stamped with this epoch re-touches as recurrent with
    # no histogram move, and heat accumulates as repeated ``+= 1.0``.
    # A plain ``+= n`` can round differently than n unit steps, and heat
    # feeds golden-traced decisions, so :meth:`AccessStats._bump_heat`
    # adds n in runs that end at the step crossing the heat's next power
    # of two, the only step of a run that can round.

    def _fold(self) -> None:
        """Apply the logged accesses of this epoch; every reader calls it."""
        self._grow()
        if self._file_dirs:
            self._fold_files()
        if self._dir_log:
            self._fold_dirs()

    def _fold_files(self) -> None:
        n = len(self._file_dirs)
        dirs = np.fromiter(self._file_dirs, dtype=np.int64, count=n)
        files = np.fromiter(self._file_idxs, dtype=np.int64, count=n)
        created = np.zeros(n, dtype=bool)
        created[self._created_at] = True
        self._file_dirs.clear()
        self._file_idxs.clear()
        self._created_at.clear()
        # Grouped by (dir, file), each file's accesses kept in order: the
        # tree classifies them as it would in log order, and each dir's
        # accesses end up contiguous.
        order = np.argsort(dirs << 32 | files, kind="stable")
        dirs = dirs[order]
        epoch = self.epoch
        prev = self.tree.touch_files(dirs, files[order], epoch)
        # "Visited" is a sliding notion: each inode carries a boolean queue
        # of the last n epochs (paper §4.1), so an inode untouched for
        # longer than the recurrence window counts as unvisited again.
        first = (prev == NEVER_ACCESSED) | (prev < epoch - self.recurrence_window)
        new_dir = np.empty(n, dtype=bool)
        new_dir[0] = True
        np.not_equal(dirs[1:], dirs[:-1], out=new_dir[1:])
        starts = np.flatnonzero(new_dir)
        touched = dirs[starts].tolist()
        n_ops = (np.append(starts[1:], n) - starts).tolist()
        n_first = np.add.reduceat(first, starts).tolist()
        n_created = np.add.reduceat(first & created[order], starts).tolist()
        heat = self.heat
        hot = np.array([heat[d] for d in touched])
        # unbuffered: one ``+= 1.0`` per access, in order
        np.add.at(hot, np.cumsum(new_dir) - 1, 1.0)
        visits, recurrent = self._visits, self._recurrent
        firsts, creates = self._first, self._created
        for d, h, c, f, cr in zip(touched, hot.tolist(), n_ops, n_first, n_created):
            heat[d] = h
            visits[d] += c
            firsts[d] += f
            recurrent[d] += c - f
            creates[d] += cr
        self._touched_epoch.update(touched)

    def _fold_dirs(self) -> None:
        epoch = self.epoch
        window = self.recurrence_window
        last = self._dir_last_access
        for d, c in Counter(self._dir_log).items():
            # only a dir's first access can miss the window; the rest
            # follow it within the same epoch
            prev = last[d]
            recent = prev != NEVER_ACCESSED and epoch - prev <= window
            self._recurrent[d] += c if recent else c - 1
            self._visits[d] += c
            self._bump_heat(d, c)
            last[d] = epoch
            self._touched_epoch.add(d)
        self._dir_log.clear()

    # ------------------------------------------------------------ batched path
    # The turbo tick records a client's whole create run of a tick at
    # once, applied directly: one call per client per tick.

    def _bump_heat(self, dir_id: int, count: int) -> None:
        """Add ``count`` unit steps to a dir's heat in O(log count).

        The result has the bits of ``count`` successive ``h += 1.0``. For
        ``2**(e-1) <= h < 2**e`` with ``1 <= h < 2**53``, 1.0 is a
        multiple of ulp(h), so every step that stays below ``2**e`` is
        exact, and ``2**e - h`` is exact too (Sterbenz). Only the step
        that crosses ``2**e`` can round, so the run of steps up to and
        including it is one addition with one rounding; the next run is
        twice as long. Heat below 1.0 takes single steps until it reaches
        1.0 (one step for heat in ``[0, 1)``), and once a step leaves the
        heat unchanged (``h >= 2**53``) so does every later one.
        """
        h = self.heat[dir_id]
        n = count
        while n > 0:
            if 1.0 <= h < _TWO53:
                run = math.ceil(math.ldexp(1.0, math.frexp(h)[1]) - h)
                if run > n:
                    run = n
                h += run
                n -= run
                continue
            stepped = h + 1.0
            if stepped == h:
                break
            h = stepped
            n -= 1
        self.heat[dir_id] = h

    def record_create_batch(self, dir_id: int, first_idx: int, count: int) -> None:
        """``count`` files created (and first-touched) in ``dir_id``.

        The caller has already grown the tree via ``add_files``; indices
        ``first_idx .. first_idx+count-1`` are fresh, so every access is a
        first visit and a created-in-window tally. An unknown directory or
        a range outside ``0 .. n_files[dir_id]`` raises ``IndexError``
        before anything is recorded.
        """
        # the tree checks the dir and the range before it writes a stamp
        self.tree.touch_file_range(dir_id, first_idx, count, self.epoch)
        if count <= 0:
            return
        if dir_id >= len(self.heat):
            self._grow()
        self._touched_epoch.add(dir_id)
        self._bump_heat(dir_id, count)
        self._visits[dir_id] += count
        self._first[dir_id] += count
        self._created[dir_id] += count

    # ------------------------------------------------------------- epoch roll
    def end_epoch(self) -> None:
        """Close the current cutting window and roll the pattern stats.

        The window is appended as a sparse :class:`WindowEntry`, and the
        running sums move only at the indices it names, as they do when
        the oldest entry is evicted.
        """
        self._fold()
        # Only touched dirs carry nonzero counters.
        touched = sorted(self._touched_epoch)
        visits = [self._visits[d] for d in touched]
        recurrent = [self._recurrent[d] for d in touched]
        first = [self._first[d] for d in touched]
        created = [self._created[d] for d in touched]
        self.last_epoch_mix = {
            "visits": sum(visits),
            "recurrent": sum(recurrent),
            "first": sum(first),
            "created": sum(created),
        }

        # Spatial correlation: a directory whose files are being visited for
        # the first time predicts first visits on a sibling too (paper §3.3:
        # "select one of its sibling subtrees with a certain probability and
        # increment its l_s").
        # Seeded with every touched dir, so ``ls_dirs`` names each of them
        # (``window_dirs`` relies on it).
        ls = dict(zip(touched, map(float, first)))
        active = ([(d, f) for d, f in zip(touched, first) if f]
                  if self.sibling_probability > 0.0 else [])
        if active:
            stock = self.unvisited_array()
            has_stock = stock > 0
            # per parent: its children and which of them hold stock, built
            # at most once per epoch
            kids_of: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            parent_of = self.tree.parent
            children = self.tree.children
            rng = self._rng
            for d, f in active:
                if rng.random() >= self.sibling_probability:
                    continue
                parent = parent_of[d]
                if parent < 0:
                    continue
                kids = kids_of.get(parent)
                if kids is None:
                    arr = np.array(children[parent], dtype=np.intp)
                    kids = kids_of[parent] = (arr, has_stock[arr])
                siblings, stocked = kids
                if siblings.size < 2:
                    continue
                # Spatial locality says the scan will reach a sibling that
                # still holds unvisited stock — prefer those.
                others = siblings != d
                pool = siblings[others & stocked]
                if not pool.size:
                    pool = siblings[others]
                pick = int(pool[rng.integers(pool.size)])
                # A sibling cannot receive more first visits than it has
                # unvisited stock: cap the bonus so small directories are
                # not predicted to carry a huge folder's load.
                ls[pick] = ls.get(pick, 0.0) + min(float(f), float(stock[pick]))

        ls_dirs = sorted(ls)
        entry = WindowEntry(
            np.array(touched, dtype=np.intp),
            np.array(visits, dtype=np.float64),
            np.array(recurrent, dtype=np.float64),
            np.array(first, dtype=np.float64),
            np.array(created, dtype=np.float64),
            np.array(ls_dirs, dtype=np.intp),
            np.array([ls[d] for d in ls_dirs], dtype=np.float64))
        self._win.append(entry)
        self.win_visits[entry.dirs] += entry.visits
        self.win_recurrent[entry.dirs] += entry.recurrent
        self.win_first[entry.dirs] += entry.first
        self.win_created[entry.dirs] += entry.created
        self.win_ls[entry.ls_dirs] += entry.ls
        if len(self._win) > self.pattern_windows:
            old = self._win.popleft()
            self.win_visits[old.dirs] -= old.visits
            self.win_recurrent[old.dirs] -= old.recurrent
            self.win_first[old.dirs] -= old.first
            self.win_created[old.dirs] -= old.created
            self.win_ls[old.ls_dirs] -= old.ls

        for d in touched:
            self._visits[d] = 0
            self._recurrent[d] = 0
            self._first[d] = 0
            self._created[d] = 0
        # Decay only live heat entries; exact zeros stay exactly zero
        # either way, and a decayed positive value never reaches 0.0, so
        # the live set is monotone.
        self._heat_live.update(self._touched_epoch)
        self._touched_epoch.clear()
        heat = self.heat
        decay = self.heat_decay
        for d in self._heat_live:
            heat[d] = heat[d] * decay
        self.epoch += 1
        # no query reads an epoch below the next cutoff again
        self.tree.forget_access_before(self.epoch - self.recurrence_window)

    # -------------------------------------------------------------- snapshots
    def live_heat(self) -> tuple[list[float], int]:
        """Nonzero heat values (dir-id order) plus the total dir count.

        The sparse view the workload profiler wants: Gini / entropy /
        top-k over the heat distribution need the nonzero values and the
        population size, never a dense array. Iterates the live set in
        sorted order so downstream math is deterministic.
        """
        self._fold()
        heat = self.heat
        values = [heat[d] for d in sorted(self._heat_live | self._touched_epoch)
                  if d < len(heat) and heat[d] > 0.0]
        return values, self.tree.n_dirs

    def heat_array(self) -> np.ndarray:
        """Decayed heat per directory, every access so far included."""
        self._fold()
        heat = self.heat
        out = np.zeros(len(heat))
        for d in self._heat_live:
            out[d] = heat[d]
        for d in self._touched_epoch:
            out[d] = heat[d]
        return out

    def unvisited_array(self, dirs: np.ndarray | None = None) -> np.ndarray:
        """Files per directory NOT accessed within the recurrence window.

        Every directory's, or, entry ``i`` for ``dirs[i]``, those of
        ``dirs`` only. This is the sliding "unvisited stock" behind beta:
        a directory scanned long ago regains unvisited stock as its
        inodes' boolean queues drain, making it a spatial-locality
        candidate again.
        """
        self._fold()
        tree = self.tree
        cutoff = self.epoch - self.recurrence_window
        # Never-touched directories contribute their full file count; for
        # touched directories the tree's incremental epoch histograms give
        # the recently-accessed tally in O(window) per dir, instead of
        # rescanning every file's last-access stamp each epoch.
        out = tree.n_files_array(dirs)
        recent = dict(tree.recently_accessed(cutoff))
        # one vectorized subtraction; x - 0 leaves a count's bits alone
        if dirs is None:
            if recent:
                out[list(recent)] -= list(recent.values())
        else:
            out -= [recent.get(d, 0) for d in dirs.tolist()]
        return out

    def window_dirs(self) -> np.ndarray:
        """Ascending ids of the dirs any window entry names.

        Every other dir has all window sums exactly 0, so its migration
        index is 0.0.
        """
        if not self._win:
            return np.empty(0, dtype=np.intp)
        # ``ls_dirs`` holds every touched dir of its entry
        named = np.sort(np.concatenate([w.ls_dirs for w in self._win]))
        keep = np.ones(named.size, dtype=bool)
        np.not_equal(named[1:], named[:-1], out=keep[1:])
        return named[keep]

    def pattern_arrays(self, dirs: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Window sums and unvisited stock for mIndex computation (copies).

        Every directory's, or, entry ``i`` for ``dirs[i]``, those of
        ``dirs`` only.
        """
        self._fold()
        sums = {"visits": self.win_visits, "recurrent": self.win_recurrent,
                "first": self.win_first, "ls": self.win_ls,
                "created": self.win_created}
        out = {name: arr.copy() if dirs is None else arr[dirs]
               for name, arr in sums.items()}
        out["unvisited"] = self.unvisited_array(dirs)
        return out
