"""Subtree authority: which MDS serves which part of the namespace.

The namespace is partitioned by *subtree roots*: a directory listed in the
authority map owns itself and every descendant down to (excluding) any
nested subtree root. Large directories may additionally be fragmented, in
which case individual fragments can be delegated to other MDSs.

:meth:`AuthorityMap.resolve_dir` is the one resolver: every layer that
asks which subtree root, and which rank, govern a directory calls it. It
is the hot path of the whole simulator (every client op calls it), so it
memoizes ``dir -> (auth, root)``. Resolution reads only the subtree
roots, so only the mutators that change the root set or a root's rank
clear the memo; fragment changes leave it warm. :attr:`AuthorityMap.version`
still moves on every change, for readers keyed on fragment state too.

A fragmented directory's owners are one tuple, ``owners[f]`` the rank of
fragment ``f``, read through :meth:`AuthorityMap.frag_state`. Changes
replace the tuple and never edit it, so every layer reads the live one
without a copy, snapshots share it, and a change shows as a new object.
"""

from __future__ import annotations

from repro.namespace.dirfrag import FragId, frag_of
from repro.namespace.tree import NamespaceTree

__all__ = ["AuthorityMap", "FragState"]

#: ``(bits, owners)`` of a fragmented directory: ``owners[f]`` is the rank
#: of fragment ``f``, and ``len(owners) == 2**bits``
FragState = tuple[int, tuple[int, ...]]


class AuthorityMap:
    """Maps subtree roots and dirfrags to authoritative MDS ranks."""

    def __init__(self, tree: NamespaceTree, initial_mds: int = 0) -> None:
        self.tree = tree
        self._subtree_auth: dict[int, int] = {0: initial_mds}
        #: fragmented dir -> its FragState; replaced on change, never edited
        self._frags: dict[int, FragState] = {}
        #: bumped by every mutator, fragment changes included
        self.version = 0
        #: dir -> (auth, root); cleared only when the roots change
        self._cache: dict[int, tuple[int, int]] = {}

    # ---------------------------------------------------------------- resolve
    def resolve_dir(self, dir_id: int) -> tuple[int, int]:
        """Return ``(auth_mds, subtree_root)`` for a directory.

        Walks up to the nearest subtree root, or to the nearest ancestor
        already resolved, and memoizes the answer along the way.
        """
        cache = self._cache
        hit = cache.get(dir_id)
        if hit is not None:
            return hit
        roots = self._subtree_auth
        parent = self.tree.parent
        path: list[int] = []
        d = dir_id
        while d not in roots:
            path.append(d)
            d = parent[d]
            if d < 0:
                raise RuntimeError("root directory has no authority")
            hit = cache.get(d)
            if hit is not None:
                break
        else:
            hit = cache[d] = (roots[d], d)
        for p in path:
            cache[p] = hit
        return hit

    def resolve(self, dir_id: int, file_idx: int = -1) -> int:
        """Authoritative MDS for a file (or the dir itself if ``idx < 0``)."""
        frag = self._frags.get(dir_id)
        if frag is not None and file_idx >= 0:
            bits, owners = frag
            return owners[frag_of(file_idx, bits)]
        return self.resolve_dir(dir_id)[0]

    # ------------------------------------------------------------ partitioning
    def subtree_roots(self) -> dict[int, int]:
        """Copy of the subtree-root -> MDS mapping."""
        return dict(self._subtree_auth)

    def snapshot_state(self) -> tuple[dict[int, int], dict[int, FragState]]:
        """Detached copies of ``(subtree_auth, frag_map)``.

        Insertion order is preserved, so iteration over a snapshot matches
        iteration over the live map — policies planning from a snapshot see
        candidates in the same order they would see them live. The owner
        tuples are shared: a later change replaces them in the live map.
        """
        return dict(self._subtree_auth), dict(self._frags)

    @classmethod
    def from_state(cls, tree: NamespaceTree, subtree_auth: dict[int, int],
                   frags: dict[int, FragState]) -> AuthorityMap:
        """Rebuild an authority map from a :meth:`snapshot_state` snapshot."""
        ns = cls(tree)
        ns._subtree_auth = dict(subtree_auth)
        ns._frags = dict(frags)
        return ns

    def is_subtree_root(self, dir_id: int) -> bool:
        return dir_id in self._subtree_auth

    def frag_state(self, dir_id: int) -> FragState | None:
        """``(bits, owners)`` if the directory is fragmented, else None.

        The live, immutable state, not a copy: the router reads it on every
        file request.
        """
        return self._frags.get(dir_id)

    def fragmented_dirs(self) -> frozenset[int]:
        """Ids of all currently fragmented directories (detached copy)."""
        return frozenset(self._frags)

    def set_subtree_auth(self, dir_id: int, mds: int) -> None:
        """Delegate the subtree rooted at ``dir_id`` to ``mds``.

        Marks ``dir_id`` as a subtree root if it was not one already.
        """
        self.tree._check_dir(dir_id)
        if mds < 0:
            raise ValueError("MDS rank must be non-negative")
        self._subtree_auth[dir_id] = mds
        self._cache.clear()
        self.version += 1

    def drop_subtree_root(self, dir_id: int) -> None:
        """Merge a subtree back into its parent's authority."""
        if dir_id == 0:
            raise ValueError("cannot drop the root subtree")
        self._subtree_auth.pop(dir_id, None)
        self._cache.clear()
        self.version += 1

    def merge_redundant_roots(self) -> int:
        """Drop subtree roots whose authority equals their parent's.

        CephFS merges adjacent subtrees so the subtree map stays small;
        after many migrations a root often ends up co-located with its
        surrounding subtree again. Returns the number of roots removed.
        Resolution is unchanged by construction.
        """
        removed = 0
        changed = True
        while changed:
            changed = False
            for d in sorted(self._subtree_auth):
                if d == 0:
                    continue
                parent_auth = self.resolve_dir(self.tree.parent[d])[0]
                if parent_auth == self._subtree_auth[d]:
                    del self._subtree_auth[d]
                    self._cache.clear()
                    removed += 1
                    changed = True
        if removed:
            self.version += 1
        return removed

    def merge_uniform_frags(self, exclude: set[int] | frozenset[int] = frozenset()) -> int:
        """Un-fragment directories whose frags all share the dir authority.

        Returns the number of directories merged back. Frag maps whose
        owners are uniform but differ from the dir authority stay split
        (the files genuinely live elsewhere). ``exclude`` protects
        directories with in-flight migration plans from having their split
        collapsed underneath the migrator.
        """
        merged = 0
        for d in sorted(self._frags):
            if d in exclude:
                continue
            owner_set = set(self._frags[d][1])
            if len(owner_set) == 1 and owner_set.pop() == self.resolve_dir(d)[0]:
                del self._frags[d]
                merged += 1
        if merged:
            self.version += 1
        return merged

    def split_dir(self, dir_id: int, bits: int) -> list[FragId]:
        """Fragment ``dir_id`` into ``2**bits`` frags, all owned by its auth.

        Re-splitting with more bits redistributes existing frag ownership by
        the containing coarser frag.
        """
        if bits <= 0:
            raise ValueError("split needs at least 1 bit")
        prev = self._frags.get(dir_id)
        if prev is None:
            owners = (self.resolve_dir(dir_id)[0],) * (1 << bits)
        else:
            pbits, powners = prev
            pmask = (1 << pbits) - 1
            owners = tuple(powners[f & pmask] for f in range(1 << bits))
        self._frags[dir_id] = (bits, owners)
        self.version += 1
        return [FragId(dir_id, bits, f) for f in range(1 << bits)]

    def set_frag_auth(self, frag: FragId, mds: int) -> None:
        """Delegate one fragment of a split directory to ``mds``."""
        if mds < 0:
            raise ValueError("MDS rank must be non-negative")
        state = self._frags.get(frag.dir_id)
        if state is None or state[0] != frag.bits:
            raise ValueError(f"directory {frag.dir_id} is not split into {frag.bits} bits")
        owners = list(state[1])
        owners[frag.frag_no] = mds
        self._frags[frag.dir_id] = (frag.bits, tuple(owners))
        self.version += 1

    # ----------------------------------------------------------------- extents
    def extent(self, root: int) -> list[int]:
        """Directories governed by subtree root ``root``."""
        if root not in self._subtree_auth:
            raise ValueError(f"{root} is not a subtree root")
        nested = set(self._subtree_auth) - {root}
        return self.tree.subtree_extent(root, nested)

    def subtrees_of(self, mds: int) -> list[int]:
        """Subtree roots currently authoritative on ``mds``."""
        return sorted(d for d, m in self._subtree_auth.items() if m == mds)

    def inode_distribution(self, n_mds: int) -> list[int]:
        """Inodes (dirs + files) authoritative on each MDS rank.

        Fragmented directories attribute their files to frag owners; the
        directory inode itself goes to the subtree authority.
        """
        counts = [0] * n_mds
        for root in self._subtree_auth:
            auth = self._subtree_auth[root]
            for d in self.extent(root):
                counts[auth] += 1  # the dir inode
                frag = self._frags.get(d)
                if frag is None:
                    counts[auth] += self.tree.n_files[d]
                else:
                    bits, owners = frag
                    n = self.tree.n_files[d]
                    width = 1 << bits
                    full, rem = divmod(n, width)
                    for frag_no, owner in enumerate(owners):
                        counts[owner] += full + (1 if frag_no < rem else 0)
        return counts
