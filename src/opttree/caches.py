"""Symmetry-aware stores: leaf interning and permutation-bound tree dedup.

Leaves are identified by their canonically ordered clause set.  Within one
search, ``LeafCache`` hands out one ``Leaf`` object per leaf key, and a
tree keeps its leaves in leaf-key order, so two trees hold the same
multiset of (leaf, splittable flag) pairs exactly when their ``leaves``
tuples hold the same objects in the same order and their flag tuples are
equal.  A tree's key is therefore the pair of tuples it already has,
``(tree.leaves, tree.splittable)``: nothing is built or sorted, and leaves
hash and compare by identity.  Any permutation of the same leaves maps to
one cache entry.  The invariant holds only for trees whose leaves came
from one ``LeafCache``, so a key means nothing outside its search.  A
cached leaf holds its counts and no capture; the run keeps the capture
of each leaf it splits with that leaf's split table (see ``search``).

The search looks a leaf's children up only while it works out that leaf's
split table, during the leaf's first expansion (see ``search``), so
``hits`` counts at most two lookups per (leaf, feature), not two per
feature in every expansion.

The tree cache stores each tree's scaled lower bound ``b_s`` (units of
1/(N*q) for lam = p/q) and purges with integer comparisons against the
incumbent's scaled objective, exactly as the rational bounds would
compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .tree import Leaf, LeafKey, TreeState

TreeKey = tuple[tuple[Leaf, ...], tuple[bool, ...]]


class CacheLimitError(RuntimeError):
    """Raised when a configured cache-entry ceiling is exceeded."""


def tree_key(tree: TreeState) -> TreeKey:
    """The tree's interned leaves, in canonical order, and their flags."""
    return (tree.leaves, tree.splittable)


@dataclass
class LeafCache:
    max_entries: int | None = None
    _store: dict[LeafKey, Leaf] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def intern(self, key: LeafKey, build: Callable[..., Leaf],
               *args) -> Leaf:
        """The leaf stored under ``key``; on a miss, ``build(*args)``."""
        leaf = self._store.get(key)
        if leaf is not None:
            self.hits += 1
            return leaf
        self.misses += 1
        leaf = build(*args)
        if leaf.key != key:
            raise ValueError("built leaf does not match its key")
        self._store[key] = leaf
        if self.max_entries is not None and len(self._store) > self.max_entries:
            raise CacheLimitError(
                f"leaf cache exceeded {self.max_entries} entries")
        return leaf

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class TreeCache:
    max_entries: int | None = None
    _store: dict[TreeKey, int] = field(default_factory=dict)

    def seen_or_mark(self, key: TreeKey, b_s: int) -> bool:
        """True if the key was already evaluated; otherwise record it with
        its scaled lower bound."""
        if key in self._store:
            return True
        self._store[key] = b_s
        if self.max_entries is not None and len(self._store) > self.max_entries:
            raise CacheLimitError(
                f"tree cache exceeded {self.max_entries} entries")
        return False

    def garbage_collect(self, best_s: int, lam_s: int) -> int:
        """Drop entries that can no longer produce an improvement
        (b_s + lam_s >= best_s, all scaled).  Returns the number purged."""
        doomed = [k for k, b_s in self._store.items()
                  if b_s + lam_s >= best_s]
        for k in doomed:
            del self._store[k]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._store)
