"""Symmetry-aware stores: leaf interning and permutation-bound tree dedup.

Leaves are identified by their canonically ordered clause set, trees by the
multiset of (leaf key, splittable flag) pairs in leaf-key order, so any
permutation of the same leaves maps to one cache entry.  A tree keeps its
leaves in that order already, so its key is read off without sorting.

The tree cache stores each tree's scaled lower bound ``b_s`` (units of
1/(N*q) for lam = p/q) and purges with integer comparisons against the
incumbent's scaled objective, exactly as the rational bounds would
compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .tree import Leaf, LeafKey, TreeState

TreeKey = tuple[tuple[LeafKey, bool], ...]


class CacheLimitError(RuntimeError):
    """Raised when a configured cache-entry ceiling is exceeded."""


def tree_key(tree: TreeState) -> TreeKey:
    """(leaf key, flag) pairs of a tree whose leaves are in canonical
    order; leaf keys are distinct, so this is the sorted multiset."""
    return tuple(zip([l.clauses for l in tree.leaves], tree.splittable))


@dataclass
class LeafCache:
    max_entries: int | None = None
    _store: dict[LeafKey, Leaf] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def intern(self, key: LeafKey, build: Callable[[], Leaf]) -> Leaf:
        leaf = self._store.get(key)
        if leaf is not None:
            self.hits += 1
            return leaf
        self.misses += 1
        leaf = build()
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
    purged: int = 0

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
        self.purged += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._store)
