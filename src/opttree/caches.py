"""Symmetry-aware stores: leaf interning and permutation-bound tree dedup.

Leaves are identified by their canonically ordered clause set.  Within one
search, ``LeafCache`` hands out one ``Leaf`` object per leaf key, and a
tree keeps its unchanged leaves and its leaves to split as two tuples,
each in leaf-key order, so two trees hold the same unchanged leaves and
the same leaves to split exactly when their two tuples hold the same
objects in the same order.  A tree's key is therefore the pair of tuples
it already has, ``(tree.unchanged, tree.split)``: nothing is built or
sorted, and leaves hash and compare by identity.  Any permutation of the
same leaves maps to one cache entry.  The invariant holds only for trees
whose leaves came from one ``LeafCache``, so a key means nothing outside
its search.  A cached leaf holds its counts and no capture, and so does
a leaf's split table (see ``search``).

The search looks a leaf's children up only while it works out that leaf's
split table, during the leaf's first expansion (see ``search``), so
``hits`` counts at most two lookups per (leaf, feature), not two per
feature in every expansion, and its size counts the misses.

The tree cache holds the trees the search has expanded.  A child is
queued unbuilt, so the search marks a tree only when it expands a popped
entry (see ``search``): a tree whose key is already held, a copy that a
second split order reached, is skipped rather than expanded again.  Its
size therefore counts expanded trees, not evaluated ones.  It stores each
tree's scaled lower bound ``b_s`` (units of 1/(N*q) for lam = p/q) and
purges with integer comparisons against the incumbent's scaled
objective, exactly as the rational bounds would compare.

Neither cache has a limit of its own.  The search checks the sizes of
both against ``max_cache_entries`` between expansions, with its other
limits, so an expansion always finishes (see ``search``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .tree import Leaf, LeafKey, TreeState

TreeKey = tuple[tuple[Leaf, ...], tuple[Leaf, ...]]


def tree_key(tree: TreeState) -> TreeKey:
    """The tree's interned unchanged leaves and leaves to split, each in
    canonical order."""
    return (tree.unchanged, tree.split)


@dataclass
class LeafCache:
    _store: dict[LeafKey, Leaf] = field(default_factory=dict)
    hits: int = 0

    def intern(self, key: LeafKey, build: Callable[..., Leaf],
               *args) -> Leaf:
        """The leaf stored under ``key``; on a miss, ``build(*args)``."""
        leaf = self._store.get(key)
        if leaf is not None:
            self.hits += 1
            return leaf
        leaf = build(*args)
        if leaf.key != key:
            raise ValueError("built leaf does not match its key")
        self._store[key] = leaf
        return leaf

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class TreeCache:
    _store: dict[TreeKey, int] = field(default_factory=dict)

    def seen_or_mark(self, key: TreeKey, b_s: int) -> bool:
        """True if the key was already expanded; otherwise record it with
        its scaled lower bound."""
        if key in self._store:
            return True
        self._store[key] = b_s
        return False

    def garbage_collect(self, best_s: int, margin_s: int) -> int:
        """Drop entries that can no longer produce an improvement
        (b_s + margin_s >= best_s, all scaled; the search passes its
        lookahead margin, lam_s or 0).  Returns the number purged."""
        doomed = [k for k, b_s in self._store.items()
                  if b_s + margin_s >= best_s]
        for k in doomed:
            del self._store[k]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._store)
