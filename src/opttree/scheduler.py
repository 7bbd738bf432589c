"""Worklist priority policies and the search queue.

Every policy yields a total order via (priority value, generation): each
pushed tree has its own generation number, assigned in creation order, so
ties break deterministically towards older trees.  Lower keys are popped
first.  The bound-based keys read the integer sums a tree computed when it
was built.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .dataset import Dataset
from .tree import TreeState


class Policy(Enum):
    BFS = "bfs"
    DFS = "dfs"
    LOWER_BOUND = "lower_bound"
    OBJECTIVE = "objective"
    CURIOSITY = "curiosity"
    ENTROPY = "entropy"
    GINI = "gini"


def _leaf_ones(leaf, ds: Dataset) -> int:
    if leaf.prediction == 1:
        return leaf.n_correct
    return leaf.n_captured - leaf.n_correct


def priority(tree: TreeState, policy: Policy, ds: Dataset):
    """Scheduling key for a tree; smaller keys are explored sooner."""
    n = ds.n_samples
    if policy is Policy.BFS:
        return tree.h
    if policy is Policy.DFS:
        return -tree.h
    if policy is Policy.LOWER_BOUND:
        return tree.lower_bound
    if policy is Policy.OBJECTIVE:
        return tree.objective
    if policy is Policy.CURIOSITY:
        # lower bound scaled by inverse unchanged-leaf support; the root
        # has no unchanged leaves, so fall back to the bound itself
        cap = tree.unchanged_capture
        if cap == 0:
            return tree.lower_bound
        return Fraction(tree.b_s * n, tree.scale * cap)
    if policy is Policy.ENTROPY:
        total = 0.0
        for leaf, s in zip(tree.leaves, tree.splittable):
            if not s or leaf.n_captured == 0:
                continue
            p = _leaf_ones(leaf, ds) / leaf.n_captured
            if 0.0 < p < 1.0:
                h2 = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
                total += leaf.n_captured / n * h2
        return total
    if policy is Policy.GINI:
        total = Fraction(0)
        for leaf, s in zip(tree.leaves, tree.splittable):
            if not s or leaf.n_captured == 0:
                continue
            p = Fraction(_leaf_ones(leaf, ds), leaf.n_captured)
            total += Fraction(leaf.n_captured, n) * 2 * p * (1 - p)
        return total
    raise ValueError(f"unknown policy {policy}")


class SearchQueue:
    """Min-heap worklist with deterministic tie-breaking and lazy
    invalidation: stale entries are discarded at pop time."""

    def __init__(self, policy: Policy, ds: Dataset):
        self.policy = policy
        self.ds = ds
        self._heap: list[tuple] = []
        self.max_size = 0

    def push(self, tree: TreeState) -> None:
        key = priority(tree, self.policy, self.ds)
        heapq.heappush(self._heap, (key, tree.generation, tree))
        self.max_size = max(self.max_size, len(self._heap))

    def pop(self, is_live: Optional[Callable[[TreeState], bool]] = None
            ) -> Optional[TreeState]:
        while self._heap:
            _, _, tree = heapq.heappop(self._heap)
            if is_live is None or is_live(tree):
                return tree
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def trees(self):
        for _, _, tree in self._heap:
            yield tree

    def min_lower_bound(self,
                        is_live: Optional[Callable[[TreeState], bool]] = None
                        ) -> Optional[Fraction]:
        bounds = [t.lower_bound for _, _, t in self._heap
                  if is_live is None or is_live(t)]
        return min(bounds) if bounds else None
