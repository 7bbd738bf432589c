"""Worklist priority policies and the search queue.

Every policy yields a total order via (priority value, generation): each
pushed tree has its own generation number, assigned in creation order, so
ties break deterministically towards older trees.  Lower keys are popped
first.

The bound-based keys are integers read from the sums a tree computed when
it was built, in units of 1/(N*q) for lam = p/q over N samples.  Within
one search N and q are fixed, so ``b_s`` orders trees exactly as their
lower bounds and ``r_s`` exactly as their objectives.  The curiosity key,
lower bound over the fraction c/N of samples held by unchanged leaves
(c = N when there are none), is b_s/(q*c) as a rational.  Every c is at
most N, so two different values of b_s/c differ by at least 1/N^2, and
the integer ``b_s * N * N // c`` orders and ties exactly as the rational.
Only the entropy (float) and Gini (Fraction) keys are not integers.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from fractions import Fraction
from operator import attrgetter
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
        return tree.b_s
    if policy is Policy.OBJECTIVE:
        return tree.r_s
    if policy is Policy.CURIOSITY:
        # b_s/(q*c) times q*N^2, floored: exact (see the module docstring);
        # c = N when no leaf is unchanged, as in the root
        return tree.b_s * n * n // (tree.unchanged_capture or n)
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
                        ) -> Optional[TreeState]:
        """The (live) queued tree with the smallest lower bound, compared
        as integer ``b_s``; None when there is none."""
        return min((t for _, _, t in self._heap
                    if is_live is None or is_live(t)),
                   key=attrgetter("b_s"), default=None)
