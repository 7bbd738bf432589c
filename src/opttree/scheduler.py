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

Besides the heap, the queue counts its entries, stale ones included, per
(``b_s``, leaf count) bucket.  Everything the search's trace reports about
the queue (its least lower bound and the remaining-evaluations bound)
depends on a tree only through that pair, so a trace record costs time in
the number of distinct buckets, not in the number of queued trees.
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


def _entropy(tree: TreeState, n: int) -> float:
    total = 0.0
    for leaf, s in zip(tree.leaves, tree.splittable):
        if not s or leaf.n_captured == 0:
            continue
        p = leaf.n_ones / leaf.n_captured
        if 0.0 < p < 1.0:
            h2 = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            total += leaf.n_captured / n * h2
    return total


def _gini(tree: TreeState, n: int) -> Fraction:
    total = Fraction(0)
    for leaf, s in zip(tree.leaves, tree.splittable):
        if not s or leaf.n_captured == 0:
            continue
        p = Fraction(leaf.n_ones, leaf.n_captured)
        total += Fraction(leaf.n_captured, n) * 2 * p * (1 - p)
    return total


# each policy's key of a tree over N samples
_KEYS: dict[Policy, Callable[[TreeState, int], object]] = {
    Policy.BFS: lambda tree, n: tree.h,
    Policy.DFS: lambda tree, n: -tree.h,
    Policy.LOWER_BOUND: lambda tree, n: tree.b_s,
    Policy.OBJECTIVE: lambda tree, n: tree.r_s,
    # b_s/(q*c) times q*N^2, floored: exact (see the module docstring);
    # c = N when no leaf is unchanged, as in the root
    Policy.CURIOSITY:
        lambda tree, n: tree.b_s * n * n // (tree.unchanged_capture or n),
    Policy.ENTROPY: _entropy,
    Policy.GINI: _gini,
}


def priority(tree: TreeState, policy: Policy, ds: Dataset):
    """Scheduling key for a tree; smaller keys are explored sooner."""
    return _KEYS[policy](tree, ds.n_samples)


class SearchQueue:
    """Min-heap worklist with deterministic tie-breaking and lazy
    invalidation: stale entries are discarded at pop time.

    ``buckets`` maps (``b_s``, leaf count) to the number of heap entries,
    stale ones included, with that pair; a pair with no entry has no key.
    """

    def __init__(self, policy: Policy, ds: Dataset):
        self._key = _KEYS[policy]  # chosen once for the queue
        self._n = ds.n_samples
        self._heap: list[tuple] = []
        self.buckets: dict[tuple[int, int], int] = {}
        self.max_size = 0

    def push(self, tree: TreeState) -> None:
        heapq.heappush(self._heap,
                       (self._key(tree, self._n), tree.generation, tree))
        bucket = (tree.b_s, len(tree.leaves))
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.max_size = max(self.max_size, len(self._heap))

    def pop(self, is_live: Optional[Callable[[TreeState], bool]] = None
            ) -> Optional[TreeState]:
        heap, buckets = self._heap, self.buckets
        while heap:
            _, _, tree = heapq.heappop(heap)
            bucket = (tree.b_s, len(tree.leaves))
            count = buckets[bucket]
            if count == 1:
                del buckets[bucket]
            else:
                buckets[bucket] = count - 1
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
