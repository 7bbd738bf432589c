"""Worklist priority policies and the search queue.

Every policy yields a total order via (priority value, push count): the
queue numbers its pushes, so equal keys pop in the order they were pushed,
which is the order the search priced the children in.  Lower keys are
popped first.

The queue holds entries, not trees (see ``tree.B_S``): a child's scaled
sums and what builds it.  The bound-based keys are integers read from
those sums, in units of 1/(N*q) for lam = p/q over N samples.  Within one
search N and q are fixed, so ``b_s`` orders trees exactly as their lower
bounds and ``r_s`` exactly as their objectives.  The curiosity key, lower
bound over the fraction c/N of samples held by unchanged leaves (c = N
when there are none), is b_s/(q*c) as a rational.  Every c is at most N,
so two different values of b_s/c differ by at least 1/N^2, and the
integer ``b_s * N * N // c`` orders and ties exactly as the rational.
Only the entropy (float) and Gini (float, Fraction) keys are not integers;
they read the leaves to split from the entry, in no set order, and sum
exactly.

Besides the heap, the queue counts its entries per (``b_s``, leaf count)
bucket.  Everything the search's trace reports about the queue (its least
lower bound and the remaining-evaluations bound) depends on a tree only
through that pair, so a trace record costs time in the number of distinct
buckets, not in the number of queued trees.

The search keeps every queued entry live: it queues only live children,
and when its incumbent improves it drops the entries that can no longer
beat it all at once (``retain``), so a pop needs no gate and the buckets
hold live entries only.  A push counts its batch into the buckets, and
a purge filters and recounts the queue, in C-level passes.
"""

from __future__ import annotations

import heapq
import math
# the C helper behind Counter.update: counts an iterable into a dict
from collections import _count_elements
from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .dataset import Dataset
from .tree import B_S, N_LEAVES, R_S, UNCHANGED_CAPTURE


class Policy(Enum):
    BFS = "bfs"
    DFS = "dfs"
    LOWER_BOUND = "lower_bound"
    OBJECTIVE = "objective"
    CURIOSITY = "curiosity"
    ENTROPY = "entropy"
    GINI = "gini"


def _to_split(entry: tuple) -> tuple:
    """The leaves to split of an entry's tree: its parent's after
    ``split[0]`` and each new leaf flagged so, or a built tree's own."""
    parent, c1, c2, s1, s2 = entry[5:]
    if c1 is None:
        return parent.split
    return parent.split[1:] + (c1,) * s1 + (c2,) * s2


def _entropy(entry: tuple, n: int) -> float:
    """sum (n_c/N) * H(p) over the leaves to split, rounded exactly."""
    terms = []
    for leaf in _to_split(entry):
        p = leaf.n_ones / leaf.n_captured
        if 0.0 < p < 1.0:
            h2 = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            terms.append(leaf.n_captured / n * h2)
    return math.fsum(terms)


def _gini(entry: tuple, n: int) -> tuple[float, Fraction]:
    """The leaves to split's Gini impurity, sum (n_c/N) * 2p(1 - p) over
    the leaves' sample counts n_c and one-label shares p, times the
    constant N/2: g = sum ones * zeros / n_c, which orders and ties alike,
    summed over integers.  float(g) is correctly rounded, so the key
    (float(g), g) orders as g and compares g only when the floats tie."""
    num, den = 0, 1
    for leaf in _to_split(entry):
        num = num * leaf.n_captured \
            + leaf.n_ones * (leaf.n_captured - leaf.n_ones) * den
        den *= leaf.n_captured
    g = Fraction(num, den)
    return float(g), g


# each policy's key of a queue entry over N samples
_KEYS: dict[Policy, Callable[[tuple, int], object]] = {
    # only the root has one leaf: the count orders as the penalized one
    Policy.BFS: lambda e, n: e[N_LEAVES],
    Policy.DFS: lambda e, n: -e[N_LEAVES],
    Policy.LOWER_BOUND: lambda e, n: e[B_S],
    Policy.OBJECTIVE: lambda e, n: e[R_S],
    # b_s/(q*c) times q*N^2, floored: exact (see the module docstring);
    # c = N when no leaf is unchanged, as in the root
    Policy.CURIOSITY: lambda e, n: e[B_S] * n * n
    // (e[UNCHANGED_CAPTURE] or n),
    Policy.ENTROPY: _entropy,
    Policy.GINI: _gini,
}


class SearchQueue:
    """Min-heap worklist of entries with deterministic tie-breaking.

    ``buckets`` maps (``b_s``, leaf count) to the number of heap entries
    with that pair; a pair with no entry has no key.
    """

    _bucket = staticmethod(itemgetter(B_S, N_LEAVES))
    _entry = staticmethod(itemgetter(2))  # of a heap item

    def __init__(self, policy: Policy, ds: Dataset):
        self._key = _KEYS[policy]  # chosen once for the queue
        self._n = ds.n_samples
        self._heap: list[tuple] = []
        self.buckets: dict[tuple[int, int], int] = {}
        self.max_size = 0
        self._pushes = 0

    def push(self, entries: Sequence[tuple]) -> None:
        """Queue a batch of entries: one expansion's live children."""
        if not entries:  # about half the pushes of a certifying search
            return
        key, n, heap, pushes = self._key, self._n, self._heap, self._pushes
        for entry in entries:
            pushes += 1
            heapq.heappush(heap, (key(entry, n), pushes, entry))
        self._pushes = pushes
        _count_elements(self.buckets, map(self._bucket, entries))
        if len(heap) > self.max_size:
            self.max_size = len(heap)

    def pop(self, is_live: Optional[Callable[[tuple], bool]] = None
            ) -> Optional[tuple]:
        """The first queued entry, or with ``is_live`` the first it
        accepts, discarding those popped before it; None when there is
        none."""
        heap, buckets = self._heap, self.buckets
        while heap:
            _, _, entry = heapq.heappop(heap)
            bucket = self._bucket(entry)
            count = buckets[bucket]
            if count == 1:
                del buckets[bucket]
            else:
                buckets[bucket] = count - 1
            if is_live is None or is_live(entry):
                return entry
        return None

    def retain(self, keep: Callable[[Iterable[tuple]], list[bool]]) -> int:
        """Keep only the queued entries that ``keep``, given all of them in
        one pass, flags true; returns how many were dropped.  Those kept
        pop in the same order as before."""
        heap, entry = self._heap, self._entry
        self._heap = kept = list(compress(heap, keep(map(entry, heap))))
        heapq.heapify(kept)
        self.buckets = {}
        _count_elements(self.buckets, map(self._bucket, map(entry, kept)))
        return len(heap) - len(kept)

    def __len__(self) -> int:
        return len(self._heap)

    def trees(self):
        """The queued entries, in heap order."""
        for _, _, entry in self._heap:
            yield entry

    def min_lower_bound(self, is_live: Callable[[tuple], bool]
                        ) -> Optional[tuple]:
        """The live queued entry with the smallest lower bound, compared
        as integer ``b_s``, the first in heap order among equals; None when
        there is none.  Liveness is asked only of an entry whose bound is
        below the least live one found so far."""
        least = None
        for _, _, entry in self._heap:
            if (least is None or entry[B_S] < least[B_S]) \
                    and is_live(entry):
                least = entry
        return least
