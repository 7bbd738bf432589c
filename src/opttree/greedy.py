"""Top-down impurity-greedy trees: a standalone baseline.

``fit`` does not call this module; the exact search starts from the root
alone.  No optimality machinery here: recursive splitting on the best
exact Gini impurity reduction down to ``max_depth``, with deterministic
tie-breaking (lowest feature index wins) so runs are reproducible.  The
leaf penalty lam enters only the returned tree's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dataset import (Dataset, EquivalenceIndex, and_literal,
                      build_equivalence_index)
from .tree import Clause, Leaf, TreeState, make_leaf, sort_leaves


@dataclass(frozen=True)
class GreedyParams:
    max_depth: int
    min_leaf_samples: int = 1


def _gini(n_ones: int, n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    p = Fraction(n_ones, n)
    return 2 * p * (1 - p)


def greedy_fit(ds: Dataset, params: GreedyParams, lam: Fraction,
               eq: Optional[EquivalenceIndex] = None) -> TreeState:
    """Grow a tree greedily and return it as a terminal search state."""
    if eq is None:
        eq = build_equivalence_index(ds)

    def grow(capture: int, clauses: tuple[Clause, ...],
             depth: int) -> list[Leaf]:
        n = capture.bit_count()
        ones = (capture & ds.labels).bit_count()
        used = {c.feature for c in clauses}
        best = None  # (reduction, feature, split captures)
        if depth < params.max_depth:
            for f in range(ds.n_features):
                if f in used:
                    continue
                right = and_literal(ds, capture, f, True)
                left = and_literal(ds, capture, f, False)
                nl, nr = left.bit_count(), right.bit_count()
                if nl < params.min_leaf_samples \
                        or nr < params.min_leaf_samples:
                    continue
                ol = (left & ds.labels).bit_count()
                weighted = (Fraction(nl, n) * _gini(ol, nl)
                            + Fraction(nr, n) * _gini(ones - ol, nr))
                reduction = _gini(ones, n) - weighted
                if reduction > 0 and (best is None or reduction > best[0]):
                    best = (reduction, f, left, right)
        if best is None:
            return [make_leaf(clauses, ds, eq)]
        _, f, left, right = best
        return (grow(left, clauses + (Clause(f, False),), depth + 1)
                + grow(right, clauses + (Clause(f, True),), depth + 1))

    leaves = grow(ds.all_samples, (), 0)
    leaves_t, flags = sort_leaves(tuple(leaves),
                                  tuple(False for _ in leaves))
    return TreeState(leaves=leaves_t, splittable=flags,
                     n_samples=ds.n_samples, lam=lam)
