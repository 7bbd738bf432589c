"""Bound switches and the paper's counting results.

The pruning rules run where the search evaluates them, on integers scaled
by N*q (lam = p/q): the hierarchical lower bound, lookahead and equivalent
points form ``_Run._is_live`` (built by ``_Run._liveness_gate``); node
support (against ``_Run.support_s``), leaf accuracy and incremental
accuracy are checked in ``_Run._split_table``, node support also in
``_Run._expandable_index``; similar support in ``_Run._similar_skip``, and
the remaining-evaluations bound is summed in ``_Run._record_trace`` with
``cumulative_perm``.  The leaf-count caps need no check of their own:
lam*H <= b < best already bounds H.

What stays here is counting with big integers (a priori leaf cap, total
tree evaluations, search-space size, symmetry savings), reported as
floor(log10) where the magnitudes are astronomical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm


@dataclass
class BoundToggles:
    """Optional bounds; the hierarchical lower bound is always active."""

    lookahead: bool = True
    node_support: bool = True
    incremental_accuracy: bool = True
    leaf_accuracy: bool = True
    equivalent_points: bool = True
    permutation_cache: bool = True
    similar_support: bool = False


def _floor_ratio(a: Fraction, b: Fraction) -> int:
    """floor(a / b) for positive b, exactly."""
    return (a.numerator * b.denominator) // (a.denominator * b.numerator)


def max_leaves_apriori(lam: Fraction, n_features: int) -> int:
    if lam <= 0:
        raise ValueError("lam must be positive")
    return min(_floor_ratio(Fraction(1, 2), lam), 2 ** n_features)


@lru_cache(maxsize=4096)
def cumulative_perm(slots: int, f: int) -> int:
    """Sum of perm(slots, k) for k = 0..f, as one running product:
    perm(slots, k) = perm(slots, k - 1) * (slots - k + 1).  Queue entries
    repeat (slots, f) pairs heavily, so this is memoized."""
    total = term = 1
    for k in range(1, f + 1):
        term *= slots - k + 1
        total += term
    return total


def floor_log10(n: int) -> int:
    """floor(log10(n)) for a positive integer, exactly and without
    converting n to decimal (CPython refuses ints over 4300 digits)."""
    if n < 1:
        raise ValueError("n must be positive")
    # 2^(b-1) <= n < 2^b and log10(2) ~ 0.30103: the estimate is off by
    # at most one, and the two loops correct it against powers of ten
    k = (n.bit_length() - 1) * 30103 // 100000
    power = 10 ** k
    while power > n:
        k -= 1
        power //= 10
    while power * 10 <= n:
        k += 1
        power *= 10
    return k


def total_evaluations_bound_log10(lam: Fraction, n_features: int) -> int:
    """floor(log10) of the a priori cap on trees ever evaluated."""
    return floor_log10(cumulative_perm(3 ** n_features,
                                       max_leaves_apriori(lam, n_features)))


def symmetry_savings(n_features: int, max_leaves: int) -> int:
    """Evaluations avoided by keeping one representative per leaf-set
    permutation class."""
    if max_leaves < 1:
        raise ValueError("max_leaves must be >= 1")
    return sum(perm(n_features, k) - comb(n_features, k)
               for k in range(1, max_leaves + 1))


# CPython refuses to print an int of more than 4300 decimal digits
MAX_PRINTABLE_DIGITS = 4300


def count_trees(p: int, d: int) -> int:
    """Cumulative number of distinct trees over p features up to depth d.

    A tree of depth at most d is a leaf or a split on one of p features
    whose two subtrees use the other p - 1 features up to depth d - 1:
    A(p, 0) = 1 and A(p, d) = 1 + p * A(p - 1, d - 1)^2, less the lone
    leaf.  A root-to-leaf path uses each feature at most once, so no tree
    is deeper than p and the depth is capped there.  A count too large to
    print raises ValueError as soon as a step passes that size."""
    if p < 1 or d < 1:
        raise ValueError("p and d must be >= 1")
    depth = min(d, p)
    count = 1
    for k in range(p - depth + 1, p + 1):
        count = 1 + k * count * count
        if floor_log10(count) >= MAX_PRINTABLE_DIGITS:
            raise ValueError(
                f"count of trees over {p} features up to depth {d} has "
                f"more than {MAX_PRINTABLE_DIGITS} digits")
    return count - 1
