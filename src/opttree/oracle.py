"""Exhaustive reference optimizer for small instances.

The objective is additive over leaves, so the best subtree under a node
depends only on the samples S it captures.  With lam = p/q over N samples,
in integers scaled by N*q, it costs cost(S) = min(q*minority(S) + p*N,
min over features f splitting S into two non-empty sides of
cost(S & col_f) + cost(S - col_f)); the root alone takes no leaf penalty.
The recurrence is memoized on the capture alone, as in DL8.5 and MurTree,
with ties to fewer leaves, then the lower feature.  No leaf count is
capped, only the memo's estimated size in bytes (``MAX_MEMO_BYTES``),
since every key is an N-bit capture, the int whose bit i is sample i.
A feature on the path splits off an empty side, so paths are at most
min(M, distinct rows) deep, and an instance whose paths could pass the
recursion limit is refused up front.  The witness is rebuilt from each
capture's best feature and recounted from its leaves.  Nothing is
pruned, so nothing is shared with the search's pruning, and agreement
between the two is evidence, not a tautology.  For the same reason it
counts per sample, not over the row classes the search counts with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import validate_lam
from .dataset import Dataset, build_equivalence_index
from .tree import Clause, LeafKey, canonical_clauses

# estimated bytes of memo one call may hold before it gives up; an entry
# is taken as its N-bit capture, ceil(N/8) bytes, plus ENTRY_OVERHEAD for
# the dict slot, the value tuple and the int headers (about 170 bytes
# measured under tracemalloc at N = 1000)
MAX_MEMO_BYTES = 256 * 2**20
ENTRY_OVERHEAD = 200


class OracleResourceError(RuntimeError):
    """Instance too large for exhaustive optimization."""


@dataclass(frozen=True)
class OracleResult:
    objective: Fraction
    leaf_keys: tuple[LeafKey, ...]
    mistakes: int
    n_leaves: int


def exhaustive_optimum(ds: Dataset, lam: Fraction) -> OracleResult:
    """Globally optimal objective and one witness leaf set."""
    validate_lam(lam)
    n, m = ds.n_samples, ds.n_features
    if n == 0:
        raise ValueError("the dataset has no samples")
    # one frame per node on a path: a path splits on each feature at most
    # once, and each split leaves fewer distinct rows on either side
    room = sys.getrecursionlimit() - 100  # frames left to the caller
    if m >= room:
        depth = min(m + 1, build_equivalence_index(ds).n_classes)
        if depth > room:
            raise OracleResourceError(
                f"paths up to {depth} nodes deep exceed the recursion "
                f"limit's room of {room}")
    q, pn = lam.denominator, lam.numerator * n
    labels, cols = ds.labels, ds.columns
    # memo[capture] = (least scaled cost of a subtree over it, its leaf
    # count, the feature its root splits on or None for a leaf)
    memo: dict[int, tuple] = {}
    entry_bytes = (n + 7) // 8 + ENTRY_OVERHEAD

    def minority(capture: int) -> int:
        ones = (capture & labels).bit_count()
        return min(ones, capture.bit_count() - ones)

    def solve(capture: int, penalty: int) -> tuple:
        hit = memo.get(capture)
        if hit is not None:
            return hit
        best = (q * minority(capture) + penalty, 1, None)
        for f, col in enumerate(cols):
            right = capture & col
            if not right or right == capture:
                continue
            c1, h1, _ = solve(capture & ~col, pn)
            c2, h2, _ = solve(right, pn)
            if (c1 + c2, h1 + h2) < best[:2]:
                best = (c1 + c2, h1 + h2, f)
        if (len(memo) + 1) * entry_bytes > MAX_MEMO_BYTES:
            raise OracleResourceError(
                f"a memo of {len(memo) + 1} captures of {n} samples would "
                f"exceed {MAX_MEMO_BYTES} bytes")
        memo[capture] = best
        return best

    # no split reaches the root's capture again, so its unpenalized entry
    # is read only here
    root = ds.all_samples
    cost, n_leaves, _ = solve(root, 0)

    leaves: list[tuple[LeafKey, int]] = []

    def collect(capture: int, clauses: tuple[Clause, ...]) -> None:
        f = memo[capture][2]
        if f is None:
            leaves.append((canonical_clauses(clauses), minority(capture)))
            return
        collect(capture & ~cols[f], clauses + (Clause(f, False),))
        collect(capture & cols[f], clauses + (Clause(f, True),))

    collect(root, ())
    mistakes = sum(e for _, e in leaves)
    objective = Fraction(mistakes, n) \
        + lam * (0 if len(leaves) == 1 else len(leaves))
    if objective != Fraction(cost, n * q) or len(leaves) != n_leaves:
        raise AssertionError(f"witness {objective} disagrees with memo")
    return OracleResult(objective=objective,
                        leaf_keys=tuple(sorted(k for k, _ in leaves)),
                        mistakes=mistakes, n_leaves=n_leaves)
