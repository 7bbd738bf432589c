"""Leaf and tree value types with exact objective arithmetic.

The objective of a tree is (misclassified fraction) + lam * (leaf count),
with the convention that the root-only tree has an effective leaf count of
zero, so its objective is just the minority-class fraction.  The lower
bound counts only the mistakes of unchanged leaves, which is valid for
every descendant because unchanged leaves are never split again.

A tree sums its bounds once, when it is built, as integers scaled by N*q
(lam = p/q); the search compares those integers and ``lower_bound`` and
``objective`` turn them into exact rationals.  The module-level
``objective`` recomputes a tree's objective from its leaves alone, as an
independent reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .bitvec import BitVector
from .dataset import Dataset, EquivalenceIndex, literal_column


class Clause(NamedTuple):
    feature: int
    polarity: bool


LeafKey = tuple[Clause, ...]  # clauses sorted by feature index

_feature = attrgetter("feature")


def canonical_clauses(clauses: Sequence[Clause]) -> LeafKey:
    ordered = tuple(sorted(clauses, key=lambda c: c.feature))
    feats = [c.feature for c in ordered]
    if len(set(feats)) != len(feats):
        raise ValueError(f"duplicate feature in clauses: {feats}")
    return ordered


class Leaf:
    """A conjunction of feature literals with its capture statistics.

    Immutable except for ``dead_features``, which only accumulates features
    provably useless for splitting this leaf; the set is shared by every
    tree holding the leaf, which is sound because deadness depends only on
    the leaf, the data, and lam.
    """

    __slots__ = ("clauses", "capture", "n_captured", "n_correct",
                 "prediction", "mistakes", "b0_count", "dead",
                 "dead_features")

    def __init__(self, clauses: LeafKey, capture: BitVector, ds: Dataset,
                 eq: EquivalenceIndex, lam: Fraction,
                 dead_features: Optional[set[int]] = None):
        self.clauses = clauses
        self.capture = capture
        self.n_captured = capture.count_ones()
        ones = (capture & ds.labels).count_ones()
        zeros = self.n_captured - ones
        # tie -> predict 0; the mistake count is unaffected
        if ones > zeros:
            self.prediction = 1
            self.n_correct = ones
        else:
            self.prediction = 0
            self.n_correct = zeros
        self.mistakes = self.n_captured - self.n_correct
        self.b0_count = (capture & eq.z).count_ones()
        # support below 2*lam means this leaf may never be split
        self.dead = self.n_captured * lam.denominator \
            < 2 * lam.numerator * ds.n_samples
        self.dead_features = set() if dead_features is None else dead_features

    @property
    def key(self) -> LeafKey:
        return self.clauses

    def __repr__(self) -> str:
        lits = ",".join(f"{'' if c.polarity else '!'}f{c.feature}"
                        for c in self.clauses) or "root"
        return (f"<Leaf {lits} n={self.n_captured} "
                f"pred={self.prediction} err={self.mistakes}>")


def make_leaf(clauses: Sequence[Clause], ds: Dataset, eq: EquivalenceIndex,
              lam: Fraction) -> Leaf:
    """Build a leaf from scratch: capture is the AND of its literal columns."""
    key = canonical_clauses(list(clauses))
    capture = BitVector.ones(ds.n_samples)
    for c in key:
        capture = capture & literal_column(ds, c.feature, c.polarity)
    return Leaf(key, capture, ds, eq, lam)


def child_key(leaf: Leaf, feature: int, polarity: bool) -> LeafKey:
    """Key of ``leaf`` extended by one literal on a feature it does not
    use: the clause is inserted at its place in the feature order."""
    clauses = leaf.clauses
    i = bisect_left(clauses, feature, key=_feature)
    if i < len(clauses) and clauses[i].feature == feature:
        raise ValueError(f"feature {feature} already in leaf clauses")
    return clauses[:i] + (Clause(feature, polarity),) + clauses[i:]


def make_child_leaf(parent: Leaf, feature: int, polarity: bool,
                    key: LeafKey, ds: Dataset, eq: EquivalenceIndex,
                    lam: Fraction) -> Leaf:
    """Extend a leaf by one literal, reusing the parent's capture vector.

    ``key`` must be ``child_key(parent, feature, polarity)``: the search
    builds it once, for the leaf-cache lookup, and hands it over on a miss.
    """
    capture = parent.capture & literal_column(ds, feature, polarity)
    return Leaf(key, capture, ds, eq, lam,
                dead_features=set(parent.dead_features))


# A pair of sibling leaves produced by a gain-deficient split; retiring
# both unsplit is forbidden (at least one must be split further).
MustSplitPairs = frozenset  # of frozenset({LeafKey, LeafKey})


@dataclass(slots=True)
class TreeState:
    """A tree as a set of leaves partitioned into unchanged and splittable.

    ``h`` is the penalized leaf count: 0 for the root-only tree, the true
    leaf count for any split tree.

    The bound sums are taken once, when the tree is built, and kept scaled
    to integers: with lam = p/q over N samples, a value e/N + lam*H is
    stored as e*q + H*p*N, in units of 1/(N*q) (``scale``).  ``b_s`` is the
    lower bound (unchanged mistakes plus the leaf penalty), ``r_s`` the
    objective (``b_s`` plus the splittable leaves' mistakes), ``b0_s`` the
    equivalent-points floor under the splittable leaves, and
    ``unchanged_capture`` the number of samples the unchanged leaves hold.
    """

    leaves: tuple[Leaf, ...]          # canonically ordered by leaf key
    splittable: tuple[bool, ...]
    h: int
    n_samples: int
    lam: Fraction
    must_split_pairs: MustSplitPairs = frozenset()
    generation: int = 0
    scale: int = field(init=False, repr=False)
    b_s: int = field(init=False, repr=False)
    r_s: int = field(init=False, repr=False)
    b0_s: int = field(init=False, repr=False)
    unchanged_capture: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        err_unchanged = err_splittable = b0 = capture = 0
        for leaf, s in zip(self.leaves, self.splittable):
            if s:
                err_splittable += leaf.mistakes
                b0 += leaf.b0_count
            else:
                err_unchanged += leaf.mistakes
                capture += leaf.n_captured
        q = self.lam.denominator
        self.scale = self.n_samples * q
        self.b_s = q * err_unchanged \
            + self.lam.numerator * self.n_samples * self.h
        self.r_s = self.b_s + q * err_splittable
        self.b0_s = q * b0
        self.unchanged_capture = capture

    @property
    def lower_bound(self) -> Fraction:
        return Fraction(self.b_s, self.scale)

    @property
    def objective(self) -> Fraction:
        return Fraction(self.r_s, self.scale)

    def check_partition(self) -> None:
        """Debug invariant: leaf captures partition the samples."""
        total = sum(l.n_captured for l in self.leaves)
        union = BitVector.zeros(self.n_samples)
        for l in self.leaves:
            union = union | l.capture
        if total != self.n_samples or union.count_ones() != self.n_samples:
            raise AssertionError("leaf captures do not partition the samples")


def sort_leaves(leaves: Sequence[Leaf],
                splittable: Sequence[bool]) -> tuple[tuple, tuple]:
    order = sorted(range(len(leaves)), key=lambda i: leaves[i].key)
    return (tuple(leaves[i] for i in order),
            tuple(splittable[i] for i in order))


def root_tree(ds: Dataset, lam: Fraction, eq: EquivalenceIndex) -> TreeState:
    """Single all-capturing splittable leaf; objective = minority fraction."""
    leaf = make_leaf([], ds, eq, lam)
    return TreeState(leaves=(leaf,), splittable=(True,), h=0,
                     n_samples=ds.n_samples, lam=lam)


def objective(tree: TreeState, lam: Fraction) -> Fraction:
    """From-scratch objective: all leaves' mistakes plus the leaf penalty."""
    err = sum(l.mistakes for l in tree.leaves)
    return Fraction(err, tree.n_samples) + lam * tree.h
