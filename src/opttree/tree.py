"""Leaf and tree value types with exact objective arithmetic.

The objective of a tree is (misclassified fraction) + lam * (leaf count),
with the convention that the root-only tree has an effective leaf count of
zero, so its objective is just the minority-class fraction.  The lower
bound counts only the mistakes of unchanged leaves, which is valid for
every descendant because unchanged leaves are never split again.

A tree keeps its bounds as integers scaled by N*q (lam = p/q); the search
compares those integers and ``lower_bound`` and ``objective`` turn them
into exact rationals.  ``TreeState(...)`` sums them over its leaves; the
search prices a child from its parent's sums, adjusted for the leaf it
splits and the two it adds, so a child's cost does not grow with the
leaf count, and it builds only the children the incumbent does not
reject, with ``TreeState.derived``.  The module-level ``objective``
recomputes a tree's objective from its leaves alone, as an independent
reference.

A leaf's capture is a set of row classes (see ``dataset``): an int with
one bit per class, not per sample, so on data with few distinct rows it
is short whatever the sample count.  A leaf keeps counts, not its
capture: the capture is rebuilt from the leaf's clauses and the class
columns when the leaf is first split, so only split leaves hold one.
The two children of a leaf on one feature partition its classes, and
every count adds over classes, so ``make_child_leaf`` counts the
positive child as the parent's counts minus the negative child's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .dataset import Dataset, EquivalenceIndex, and_literal, weighted_count


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

    A leaf keeps the counts the search reads (support, ones, correct,
    mistakes, equivalent-points floor), each a weighted count of its
    capture, the set of row classes it holds.  It does not keep the
    capture itself: ``capture`` is rebuilt from the class columns of its
    clauses the first time it is read and kept from then on.  The search
    reads it only to split the leaf, so only leaves that get split hold
    one.

    Immutable.  What the search works out about splitting a leaf (its dead
    features, its split table) depends on the run's lam and toggles, so
    the run keeps it (see ``search``), not the leaf, which may outlive it.
    """

    __slots__ = ("clauses", "ds", "eq", "_capture", "n_captured", "n_ones",
                 "n_correct", "prediction", "mistakes", "b0_count", "dead")

    def __init__(self, clauses: LeafKey, n_captured: int, ones: int,
                 b0_count: int, ds: Dataset, eq: EquivalenceIndex,
                 lam: Fraction):
        self.clauses = clauses
        self.ds = ds
        self.eq = eq
        self._capture: Optional[int] = None
        self.n_captured = n_captured
        self.n_ones = ones
        zeros = n_captured - ones
        # tie -> predict 0; the mistake count is unaffected
        if ones > zeros:
            self.prediction = 1
            self.n_correct = ones
        else:
            self.prediction = 0
            self.n_correct = zeros
        self.mistakes = n_captured - self.n_correct
        self.b0_count = b0_count
        # support below 2*lam means this leaf may never be split
        self.dead = n_captured * lam.denominator \
            < 2 * lam.numerator * ds.n_samples

    @property
    def capture(self) -> int:
        """The row classes this leaf captures, built on first use and
        kept."""
        if self._capture is None:
            self._capture = and_clauses(self.eq, self.eq.all_classes,
                                        self.clauses)
        return self._capture

    @property
    def key(self) -> LeafKey:
        return self.clauses

    def __repr__(self) -> str:
        lits = ",".join(f"{'' if c.polarity else '!'}f{c.feature}"
                        for c in self.clauses) or "root"
        return (f"<Leaf {lits} n={self.n_captured} "
                f"pred={self.prediction} err={self.mistakes}>")


def and_clauses(data: Dataset | EquivalenceIndex, capture: int,
                clauses: Sequence[Clause]) -> int:
    """The members of ``capture`` (samples of a Dataset or classes of an
    EquivalenceIndex) that satisfy every clause: the AND of its literals."""
    for c in clauses:
        capture = and_literal(data, capture, c.feature, c.polarity)
    return capture


def _counted(key: LeafKey, capture: int, ds: Dataset, eq: EquivalenceIndex,
             lam: Fraction) -> Leaf:
    """The leaf ``key`` that captures the row classes ``capture``."""
    return Leaf(key, weighted_count(capture, eq.size_planes),
                weighted_count(capture, eq.one_planes),
                weighted_count(capture, eq.minority_planes), ds, eq, lam)


def make_leaf(clauses: Sequence[Clause], ds: Dataset, eq: EquivalenceIndex,
              lam: Fraction) -> Leaf:
    """Build a leaf from scratch."""
    key = canonical_clauses(list(clauses))
    return _counted(key, and_clauses(eq, eq.all_classes, key), ds, eq, lam)


def child_keys(leaf: Leaf, feature: int) -> tuple[LeafKey, LeafKey]:
    """Keys of ``leaf`` extended by the negative and by the positive
    literal on a feature it does not use: one bisect finds the clause's
    place in the feature order for both."""
    clauses = leaf.clauses
    i = bisect_left(clauses, feature, key=_feature)
    if i < len(clauses) and clauses[i].feature == feature:
        raise ValueError(f"feature {feature} already in leaf clauses")
    head, tail = clauses[:i], clauses[i:]
    return (head + (Clause(feature, False),) + tail,
            head + (Clause(feature, True),) + tail)


def make_child_leaf(parent_capture: int, feature: int, polarity: bool,
                    key: LeafKey, ds: Dataset, eq: EquivalenceIndex,
                    lam: Fraction, parent: Optional[Leaf] = None,
                    sibling: Optional[Leaf] = None) -> Leaf:
    """Extend a leaf by one literal.

    ``parent_capture`` is the parent's ``capture``, its set of row
    classes, which the search reads once per expansion; the child's
    capture is that ANDed with the literal's class column, and the child
    keeps only its counts.  ``key`` must be the literal's entry of
    ``child_keys(parent, feature)``: the search builds it once, for the
    leaf-cache lookup, and hands it over on a miss.  Given the ``parent``
    leaf and the ``sibling`` on the feature's other literal, each count is
    the parent's minus the sibling's, and no capture is read.
    """
    if sibling is not None:
        return Leaf(key, parent.n_captured - sibling.n_captured,
                    parent.n_ones - sibling.n_ones,
                    parent.b0_count - sibling.b0_count, ds, eq, lam)
    return _counted(key, and_literal(eq, parent_capture, feature, polarity),
                    ds, eq, lam)


# A pair of sibling leaves produced by a gain-deficient split; flagging
# both unchanged is forbidden (at least one must be split further).  The
# pair holds the two ``Leaf`` objects, which hash and compare by identity:
# within one search the leaf cache hands out one leaf per key.
MustSplitPairs = frozenset  # of frozenset({Leaf, Leaf})


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

    @classmethod
    def derived(cls, parent: TreeState, leaves: tuple[Leaf, ...],
                splittable: tuple[bool, ...], h: int,
                must_split_pairs: MustSplitPairs, generation: int,
                b_s: int, r_s: int, b0_s: int,
                unchanged_capture: int) -> TreeState:
        """A child of ``parent`` with the given leaves and flags, in
        canonical order, and its scaled sums, which the search priced
        from the parent's."""
        tree = cls.__new__(cls)
        tree.leaves = leaves
        tree.splittable = splittable
        tree.h = h
        tree.n_samples = parent.n_samples
        tree.lam = parent.lam
        tree.must_split_pairs = must_split_pairs
        tree.generation = generation
        tree.scale = parent.scale
        tree.b_s, tree.r_s, tree.b0_s = b_s, r_s, b0_s
        tree.unchanged_capture = unchanged_capture
        return tree

    @property
    def lower_bound(self) -> Fraction:
        return Fraction(self.b_s, self.scale)

    @property
    def objective(self) -> Fraction:
        return Fraction(self.r_s, self.scale)

    def check_partition(self) -> None:
        """Debug invariant: the leaves' captures, recounted per sample
        from their clauses and the dataset's columns, partition the
        samples and match the kept counts."""
        total = union = 0
        for l in self.leaves:
            capture = and_clauses(l.ds, l.ds.all_samples, l.clauses)
            if capture.bit_count() != l.n_captured:
                raise AssertionError(f"{l!r} does not capture its count")
            total += l.n_captured
            union |= capture
        if total != self.n_samples or union.bit_count() != self.n_samples:
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
