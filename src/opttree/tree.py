"""Leaf and tree value types with exact objective arithmetic.

The objective of a tree is (misclassified fraction) + lam * (leaf count),
with the convention that the root-only tree has an effective leaf count of
zero, so its objective is just the minority-class fraction.  A tree is
its unchanged leaves and the leaves still to split, over its dataset;
lam and N belong to the objective, not to the tree.  The lower bound
counts only the mistakes of unchanged leaves, which is valid for every
descendant because unchanged leaves are never split again.

Bounds are integers scaled by N*q (lam = p/q), and the search compares
those integers.  ``as_entry`` is the one from-scratch sum of them over a
tree's leaves: the search takes it for the root, and ``objective`` reads
a tree's objective from it.  The search prices every other tree from its
parent's sums, adjusted for the leaf it splits and the two it adds, so a
child's cost does not grow with the leaf count, and queues a child the
incumbent does not reject as one entry, those sums and what builds it:
the only record of a tree not yet expanded.  ``build_tree`` makes the
tree when the search expands the entry or returns it as the result.

A leaf's capture is a set of row classes (see ``dataset``): an int with
one bit per class, not per sample, so on data with few distinct rows it
is short whatever the sample count.  A leaf keeps counts, not its
capture; the search rebuilds a capture from the leaf's clauses and the
class columns (``and_clauses``) when it first splits the leaf.  The two
children of a leaf on one feature partition its classes, and every
count adds over classes, so only the negative child is counted from the
capture (``make_child_leaf``): the positive one is the parent's counts
minus the negative one's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Sequence

from .dataset import Dataset, EquivalenceIndex, and_literal, weighted_count


class Clause(NamedTuple):
    feature: int
    polarity: bool


LeafKey = tuple[Clause, ...]  # clauses sorted by feature index

_clauses = attrgetter("clauses")


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
    capture, the set of row classes it holds.  It keeps neither that
    capture nor anything of a search: whether it may be split, its
    capture and its feasible splits are the run's, which knows the leaf
    penalty and the toggles (see ``search``): with equivalent points off
    its floor ``b0_count`` is 0.  Immutable, and shared by every tree of
    a search that holds it.
    """

    __slots__ = ("clauses", "n_captured", "n_ones", "n_correct",
                 "prediction", "mistakes", "b0_count")

    def __init__(self, clauses: LeafKey, n_captured: int, ones: int,
                 b0_count: int):
        self.clauses = clauses
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


def _counted(key: LeafKey, capture: int, eq: EquivalenceIndex) -> Leaf:
    """The leaf ``key`` that captures the row classes ``capture``."""
    return Leaf(key, weighted_count(capture, eq.size_planes),
                weighted_count(capture, eq.one_planes),
                weighted_count(capture, eq.minority_planes))


def make_leaf(clauses: Sequence[Clause], eq: EquivalenceIndex) -> Leaf:
    """Build a leaf from scratch."""
    key = canonical_clauses(list(clauses))
    return _counted(key, and_clauses(eq, eq.all_classes, key), eq)


def make_child_leaf(key: LeafKey, parent_capture: int, feature: int,
                    eq: EquivalenceIndex) -> Leaf:
    """The leaf ``key``, its parent's key with the negative literal on
    ``feature`` added: ``parent_capture``, the parent's row classes, ANDed
    with that literal's class column, of which the leaf keeps only the
    counts."""
    return _counted(key, and_literal(eq, parent_capture, feature, False),
                    eq)


@dataclass(slots=True)
class TreeState:
    """A tree as its unchanged leaves and its leaves still to split (the
    paper's d_un and d_split), each in canonical (leaf-key) order, so the
    leaf an expansion splits is ``split[0]``, over the dataset ``ds``
    whose samples the leaves partition.

    A tree stores no sums: ``as_entry`` takes them over its leaves.
    """

    unchanged: tuple[Leaf, ...]
    split: tuple[Leaf, ...]
    ds: Dataset = field(repr=False, compare=False)

    @property
    def leaves(self) -> tuple[Leaf, ...]:
        """Every leaf, unchanged or split, in canonical order."""
        return sort_leaves(self.unchanged + self.split)

    @property
    def h(self) -> int:
        return penalized_leaves(len(self.unchanged) + len(self.split))

    def check_partition(self) -> None:
        """Debug invariant: the leaves' captures, recounted per sample
        from their clauses and the columns of the tree's dataset,
        partition the samples and match the kept counts."""
        ds = self.ds
        total = union = 0
        for l in self.leaves:
            capture = and_clauses(ds, ds.all_samples, l.clauses)
            if capture.bit_count() != l.n_captured:
                raise AssertionError(f"{l!r} does not capture its count")
            total += l.n_captured
            union |= capture
        if total != ds.n_samples or union.bit_count() != ds.n_samples:
            raise AssertionError("leaf captures do not partition the samples")


def penalized_leaves(n_leaves: int) -> int:
    """The penalized leaf count h of a tree with ``n_leaves`` leaves: 0 for
    the root-only tree, the leaf count for any split tree."""
    return 0 if n_leaves == 1 else n_leaves


# A queue entry is a plain tuple: the sums the search prices a tree with,
# read at these indices, then the parent, the two new leaves that split its
# ``split[0]`` and their flags (true: kept to split), or, from ``as_entry``,
# a built tree, no new leaves and false flags
B_S, B0_S, R_S, UNCHANGED_CAPTURE, N_LEAVES = range(5)


def as_entry(tree: TreeState, lam: Fraction) -> tuple:
    """The queue entry of a built tree, in a child entry's shape: its
    sums taken from scratch over its leaves, then the tree, no new leaves
    and false flags.  With lam = p/q over N samples, a value e/N + lam*H
    is scaled to e*q + H*p*N: ``B_S`` is the lower bound (unchanged
    mistakes plus the leaf penalty), ``R_S`` the objective, ``B0_S`` the
    equivalent-points floor under the leaves to split, and
    ``UNCHANGED_CAPTURE`` the samples the unchanged leaves hold."""
    q = lam.denominator
    b_s = q * sum(l.mistakes for l in tree.unchanged) \
        + lam.numerator * tree.ds.n_samples * tree.h
    return (b_s, q * sum(l.b0_count for l in tree.split),
            b_s + q * sum(l.mistakes for l in tree.split),
            sum(l.n_captured for l in tree.unchanged),
            len(tree.unchanged) + len(tree.split),
            tree, None, None, False, False)


def _inserted(leaves: tuple[Leaf, ...], leaf: Leaf) -> tuple[Leaf, ...]:
    """``leaves``, in canonical order, with ``leaf`` in its place."""
    j = bisect_left(leaves, leaf.clauses, key=_clauses)
    return leaves[:j] + (leaf,) + leaves[j:]


def build_tree(entry: tuple) -> TreeState:
    """The tree a queue entry stands for.  A child's two new leaves are
    inserted into its parent's unchanged leaves and the split leaves after
    ``split[0]``, which stay in canonical order, with ``bisect``, so
    nothing sorts."""
    parent, c1, c2, s1, s2 = entry[5:]
    if c1 is None:
        return parent
    unchanged, split = parent.unchanged, parent.split[1:]
    for leaf, s in ((c1, s1), (c2, s2)):
        if s:
            split = _inserted(split, leaf)
        else:
            unchanged = _inserted(unchanged, leaf)
    return TreeState(unchanged, split, parent.ds)


def sort_leaves(leaves: Sequence[Leaf]) -> tuple[Leaf, ...]:
    """``leaves`` in canonical (leaf-key) order."""
    return tuple(sorted(leaves, key=_clauses))


def root_tree(ds: Dataset, eq: EquivalenceIndex) -> TreeState:
    """Single all-capturing leaf to split; objective = minority fraction."""
    return TreeState(unchanged=(), split=(make_leaf([], eq),), ds=ds)


def objective(tree: TreeState, lam: Fraction) -> Fraction:
    """A tree's objective under lam: all leaves' mistakes over N plus the
    leaf penalty, the ``R_S`` sum of ``as_entry``."""
    return Fraction(as_entry(tree, lam)[R_S],
                    tree.ds.n_samples * lam.denominator)
