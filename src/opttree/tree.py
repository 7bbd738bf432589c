"""Leaf and tree value types with exact objective arithmetic.

The objective of a tree is (misclassified fraction) + lam * (leaf count),
with the convention that the root-only tree has an effective leaf count of
zero, so its objective is just the minority-class fraction.  The lower
bound counts only the mistakes of unchanged leaves, which is valid for
every descendant because unchanged leaves are never split again.

A tree keeps its bounds as integers scaled by N*q (lam = p/q); the search
compares those integers and ``lower_bound`` and ``objective`` turn them
into exact rationals.  ``TreeState(...)`` sums them over its leaves; a
child's sums are its parent's adjusted for the leaves that changed
(``TreeState.child_sums``), so its cost does not grow with the leaf count,
and the search compares them with the incumbent before it builds the
child with ``TreeState.derived``.  The module-level ``objective``
recomputes a tree's objective from its leaves alone, as an independent
reference.

A leaf's capture is a set of row classes (see ``dataset``): an int with
one bit per class, not per sample, so on data with few distinct rows it
is short whatever the sample count.  A leaf keeps counts, not its
capture: the capture is rebuilt from the leaf's clauses and the class
columns when the leaf is first split, so only split leaves hold one.
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

    A leaf keeps the counts the search reads (support, correct, mistakes,
    equivalent-points floor), each a weighted count of its capture, the
    set of row classes it holds.  It does not keep the capture itself:
    ``capture`` is rebuilt from the class columns of its clauses the
    first time it is read and kept from then on.  The search reads it
    only to split the leaf, so only leaves that get split hold one.

    Immutable.  What the search works out about splitting a leaf (its dead
    features, its split table) depends on the run's lam and toggles, so
    the run keeps it (see ``search``), not the leaf, which may outlive it.
    """

    __slots__ = ("clauses", "ds", "eq", "_capture", "n_captured",
                 "n_correct", "prediction", "mistakes", "b0_count", "dead")

    def __init__(self, clauses: LeafKey, capture: int, ds: Dataset,
                 eq: EquivalenceIndex, lam: Fraction):
        self.clauses = clauses
        self.ds = ds
        self.eq = eq
        self._capture: Optional[int] = None
        self.n_captured = weighted_count(capture, eq.size_planes)
        ones = weighted_count(capture, eq.one_planes)
        zeros = self.n_captured - ones
        # tie -> predict 0; the mistake count is unaffected
        if ones > zeros:
            self.prediction = 1
            self.n_correct = ones
        else:
            self.prediction = 0
            self.n_correct = zeros
        self.mistakes = self.n_captured - self.n_correct
        self.b0_count = weighted_count(capture, eq.minority_planes)
        # support below 2*lam means this leaf may never be split
        self.dead = self.n_captured * lam.denominator \
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


def make_leaf(clauses: Sequence[Clause], ds: Dataset, eq: EquivalenceIndex,
              lam: Fraction) -> Leaf:
    """Build a leaf from scratch."""
    key = canonical_clauses(list(clauses))
    return Leaf(key, and_clauses(eq, eq.all_classes, key), ds, eq, lam)


def child_key(leaf: Leaf, feature: int, polarity: bool) -> LeafKey:
    """Key of ``leaf`` extended by one literal on a feature it does not
    use: the clause is inserted at its place in the feature order."""
    clauses = leaf.clauses
    i = bisect_left(clauses, feature, key=_feature)
    if i < len(clauses) and clauses[i].feature == feature:
        raise ValueError(f"feature {feature} already in leaf clauses")
    return clauses[:i] + (Clause(feature, polarity),) + clauses[i:]


def make_child_leaf(parent_capture: int, feature: int, polarity: bool,
                    key: LeafKey, ds: Dataset, eq: EquivalenceIndex,
                    lam: Fraction) -> Leaf:
    """Extend a leaf by one literal.

    ``parent_capture`` is the parent's ``capture``, its set of row
    classes, which the search reads once per expansion; the child's
    capture is that ANDed with the literal's class column, and the child
    keeps only its counts.  ``key`` must be
    ``child_key(parent, feature, polarity)``: the search builds it once,
    for the leaf-cache lookup, and hands it over on a miss.
    """
    return Leaf(key, and_literal(eq, parent_capture, feature, polarity),
                ds, eq, lam)


# A pair of sibling leaves produced by a gain-deficient split; retiring
# both unsplit is forbidden (at least one must be split further).  The
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
    ``q`` and ``pn`` (p*N) are kept as plain ints for ``child_sums``.
    """

    leaves: tuple[Leaf, ...]          # canonically ordered by leaf key
    splittable: tuple[bool, ...]
    h: int
    n_samples: int
    lam: Fraction
    must_split_pairs: MustSplitPairs = frozenset()
    generation: int = 0
    scale: int = field(init=False, repr=False)
    q: int = field(init=False, repr=False)
    pn: int = field(init=False, repr=False)
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
        self.q = q = self.lam.denominator
        self.pn = self.lam.numerator * self.n_samples
        self.scale = self.n_samples * q
        self.b_s = q * err_unchanged + self.pn * self.h
        self.r_s = self.b_s + q * err_splittable
        self.b0_s = q * b0
        self.unchanged_capture = capture

    def child_sums(self, h: int, removed: Leaf,
                   added: Sequence[tuple[Leaf, bool]]) -> tuple[int, ...]:
        """The scaled sums ``(b_s, r_s, b0_s, unchanged_capture)`` of a tree
        made from this one by taking out its splittable leaf ``removed``
        and putting in the (leaf, splittable) pairs ``added``, with
        penalized leaf count ``h``.

        They are this tree's sums adjusted for those leaves alone, so a
        child costs O(1) however many leaves it has: a split adds the two
        new leaves, a retire puts ``removed`` back unchanged.  The search
        prices a child with them before it builds it.
        """
        q = self.q
        b_s = self.b_s + self.pn * (h - self.h)
        # every leaf's mistakes count in the objective, whatever its flag
        r_s = self.r_s + (b_s - self.b_s) - q * removed.mistakes
        b0_s = self.b0_s - q * removed.b0_count
        capture = self.unchanged_capture
        for leaf, s in added:
            r_s += q * leaf.mistakes
            if s:
                b0_s += q * leaf.b0_count
            else:
                b_s += q * leaf.mistakes
                capture += leaf.n_captured
        return b_s, r_s, b0_s, capture

    @classmethod
    def derived(cls, parent: TreeState, leaves: tuple[Leaf, ...],
                splittable: tuple[bool, ...], h: int,
                must_split_pairs: MustSplitPairs, generation: int,
                sums: tuple[int, ...]) -> TreeState:
        """A child of ``parent`` with the given leaves and flags, in
        canonical order, and the sums ``parent.child_sums`` gave it."""
        tree = cls.__new__(cls)
        tree.leaves = leaves
        tree.splittable = splittable
        tree.h = h
        tree.n_samples = parent.n_samples
        tree.lam = parent.lam
        tree.must_split_pairs = must_split_pairs
        tree.generation = generation
        tree.scale = parent.scale
        tree.q = parent.q
        tree.pn = parent.pn
        tree.b_s, tree.r_s, tree.b0_s, tree.unchanged_capture = sums
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
