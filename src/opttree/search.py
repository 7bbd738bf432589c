"""Branch-and-bound driver: child generation, pruning, certification.

One designated leaf (the canonically first splittable one that node
support leaves open) is split per expansion, and its two new leaves take
every unchanged/splittable flag pair the bounds allow (``_FLAG_PAIRS``).  Nothing reflags
a leaf: by induction on the splits, a tree with a splittable leaf flagged
unchanged is made by the same splits with that leaf created unchanged.
So every reachable (leaves, flags) state is built once per split order
that reaches it, and the tree cache absorbs those order duplicates.

Every comparison the loop makes is an integer comparison: with lam = p/q
over N samples, a value e/N + lam*H scales to e*q + H*p*N.  Each tree
carries its scaled lower bound, objective and equivalent-points floor
(``b_s``, ``r_s``, ``b0_s``), summed once when it is built.  The pruning
gates, the heap keys (see ``scheduler``), the tree cache and its purge all
compare these integers, which order exactly as the rationals they scale;
``Fraction`` appears only in what a run reports (incumbent objective,
trace records, gap).

Leaves stay in canonical (leaf-key) order by construction: a child's two
new leaves are inserted into the parent's ordered remaining leaves with
``bisect``, and a new clause into its leaf's feature-ordered clauses, so
nothing in the loop sorts.

The work per child grows with neither the queue nor the tree.  Child
leaves are interned, so the permutation cache keys a tree on the leaf and
flag tuples it already holds (see ``caches``), and a leaf's key is built
once, for the lookup, and handed to ``make_child_leaf`` on a miss.  A
child is priced before it is built: every child of an expansion starts
from one base, the parent's sums less the designated leaf plus the new
leaf penalty, and adds what its two new leaves bring under their flags.  A
price at or above the incumbent is dropped there, and only the rest get
flags, leaves and a ``TreeState``.  The run's one liveness gate
(``_Run._is_live``) alone decides whether a built child is queued.  A trace
record sums the remaining-evaluations bound over the queue's (``b_s``,
leaf count) buckets rather than over its trees; only ``_finish`` scans the
heap, once per fit, to find the least live bound behind the gap.

An expansion costs what is new about its tree, not what is known about
its designated leaf.  Which features may split a leaf, its two children
on each and the flags that node support and incremental accuracy allow
them depend only on the leaf, the data, lam and the toggles.  The first
expansion of a leaf works them all out, checking every unused feature,
before it builds any child tree, and the run keeps them with the leaf's
capture as the leaf's split table (``_Run.split_tables``, by leaf
identity); later expansions of the leaf walk the table without a
leaf-cache lookup or a check.  Node support is read from counts and the
run's lam, never from the leaf, so a leaf means the same in every run.
Only similar support, which reads the incumbent, is decided per
expansion.

The search works on row classes, not samples.  The run groups the
samples by feature vector once (``build_equivalence_index``), and a
capture is a non-negative int with one bit per class; a count over it is
a weighted popcount of the index's count planes (``weighted_count``).
Leaves keep counts, not captures.  A leaf's split table rebuilds its
capture from its clauses (``and_clauses``) and hands it to
``make_child_leaf``, which ANDs in one class column and keeps only the
child's counts; so the run holds a capture only for leaves it has split.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bounds import BoundToggles, cumulative_perm, floor_log10
from .caches import CacheLimitError, LeafCache, TreeCache, tree_key
from .dataset import (Dataset, EquivalenceIndex, and_literal,
                      build_equivalence_index, weighted_count)
from .scheduler import Policy, SearchQueue
# sort_leaves is no longer called here; it stays a module global because
# perfbench/tracing.py wraps it as the tree layer's sorting span
from .tree import (Leaf, TreeState, and_clauses, child_keys, make_child_leaf,
                   root_tree, sort_leaves)  # noqa: F401

# the (s1, s2) flag pairs a split's children may take, in the order they
# are tried, by (c1 may be splittable, c2 may be splittable, must split)
_FLAG_PAIRS = {
    (open1, open2, must_split): tuple(
        (s1, s2) for s1 in (False, True) if open1 or not s1
        for s2 in (False, True) if (open2 or not s2)
        and (s1 or s2 or not must_split))
    for open1 in (False, True) for open2 in (False, True)
    for must_split in (False, True)}


@dataclass
class SearchConfig:
    lam: Fraction
    policy: Policy = Policy.CURIOSITY
    toggles: BoundToggles = field(default_factory=BoundToggles)
    time_limit: Optional[float] = None
    max_trees: Optional[int] = None
    max_cache_entries: Optional[int] = None
    trace_interval: int = 1000

    def validate(self) -> None:
        # the search scales by lam's numerator and denominator
        if not isinstance(self.lam, (int, Fraction)):
            raise ValueError("lam must be an int or Fraction, not "
                             f"{type(self.lam).__name__}")
        if self.lam <= 0:
            raise ValueError(
                "lam must be positive: lam = 0 admits trees with up to 2^M "
                "leaves and the leaf-count bounds degenerate")
        # `not >= 0` rejects NaN as well as negative values
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be >= 0 seconds")
        if self.max_trees is not None and self.max_trees < 0:
            raise ValueError("max_trees must be >= 0")
        if self.trace_interval < 1:
            raise ValueError("trace_interval must be >= 1")
        if self.max_cache_entries is not None and self.max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")


@dataclass
class TraceRecord:
    elapsed_s: float
    trees_evaluated: int
    best_objective: Fraction
    min_queue_lower_bound: Optional[Fraction]
    queue_size: int
    log10_remaining_bound: Optional[int]
    remaining_bound: int = 0  # exact big-integer value behind the log10


@dataclass
class SearchStats:
    trees_evaluated: int = 0
    trees_to_optimum: int = 0
    time_to_optimum: float = 0.0
    total_time: float = 0.0
    max_queue_size: int = 0
    leaf_cache_size: int = 0
    leaf_cache_hits: int = 0
    tree_cache_size: int = 0
    tree_cache_purged: int = 0
    # trees the permutation cache dropped: reached by a second split order
    duplicates_skipped: int = 0
    similar_support_skips: int = 0
    expansions: int = 0     # trees expanded
    split_tables: int = 0   # split tables built: distinct leaves designated
    limit_hit: Optional[str] = None


@dataclass
class SearchResult:
    best_tree: TreeState
    objective: Fraction
    certified: bool
    gap: Fraction
    stats: SearchStats
    trace: list[TraceRecord]


class _Run:
    """Mutable state of one branch-and-bound execution."""

    def __init__(self, ds: Dataset, config: SearchConfig,
                 eq: Optional[EquivalenceIndex] = None):
        config.validate()
        # limits and total_time cover the whole fit, index included
        self._t0 = time.perf_counter()
        self.ds = ds
        self.config = config
        self.eq = eq if eq is not None else build_equivalence_index(ds)
        self.lam = config.lam
        self.n = ds.n_samples
        # integer scaling: value v = e/N + lam*H  <->  e*q + H*p*N
        self.q = self.lam.denominator
        self.lam_s = self.lam.numerator * self.n
        self.toggles = config.toggles
        # node support: a leaf holding less than 2*lam of the samples may
        # never be split (q*n_captured >= support_s keeps it open)
        self.support_s = 2 * self.lam_s if self.toggles.node_support else 0
        self.leaf_cache = LeafCache(max_entries=config.max_cache_entries)
        self.tree_cache = TreeCache(max_entries=config.max_cache_entries)
        self.queue = SearchQueue(config.policy, ds)
        self.stats = SearchStats()
        self.trace: list[TraceRecord] = []
        self.best_s = 0
        self.best_obj = Fraction(0)
        self.best_tree: Optional[TreeState] = None
        # each designated leaf's capture and feasible splits, by leaf
        # identity; kept by the run, since the splits depend on its lam
        # and toggles and a leaf may outlive it
        self.split_tables: dict[Leaf, tuple[int, list]] = {}
        # lookahead: a tree's children pay at least one more leaf penalty
        self.margin_s = self.lam_s if self.toggles.lookahead else 0
        self._is_live = self._liveness_gate()

    # -- gates ------------------------------------------------------------

    def _liveness_gate(self):
        """The run's one test that a tree may still lead to an improvement
        and belongs in the queue: its bound, plus the lookahead margin and
        (when that bound is on) its equivalent-points floor, is below the
        incumbent.  The margin and the floor are never negative, so this
        implies the hierarchical bound."""
        margin = self.margin_s
        if self.toggles.equivalent_points:
            def is_live(tree: TreeState) -> bool:
                return tree.b_s + tree.b0_s + margin < self.best_s
        else:
            def is_live(tree: TreeState) -> bool:
                return tree.b_s + margin < self.best_s
        return is_live

    def _expandable_index(self, tree: TreeState) -> Optional[int]:
        """The designated leaf: the first splittable one that node support
        leaves open."""
        for i, (leaf, s) in enumerate(zip(tree.leaves, tree.splittable)):
            if s and self.q * leaf.n_captured >= self.support_s:
                return i
        return None

    # -- best tracking ---------------------------------------------------

    def _evaluate(self, child: TreeState) -> bool:
        """Count a new child as evaluated unless the permutation cache
        rejects it.  The caller has already applied the hierarchical bound
        (``b_s < best_s``) to the child's price."""
        if self.toggles.permutation_cache and self.tree_cache.seen_or_mark(
                tree_key(child), child.b_s):
            self.stats.duplicates_skipped += 1
            return False
        self.stats.trees_evaluated += 1
        return True

    def _set_best(self, tree: TreeState) -> None:
        """Make ``tree``, whose objective beats the incumbent, the new
        incumbent."""
        self.best_s = tree.r_s
        self.best_obj = tree.objective
        self.best_tree = tree
        self.stats.trees_to_optimum = self.stats.trees_evaluated
        self.stats.time_to_optimum = time.perf_counter() - self._t0
        self.stats.tree_cache_purged += \
            self.tree_cache.garbage_collect(self.best_s, self.margin_s)

    # -- expansion --------------------------------------------------------

    def expand(self, tree: TreeState) -> list[TreeState]:
        """Generate, score, and filter the children of a popped tree.

        Returns the children to enqueue; updates the incumbent as a side
        effect (a child's objective can improve the best even when its
        descendants are pruned).
        """
        idx = self._expandable_index(tree)
        if idx is None:
            return []
        self.stats.expansions += 1
        leaf = tree.leaves[idx]
        # the leaf's capture, from which its table built every child leaf
        # and into which similar support ANDs a literal
        capture, splits = self.split_tables.get(leaf) \
            or self._split_table(leaf)
        out: list[TreeState] = []

        # the remaining leaves stay in canonical order; each split's two
        # leaves are inserted at their places below
        others = tree.leaves[:idx] + tree.leaves[idx + 1:]
        other_flags = tree.splittable[:idx] + tree.splittable[idx + 1:]
        other_keys = [l.clauses for l in others]
        # every child's sums start from these, which take out the
        # designated leaf and add the new leaf penalty.  Its two new leaves
        # add their mistakes to r_s; an unchanged one also adds them to b_s
        # and its samples to the unchanged capture, a splittable one its
        # floor to b0_s
        q = self.q
        # a child has one leaf more than its parent and is never the root
        penalty_s = self.lam_s * (len(tree.leaves) + 1 - tree.h)
        base_b_s = tree.b_s + penalty_s
        base_r_s = tree.r_s + penalty_s - q * leaf.mistakes
        base_b0_s = tree.b0_s - q * leaf.b0_count
        similar_support = self.toggles.similar_support

        # similar-support memory: floors of feature splits already proven
        # hopeless, compared pairwise against new candidates via omega
        rejected_floors: list[tuple[int, object]] = []

        for f, c1, c2, flag_pairs in splits:
            if similar_support:
                # ANDed here rather than read from c1, which would make
                # every candidate leaf keep its capture
                capture1 = and_literal(self.eq, capture, f, False)
                if self._similar_skip(capture1, rejected_floors):
                    self.stats.similar_support_skips += 1
                    continue

            leaves = None
            emitted_any = False
            m1 = q * c1.mistakes
            m2 = q * c2.mistakes
            r_s = base_r_s + m1 + m2
            for s1, s2 in flag_pairs:
                b_s = base_b_s + (0 if s1 else m1) + (0 if s2 else m2)
                # the hierarchical bound rejects the child before anything
                # of it is built
                if b_s >= self.best_s:
                    continue
                if leaves is None:
                    j1 = bisect_left(other_keys, c1.clauses)
                    j2 = bisect_left(other_keys, c2.clauses, j1)
                    leaves = others[:j1] + (c1,) + others[j1:j2] + (c2,) \
                        + others[j2:]
                    flags0, flags1, flags2 = other_flags[:j1], \
                        other_flags[j1:j2], other_flags[j2:]
                child = TreeState.derived(
                    tree, leaves, flags0 + (s1,) + flags1 + (s2,) + flags2,
                    b_s, r_s,
                    base_b0_s + (q * c1.b0_count if s1 else 0)
                    + (q * c2.b0_count if s2 else 0),
                    tree.unchanged_capture + (0 if s1 else c1.n_captured)
                    + (0 if s2 else c2.n_captured))
                if self._evaluate(child):
                    emitted_any = True
                    if r_s < self.best_s:
                        self._set_best(child)
                    out.append(child)
            if similar_support and not emitted_any and flag_pairs:
                z1, z2 = q * c1.b0_count, q * c2.b0_count
                rejected_floors.append((base_b_s + base_b0_s + min(
                    (z1 if s1 else m1) + (z2 if s2 else m2)
                    for s1, s2 in flag_pairs), capture1))
        # the incumbent only improves, so one gate at the end keeps exactly
        # the children that every earlier gate would have kept.  It also
        # drops every child with no open leaf: node support flags no leaf
        # it closes splittable, so such a child's leaves are all unchanged,
        # its objective equals its bound, and the incumbent is as good
        return [c for c in out if self._is_live(c)]

    def _split_table(self, leaf: Leaf) -> tuple[int, list]:
        """The capture and feasible splits of ``leaf``, kept as its table.

        A split is ``(feature, c1, c2, flag_pairs)``: the interned children
        on the feature's negative and positive literal and the (s1, s2)
        flags that node support and incremental accuracy allow them (a
        split gaining less than lam may not leave both unchanged).  All of
        it depends only on the leaf, the data, lam and the toggles, so
        later expansions of the leaf walk the table.  Every unused feature
        is checked here, before the expansion builds any child tree, so a
        cache limit that stops the expansion does so before any of its
        children is evaluated, and leaves no table behind.
        """
        capture = and_clauses(self.eq, self.eq.all_classes, leaf.clauses)
        used = {c.feature for c in leaf.clauses}
        q, lam_s, support_s = self.q, self.lam_s, self.support_s
        splits = []
        for f in range(self.ds.n_features):
            if f in used:
                continue
            k1, k2 = child_keys(leaf, f)
            c1 = self.leaf_cache.intern(k1, make_child_leaf, capture, f,
                                        False, k1, self.ds, self.eq)
            # counted as the leaf's counts minus c1's
            c2 = self.leaf_cache.intern(k2, make_child_leaf, capture, f,
                                        True, k2, self.ds, self.eq, leaf, c1)
            # a split capturing nothing (or everything) on one side can
            # never help
            if c1.n_captured == 0 or c2.n_captured == 0:
                continue
            # leaf accuracy: every leaf of an optimal tree classifies at
            # least lam*N samples correctly
            if self.toggles.leaf_accuracy and (
                    q * c1.n_correct < lam_s or q * c2.n_correct < lam_s):
                continue
            # incremental accuracy: a split gaining less than lam may not
            # leave both children unchanged
            must_split = self.toggles.incremental_accuracy and q * (
                c1.n_correct + c2.n_correct - leaf.n_correct) < lam_s
            splits.append((f, c1, c2, _FLAG_PAIRS[
                q * c1.n_captured >= support_s,
                q * c2.n_captured >= support_s, must_split]))
        table = self.split_tables[leaf] = (capture, splits)
        self.stats.split_tables += 1
        return table

    def _similar_skip(self, capture1: int, rejected_floors) -> bool:
        """Prune a candidate split whose companion (same shape, different
        feature) is provably hopeless beyond the omega margin; ``capture1``
        is the candidate's negative-literal capture.  Omega, the support
        captured by exactly one side, is the size of the symmetric
        difference of the two sets of classes."""
        sizes = self.eq.size_planes
        for floor_s, capture in rejected_floors:
            omega_s = self.q * weighted_count(capture1 ^ capture, sizes)
            if floor_s >= self.best_s + omega_s:
                return True
        return False

    # -- main loop ---------------------------------------------------------

    def run(self) -> SearchResult:
        root = root_tree(self.ds, self.lam, self.eq)
        self.leaf_cache.intern(root.leaves[0].key, lambda: root.leaves[0])
        self.best_tree = root
        self.best_obj = root.objective
        self.best_s = root.r_s
        self.stats.trees_evaluated = 1
        self.tree_cache.seen_or_mark(tree_key(root), root.b_s)
        if self._is_live(root) and self._expandable_index(root) is not None:
            self.queue.push(root)

        next_trace = self.config.trace_interval
        # limits are checked before every expansion, and only while work
        # is left: a search that has run out of trees stays certified
        while len(self.queue) and not self._limit_tripped():
            tree = self.queue.pop(self._is_live)
            if tree is None:
                break
            try:
                children = self.expand(tree)
            except CacheLimitError as exc:
                # the unfinished subtree is still uncovered: requeue its
                # root so that its bound enters the gap
                self.stats.limit_hit = str(exc)
                self.queue.push(tree)
                break
            for child in children:
                self.queue.push(child)
            if self.stats.trees_evaluated >= next_trace:
                next_trace += self.config.trace_interval
                self._record_trace()

        self._record_trace()
        return self._finish()

    def _limit_tripped(self) -> bool:
        if self.config.time_limit is not None \
                and time.perf_counter() - self._t0 >= self.config.time_limit:
            self.stats.limit_hit = "time_limit"
            return True
        if self.config.max_trees is not None \
                and self.stats.trees_evaluated >= self.config.max_trees:
            self.stats.limit_hit = "max_trees"
            return True
        return False

    def _record_trace(self) -> None:
        # remaining-evaluations bound: a queued tree with lower bound b and
        # L leaves may still add up to f = floor((best - b) / lam) of the
        # 3^M - L unused leaves, in any order.  Both terms depend on the
        # tree only through (b_s, L), so the sum runs over the queue's
        # buckets of that pair, stale entries included.
        pool = 3 ** self.ds.n_features
        remaining = 0
        for (b_s, n_leaves), count in self.queue.buckets.items():
            slots = pool - n_leaves
            f = 0
            if self.best_s > b_s:
                f = min((self.best_s - b_s) // self.lam_s, slots)
            remaining += count * cumulative_perm(slots, f)
        min_b_s = min((b_s for b_s, _ in self.queue.buckets), default=None)
        self.trace.append(TraceRecord(
            elapsed_s=time.perf_counter() - self._t0,
            trees_evaluated=self.stats.trees_evaluated,
            best_objective=self.best_obj,
            min_queue_lower_bound=None if min_b_s is None
            else Fraction(min_b_s, self.n * self.q),
            queue_size=len(self.queue),
            log10_remaining_bound=None if remaining == 0
            else floor_log10(remaining),
            remaining_bound=remaining,
        ))

    def _finish(self) -> SearchResult:
        # the live tree of least b_s; its bound is the one Fraction made
        min_tree = self.queue.min_lower_bound(self._is_live)
        # a run stopped by a limit is never certified, even with no gap
        certified = min_tree is None and self.stats.limit_hit is None
        gap = Fraction(0) if min_tree is None \
            else self.best_obj - min_tree.lower_bound
        self.stats.total_time = time.perf_counter() - self._t0
        self.stats.max_queue_size = self.queue.max_size
        self.stats.leaf_cache_size = len(self.leaf_cache)
        self.stats.leaf_cache_hits = self.leaf_cache.hits
        self.stats.tree_cache_size = len(self.tree_cache)
        return SearchResult(best_tree=self.best_tree,
                            objective=self.best_obj,
                            certified=certified, gap=gap,
                            stats=self.stats, trace=self.trace)


def fit(ds: Dataset, config: SearchConfig,
        eq: Optional[EquivalenceIndex] = None) -> SearchResult:
    """Run branch-and-bound to a certified optimum or a resource limit."""
    return _Run(ds, config, eq).run()


def expand(tree: TreeState, ds: Dataset, eq: EquivalenceIndex,
           config: SearchConfig, best: Fraction) -> list[TreeState]:
    """Stateless child generation for one tree against incumbent ``best``
    (testing surface)."""
    run = _Run(ds, config, eq)
    # integer scaled values compare with ceil(x) exactly as with x
    run.best_s = math.ceil(best * run.n * run.q)
    run.best_obj = best
    return run.expand(tree)
