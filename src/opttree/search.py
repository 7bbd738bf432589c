"""Branch-and-bound driver: child generation, pruning, certification.

One designated leaf (the canonically first splittable, non-dead one) is
split per expansion; a "retire" move reflags it unchanged instead.  Every
reachable leaf-set/partition state is produced by induction on these moves,
and the tree cache absorbs order duplicates.

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
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .bounds import BoundToggles, cumulative_perm, floor_log10
from .caches import CacheLimitError, LeafCache, TreeCache, tree_key
from .dataset import Dataset, EquivalenceIndex, build_equivalence_index
from .scheduler import Policy, SearchQueue
# sort_leaves is no longer called here; it stays a module global because
# perfbench/tracing.py wraps it as the tree layer's sorting span
from .tree import (Clause, Leaf, TreeState, make_child_leaf, root_tree,
                   sort_leaves)  # noqa: F401


_feature = attrgetter("feature")


@dataclass
class SearchConfig:
    lam: Fraction
    policy: Policy = Policy.CURIOSITY
    toggles: BoundToggles = field(default_factory=BoundToggles)
    warm_start: bool = True
    time_limit: Optional[float] = None
    max_trees: Optional[int] = None
    max_cache_entries: Optional[int] = None
    trace_interval: int = 1000

    def validate(self) -> None:
        if self.lam <= 0:
            raise ValueError(
                "lam must be positive: lam = 0 admits trees with up to 2^M "
                "leaves and the leaf-count bounds degenerate")
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
    duplicates_skipped: int = 0
    similar_support_skips: int = 0
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
        self.leaf_cache = LeafCache(max_entries=config.max_cache_entries)
        self.tree_cache = TreeCache(max_entries=config.max_cache_entries)
        self.queue = SearchQueue(config.policy, ds)
        self.stats = SearchStats()
        self.trace: list[TraceRecord] = []
        self.generation = 0
        self.best_s = 0
        self.best_obj = Fraction(0)
        self.best_tree: Optional[TreeState] = None

    # -- gates ------------------------------------------------------------

    def _push_gate(self, b_s: int, b0_s: int) -> bool:
        """True if a tree with these scaled bounds may still lead to an
        improvement and belongs in the queue."""
        if b_s >= self.best_s:
            return False
        margin = self.lam_s if self.toggles.lookahead else 0
        if self.toggles.lookahead and b_s + self.lam_s >= self.best_s:
            return False
        if self.toggles.equivalent_points and b_s + b0_s + margin >= self.best_s:
            return False
        return True

    def _is_live(self, tree: TreeState) -> bool:
        return self._push_gate(tree.b_s, tree.b0_s)

    def _expandable_index(self, tree: TreeState) -> Optional[int]:
        for i, (leaf, s) in enumerate(zip(tree.leaves, tree.splittable)):
            if s and (not self.toggles.node_support or not leaf.dead):
                return i
        return None

    def _next_gen(self) -> int:
        self.generation += 1
        return self.generation

    # -- best tracking ---------------------------------------------------

    def _evaluate(self, child: TreeState) -> bool:
        """Count a new child as evaluated unless the hierarchical bound or
        the permutation cache rejects it."""
        if child.b_s >= self.best_s:
            return False
        if self.toggles.permutation_cache and self.tree_cache.seen_or_mark(
                tree_key(child), child.b_s):
            self.stats.duplicates_skipped += 1
            return False
        self.stats.trees_evaluated += 1
        return True

    def _consider_best(self, tree: TreeState) -> None:
        if tree.r_s < self.best_s:
            self.best_s = tree.r_s
            self.best_obj = tree.objective
            self.best_tree = tree
            self.stats.trees_to_optimum = self.stats.trees_evaluated
            self.stats.time_to_optimum = time.perf_counter() - self._t0
            margin = self.lam_s if self.toggles.lookahead else 0
            self.stats.tree_cache_purged += \
                self.tree_cache.garbage_collect(self.best_s, margin)

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
        leaf = tree.leaves[idx]
        out: list[TreeState] = []

        retire = self._make_retire_child(tree, idx)
        if retire is not None:
            out.append(retire)

        # the remaining leaves stay in canonical order; each split's two
        # leaves are inserted at their places below
        others = tree.leaves[:idx] + tree.leaves[idx + 1:]
        other_flags = tree.splittable[:idx] + tree.splittable[idx + 1:]
        other_keys = [l.clauses for l in others]
        child_h = 2 if tree.h == 0 else tree.h + 1
        used = {c.feature for c in leaf.clauses}

        # similar-support memory: floors of feature splits already proven
        # hopeless, compared pairwise against new candidates via omega
        rejected_floors: list[tuple[int, object]] = []

        for f in range(self.ds.n_features):
            if f in used:
                continue
            if self.toggles.leaf_accuracy and f in leaf.dead_features:
                continue
            c1 = self.leaf_cache.intern(
                self._child_key(leaf, f, False),
                lambda: make_child_leaf(leaf, f, False, self.ds, self.eq,
                                        self.lam))
            c2 = self.leaf_cache.intern(
                self._child_key(leaf, f, True),
                lambda: make_child_leaf(leaf, f, True, self.ds, self.eq,
                                        self.lam))
            # a split capturing nothing (or everything) on one side can
            # never help; cache the rejection on the leaf
            if c1.n_captured == 0 or c2.n_captured == 0:
                leaf.dead_features.add(f)
                continue
            # leaf accuracy: every leaf of an optimal tree classifies at
            # least lam*N samples correctly
            if self.toggles.leaf_accuracy and (
                    self.q * c1.n_correct < self.lam_s
                    or self.q * c2.n_correct < self.lam_s):
                leaf.dead_features.add(f)
                continue

            if self.toggles.similar_support and self._similar_skip(
                    c1, rejected_floors):
                self.stats.similar_support_skips += 1
                continue

            # incremental accuracy: a split gaining less than lam may not
            # leave both children unchanged
            gain_s = self.q * (c1.n_correct + c2.n_correct - leaf.n_correct)
            must_split = (self.toggles.incremental_accuracy
                          and gain_s < self.lam_s)
            base_pairs = frozenset(
                p for p in tree.must_split_pairs if leaf.key not in p)
            if must_split:
                base_pairs = base_pairs | {frozenset((c1.key, c2.key))}

            j1 = bisect_left(other_keys, c1.clauses)
            j2 = bisect_left(other_keys, c2.clauses, j1)
            leaves = others[:j1] + (c1,) + others[j1:j2] + (c2,) + others[j2:]
            emitted_any = False
            min_floor_s: Optional[int] = None
            for s1 in (False, True):
                if s1 and self.toggles.node_support and c1.dead:
                    continue
                for s2 in (False, True):
                    if s2 and self.toggles.node_support and c2.dead:
                        continue
                    if must_split and not s1 and not s2:
                        continue
                    flags = other_flags[:j1] + (s1,) + other_flags[j1:j2] \
                        + (s2,) + other_flags[j2:]
                    child = TreeState(leaves=leaves, splittable=flags,
                                      h=child_h, n_samples=self.n,
                                      lam=self.lam,
                                      must_split_pairs=base_pairs,
                                      generation=self._next_gen())
                    floor_s = child.b_s + child.b0_s
                    if min_floor_s is None or floor_s < min_floor_s:
                        min_floor_s = floor_s
                    if self._evaluate(child):
                        emitted_any = True
                        self._consider_best(child)
                        out.append(child)
            if self.toggles.similar_support and not emitted_any \
                    and min_floor_s is not None:
                rejected_floors.append((min_floor_s, c1.capture))
        # the incumbent only improves, so one gate at the end keeps exactly
        # the children that every earlier gate would have kept
        return [c for c in out
                if self._is_live(c) and self._expandable_index(c) is not None]

    def _child_key(self, leaf: Leaf, f: int, polarity: bool):
        clauses = leaf.clauses
        i = bisect_left(clauses, f, key=_feature)
        return clauses[:i] + (Clause(f, polarity),) + clauses[i:]

    def _similar_skip(self, c1: Leaf, rejected_floors) -> bool:
        """Prune a candidate split whose companion (same shape, different
        feature) is provably hopeless beyond the omega margin."""
        for floor_s, capture in rejected_floors:
            omega_s = self.q * (c1.capture ^ capture).count_ones()
            if floor_s >= self.best_s + omega_s:
                return True
        return False

    def _make_retire_child(self, tree: TreeState,
                           idx: int) -> Optional[TreeState]:
        leaf = tree.leaves[idx]
        # a gain-deficient sibling pair may not end with both unchanged
        for pair in tree.must_split_pairs:
            if leaf.key in pair:
                (other_key,) = pair - {leaf.key}
                for l, s in zip(tree.leaves, tree.splittable):
                    if l.key == other_key and not s:
                        return None
        flags = tuple(s if i != idx else False
                      for i, s in enumerate(tree.splittable))
        child = replace(tree, splittable=flags, generation=self._next_gen())
        # same leaf set, same objective as the parent: no best update
        return child if self._evaluate(child) else None

    # -- main loop ---------------------------------------------------------

    def run(self) -> SearchResult:
        root = replace(root_tree(self.ds, self.lam, self.eq),
                       generation=self._next_gen())
        self.leaf_cache.intern(root.leaves[0].key, lambda: root.leaves[0])
        self.best_tree = root
        self.best_obj = root.objective
        self.best_s = root.r_s
        self.stats.trees_evaluated = 1

        if self.config.warm_start:
            from .greedy import GreedyParams, greedy_fit
            seed = greedy_fit(self.ds, GreedyParams.default(self.lam,
                                                            self.ds),
                              self.lam, eq=self.eq)
            if seed.r_s < self.best_s:
                self.best_s = seed.r_s
                self.best_obj = seed.objective
                self.best_tree = seed

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
        # 3^M - L unused leaves, in any order
        pool = 3 ** self.ds.n_features
        min_tree = None
        remaining = 0
        size = 0
        for tree in self.queue.trees():
            size += 1
            b_s = tree.b_s
            if min_tree is None or b_s < min_tree.b_s:
                min_tree = tree
            slots = pool - len(tree.leaves)
            f = 0
            if self.best_s > b_s:
                f = min((self.best_s - b_s) // self.lam_s, slots)
            remaining += cumulative_perm(slots, f)
        self.trace.append(TraceRecord(
            elapsed_s=time.perf_counter() - self._t0,
            trees_evaluated=self.stats.trees_evaluated,
            best_objective=self.best_obj,
            min_queue_lower_bound=None if min_tree is None
            else min_tree.lower_bound,
            queue_size=size,
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
