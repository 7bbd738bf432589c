"""Branch-and-bound driver: child generation, pruning, certification.

A tree is its unchanged leaves and its leaves still to split, each in
canonical order (see ``tree.TreeState``).  An expansion splits
``split[0]``, and its two new leaves take every unchanged/split flag
pair the bounds allow (``_FLAG_PAIRS``).  A split table keeps a new leaf
to split only when node support leaves it open, and the run checks the
root once, so every leaf to split is open.  Nothing reflags a leaf: by
induction on the splits, a tree with a leaf to split flagged unchanged
is made by the same splits with that leaf created unchanged.  So only
split order makes a duplicate: every reachable tree is priced once per
split order that reaches it, and the tree cache, which holds the trees
the search has expanded, skips the copy popped second.

Every comparison the loop makes is an integer comparison: with lam = p/q
over N samples, a value e/N + lam*H scales to e*q + H*p*N.  Each child
is priced as its scaled lower bound, objective and equivalent-points
floor (``b_s``, ``r_s``, ``b0_s``), the sums that ``tree.as_entry``
takes from scratch over its leaves.  The pruning gates, the heap keys (see
``scheduler``), the tree cache and its purge all compare these integers,
which order exactly as the rationals they scale; ``Fraction`` appears
only in what a run reports (incumbent objective, trace records, gap).

A child is its price until it is expanded.  Every child of an expansion
starts from one base, the parent's sums less the split leaf plus the new
leaf penalty, and adds what its two new leaves bring under their flags.
A price at or above the incumbent is dropped there; every other child is
evaluated and becomes one queue entry, its sums and what builds it (the
parent, the two new leaves and their flags; see ``tree.B_S``), the
only record of a tree not yet expanded, the incumbent's included
(``best_entry``).  The run's one liveness gate (``_Run._is_live``) alone
decides whether an entry is queued, and later whether a popped one is
still worth expanding.  A tree is built from its entry
(``tree.build_tree``) only when the entry is expanded and once for the
tree the fit returns, so the work per child is a few integer sums and a
heap push, whatever the queue or the tree.  A built tree's two leaf
tuples stay in canonical (leaf-key) order by construction: each new
leaf is inserted into one of them with ``bisect``, and a new clause into
its leaf's feature-ordered clauses, so nothing in the loop sorts.  Child
leaves are interned, so the permutation cache keys a tree on the two
tuples it already holds (see ``caches``).  A trace record sums the
remaining-evaluations bound over the queue's (``b_s``, leaf count)
buckets rather than over its entries; only the last, which ``_finish``
takes, scans the heap, once per fit, for the least live bound behind the
gap.

An expansion costs what is new about its tree, not what is known about
the leaf it splits.  Which features may split a leaf, its two children
on each and the flags that node support and incremental accuracy allow
them depend only on the leaf, the data, lam and the toggles.  The first
expansion of a leaf works them all out, checking every unused feature,
before it prices any child, and the run keeps the list of them as the
leaf's split table (``_Run.split_tables``, by leaf identity); later
expansions of the leaf walk the table without a leaf-cache lookup or a
check.  Node support is read from counts and the run's lam, never from
the leaf, so a leaf means the same in every run.  Only similar support,
which reads the incumbent, is decided per expansion, in one block of
``_Run.expand`` that runs only when it is on.

The search works on row classes, not samples.  The run groups the
samples by feature vector once (``build_equivalence_index``), and a
capture is a non-negative int with one bit per class; a count over it is
a weighted popcount of the index's count planes (``weighted_count``).
Leaves and split tables keep counts, not captures.  A leaf's split
table rebuilds its capture from its clauses (``and_clauses``) and hands
it to ``make_child_leaf``, which ANDs in the negative literal's class
column and keeps only the child's counts; the positive child is the
leaf's minus those.  So no capture outlives the call that made it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bounds import (BoundToggles, cumulative_perm, floor_log10,
                     validate_lam)
from .caches import LeafCache, TreeCache, tree_key
from .dataset import (Dataset, EquivalenceIndex, and_literal,
                      build_equivalence_index, weighted_count)
from .scheduler import Policy, SearchQueue
# sort_leaves is no longer called here; it stays a module global because
# perfbench/tracing.py wraps it as the tree layer's sorting span
from .tree import (B0_S, B_S, N_LEAVES, R_S, UNCHANGED_CAPTURE, Leaf,
                   TreeState, and_clauses, as_entry, build_tree, child_keys,
                   make_child_leaf, penalized_leaves, root_tree,
                   sort_leaves)  # noqa: F401

# the (s1, s2) flag pairs a split's children may take, in the order they
# are tried, by (c1 may be kept to split, c2 may be, must split)
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
        validate_lam(self.lam)
        if not isinstance(self.policy, Policy):
            raise ValueError(f"policy must be a Policy, not {self.policy!r}")
        # `not >= 0` rejects NaN as well as negative values
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be >= 0 seconds")
        # a count is an int: a NaN limit never trips, a bool passes for
        # 0 or 1; only the limits may be None
        for name, least in (("max_trees", 0), ("trace_interval", 1),
                            ("max_cache_entries", 1)):
            value = getattr(self, name)
            if value is None and name != "trace_interval":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


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
    # expanded trees the tree cache holds at the end, and those it purged
    tree_cache_size: int = 0
    tree_cache_purged: int = 0
    # popped trees the permutation cache skipped: a second split order's
    # copy of a tree already expanded
    duplicates_skipped: int = 0
    similar_support_skips: int = 0
    expansions: int = 0     # trees expanded
    split_tables: int = 0   # split tables built: distinct leaves split
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
        if ds.n_samples == 0:
            raise ValueError("the dataset has no samples")
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
        self.leaf_cache = LeafCache()
        self.tree_cache = TreeCache()
        self.queue = SearchQueue(config.policy, ds)
        self.stats = SearchStats()
        self.trace: list[TraceRecord] = []
        self.best_s = 0
        self.best_entry: Optional[tuple] = None
        # each split leaf's feasible splits, by leaf identity; kept by the
        # run, since they depend on its lam and toggles and a leaf may
        # outlive it
        self.split_tables: dict[Leaf, list] = {}
        # lookahead: a tree's children pay at least one more leaf penalty
        self.margin_s = self.lam_s if self.toggles.lookahead else 0

    # -- gates ------------------------------------------------------------

    def _is_live(self, entry: tuple) -> bool:
        """The run's one test that a queue entry may still lead to an
        improvement and belongs in the queue: its bound, plus the
        lookahead margin and (when that bound is on) its equivalent-points
        floor, is below the incumbent.  The margin and the floor are never
        negative, so this implies the hierarchical bound."""
        floor_s = entry[B0_S] if self.toggles.equivalent_points else 0
        return entry[B_S] + floor_s + self.margin_s < self.best_s

    # -- best tracking ---------------------------------------------------

    def _set_best(self, entry: tuple) -> None:
        """Make the tree of ``entry`` the incumbent: the root, or a child
        whose objective beats the incumbent."""
        self.best_s = entry[R_S]
        self.best_entry = entry
        self.stats.trees_to_optimum = self.stats.trees_evaluated
        self.stats.time_to_optimum = time.perf_counter() - self._t0
        self.stats.tree_cache_purged += \
            self.tree_cache.garbage_collect(self.best_s, self.margin_s)

    # -- expansion --------------------------------------------------------

    def expand(self, entry: tuple) -> list[tuple]:
        """Build the tree of a popped entry, split its first leaf to split,
        and price and filter the children.

        Returns the queue entries of the live children, or none when the
        permutation cache has seen the tree; updates the incumbent as a
        side effect (a child's objective can improve the best even when
        its descendants are pruned).
        """
        tree = build_tree(entry)
        stats = self.stats
        # the permutation bound: a tree that a second split order reached
        # is expanded once
        if self.toggles.permutation_cache and self.tree_cache.seen_or_mark(
                tree_key(tree), entry[B_S]):
            stats.duplicates_skipped += 1
            return []
        stats.expansions += 1
        leaf = tree.split[0]
        splits = self.split_tables.get(leaf)
        if splits is None:  # not `or`: an empty table is kept as well
            splits = self._split_table(leaf)
        out: list[tuple] = []

        # every child's sums start from these, which take out the split
        # leaf and add the new leaf penalty.  Its two new leaves add their
        # mistakes to r_s; an unchanged one also adds them to b_s and its
        # samples to the unchanged capture, one to split its floor to b0_s
        q = self.q
        # a child has one leaf more than its parent and is never the root
        n_leaves = entry[N_LEAVES] + 1
        penalty_s = self.lam_s * (n_leaves - penalized_leaves(n_leaves - 1))
        base_b_s = entry[B_S] + penalty_s
        base_r_s = entry[R_S] + penalty_s - q * leaf.mistakes
        base_b0_s = entry[B0_S] - q * leaf.b0_count
        base_capture = entry[UNCHANGED_CAPTURE]
        best_s = self.best_s
        similar_support = self.toggles.similar_support
        if similar_support:
            capture = and_clauses(self.eq, self.eq.all_classes, leaf.clauses)
            # floors of the splits already proven hopeless, compared with
            # each later split via omega
            rejected_floors: list[tuple[int, int]] = []

        for f, c1, c2, flag_pairs in splits:
            m1, m2 = q * c1.mistakes, q * c2.mistakes
            z1, z2 = q * c1.b0_count, q * c2.b0_count
            if similar_support:
                capture1 = and_literal(self.eq, capture, f, False)
                if self._similar_skip(capture1, rejected_floors):
                    stats.similar_support_skips += 1
                    continue
                # the incumbent falls only after this split keeps a child,
                # so one whose least child bound reaches it keeps none; its
                # floor adds the equivalent-points floor when that is on
                floor_s = base_b_s + min((0 if s1 else m1) + (0 if s2 else m2)
                                         for s1, s2 in flag_pairs)
                if floor_s >= best_s:
                    if self.toggles.equivalent_points:
                        floor_s = base_b_s + base_b0_s + min(
                            (z1 if s1 else m1) + (z2 if s2 else m2)
                            for s1, s2 in flag_pairs)
                    rejected_floors.append((floor_s, capture1))
                    continue
            r_s = base_r_s + m1 + m2
            for s1, s2 in flag_pairs:
                b_s = base_b_s + (0 if s1 else m1) + (0 if s2 else m2)
                # the hierarchical bound rejects the child before anything
                # of it is made
                if b_s >= best_s:
                    continue
                stats.trees_evaluated += 1
                child = (
                    b_s, base_b0_s + (z1 if s1 else 0) + (z2 if s2 else 0),
                    r_s, base_capture + (0 if s1 else c1.n_captured)
                    + (0 if s2 else c2.n_captured),
                    n_leaves, tree, c1, c2, s1, s2)
                if r_s < best_s:
                    self._set_best(child)
                    best_s = self.best_s
                out.append(child)
        # the incumbent only improves, so one gate at the end keeps exactly
        # the children that every earlier gate would have kept.  It also
        # drops every child with no leaf to split: its leaves are all
        # unchanged, its objective equals its bound, and the incumbent is
        # as good
        return list(filter(self._is_live, out))

    def _split_table(self, leaf: Leaf) -> list:
        """The feasible splits of ``leaf``, kept as its table.

        A split is ``(feature, c1, c2, flag_pairs)``: the interned children
        on the feature's negative and positive literal and the (s1, s2)
        flags that node support and incremental accuracy allow them; a
        split that allows none is left out.  All of it depends only on the
        leaf, the data, lam and the toggles, so later expansions of the
        leaf walk the table.  Every unused feature is checked here, before
        the expansion prices any child.  The table adds at most two leaves
        per unused feature to the leaf cache, which bounds how far past
        ``max_cache_entries`` one expansion can take it.  The leaf's
        capture, from which the negative children are made, is not kept.
        """
        capture = and_clauses(self.eq, self.eq.all_classes, leaf.clauses)
        used = {c.feature for c in leaf.clauses}
        q, lam_s, support_s = self.q, self.lam_s, self.support_s
        splits = []
        for f in range(self.ds.n_features):
            if f in used:
                continue
            k1, k2 = child_keys(leaf, f)
            c1 = self.leaf_cache.intern(k1, make_child_leaf, k1, capture,
                                        f, self.eq)
            # the leaf's counts minus c1's
            c2 = self.leaf_cache.intern(
                k2, Leaf, k2, leaf.n_captured - c1.n_captured,
                leaf.n_ones - c1.n_ones, leaf.b0_count - c1.b0_count)
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
            flags = _FLAG_PAIRS[q * c1.n_captured >= support_s,
                                q * c2.n_captured >= support_s, must_split]
            if flags:
                splits.append((f, c1, c2, flags))
        self.split_tables[leaf] = splits
        self.stats.split_tables += 1
        return splits

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
        root = root_tree(self.ds, self.eq)
        (leaf,) = root.split
        self.leaf_cache.intern(leaf.key, lambda: leaf)
        entry = as_entry(root, self.lam)
        # the root counts itself, as a child incumbent does
        self.stats.trees_evaluated = 1
        self._set_best(entry)
        # node support may close the root; every other leaf to split was
        # found open by its parent's split table
        if self._is_live(entry) and self.q * leaf.n_captured >= self.support_s:
            self.queue.push((entry,))

        next_trace = self.config.trace_interval
        # every limit is checked before every expansion, and an expansion
        # always finishes, so the queue holds all the work left
        while not self._limit_tripped():
            entry = self.queue.pop(self._is_live)
            if entry is None:
                break
            self.queue.push(self.expand(entry))
            if self.stats.trees_evaluated >= next_trace:
                next_trace += self.config.trace_interval
                self._record_trace()
        return self._finish()

    def _limit_tripped(self) -> bool:
        """The run's one check of its limits; names in ``limit_hit`` the
        first one reached."""
        config = self.config
        if config.time_limit is not None \
                and time.perf_counter() - self._t0 >= config.time_limit:
            self.stats.limit_hit = "time_limit"
        elif config.max_trees is not None \
                and self.stats.trees_evaluated >= config.max_trees:
            self.stats.limit_hit = "max_trees"
        elif config.max_cache_entries is not None and max(
                len(self.leaf_cache),
                len(self.tree_cache)) > config.max_cache_entries:
            self.stats.limit_hit = "max_cache_entries"
        return self.stats.limit_hit is not None

    def _record_trace(self, final: bool = False) -> None:
        """Append a trace record, its least bound read from the queue's
        buckets, stale entries included, except in the ``final`` one: that
        scans the queue for the least live bound, and with none (a
        certified search) counts no remaining evaluations either."""
        buckets = self.queue.buckets
        if final:
            least = self.queue.min_lower_bound(self._is_live)
            least_s = None if least is None else least[B_S]
        else:
            least_s = min((b_s for b_s, _ in buckets), default=None)
        # remaining-evaluations bound: a queued tree with lower bound b and
        # L leaves may still add up to f = floor((best - b) / lam) of the
        # 3^M - L unused leaves, in any order.  Both terms depend on the
        # tree only through (b_s, L), so the sum runs over the queue's
        # buckets of that pair, stale entries included.
        remaining = 0
        if least_s is not None:
            pool = 3 ** self.ds.n_features
            for (b_s, n_leaves), count in buckets.items():
                slots = pool - n_leaves
                f = 0
                if self.best_s > b_s:
                    f = min((self.best_s - b_s) // self.lam_s, slots)
                remaining += count * cumulative_perm(slots, f)
        scale = self.n * self.q
        self.trace.append(TraceRecord(
            elapsed_s=time.perf_counter() - self._t0,
            trees_evaluated=self.stats.trees_evaluated,
            best_objective=Fraction(self.best_s, scale),
            min_queue_lower_bound=None if least_s is None
            else Fraction(least_s, scale),
            queue_size=len(self.queue),
            log10_remaining_bound=None if remaining == 0
            else floor_log10(remaining),
            remaining_bound=remaining,
        ))

    def _finish(self) -> SearchResult:
        # the last record holds the result's figures
        self._record_trace(final=True)
        last = self.trace[-1]
        # with no live entry left the search is complete, whatever limit
        # it reached on the way
        certified = last.min_queue_lower_bound is None
        if certified:
            self.stats.limit_hit = None
        gap = Fraction(0) if certified \
            else last.best_objective - last.min_queue_lower_bound
        self.stats.total_time = time.perf_counter() - self._t0
        self.stats.max_queue_size = self.queue.max_size
        self.stats.leaf_cache_size = len(self.leaf_cache)
        self.stats.leaf_cache_hits = self.leaf_cache.hits
        self.stats.tree_cache_size = len(self.tree_cache)
        return SearchResult(best_tree=build_tree(self.best_entry),
                            objective=last.best_objective,
                            certified=certified, gap=gap,
                            stats=self.stats, trace=self.trace)


def fit(ds: Dataset, config: SearchConfig,
        eq: Optional[EquivalenceIndex] = None) -> SearchResult:
    """Run branch-and-bound to a certified optimum or a resource limit."""
    return _Run(ds, config, eq).run()
