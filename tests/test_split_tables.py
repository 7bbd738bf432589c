"""Each leaf's splits are worked out once per search.

The first expansion of a leaf records its feasible splits in a table that
the run keeps; later expansions of the leaf walk the table.  These tests
check that the table changes no result of a fit, only how many leaf-cache
lookups it makes, that it is built feature by feature between the
children it yields, and that a table never outlives its run.
"""

import random
from dataclasses import asdict
from fractions import Fraction

from opttree.bounds import BoundToggles
from opttree.caches import LeafCache
from opttree.dataset import build_equivalence_index
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run, expand
from opttree.tree import TreeState, root_tree
from tests.conftest import random_dataset

TOGGLE_SETS = (
    BoundToggles(),
    BoundToggles(similar_support=True),
    BoundToggles(node_support=False, leaf_accuracy=False),
)
# the stats a table may change: lookups it saves, and tables it built
TABLE_STATS = ("leaf_cache_hits", "split_tables")
TIMES = ("time_to_optimum", "total_time")


class _Forgetful(dict):
    """A table store that keeps nothing, so every expansion of a leaf
    works its splits out again, as a search without tables would."""

    def __setitem__(self, leaf, table):
        pass


def _fit(ds, config, forget):
    run = _Run(ds, config)
    if forget:
        run.split_tables = _Forgetful()
    return run.run()


def _outcome(res):
    stats = {k: v for k, v in asdict(res.stats).items()
             if k not in TABLE_STATS + TIMES}
    best = res.best_tree
    trace = [(r.trees_evaluated, r.best_objective, r.min_queue_lower_bound,
              r.queue_size, r.log10_remaining_bound, r.remaining_bound)
             for r in res.trace]
    return (stats, res.objective, res.gap, res.certified,
            [l.key for l in best.leaves], best.splittable, best.h, trace)


def _check_table_building(monkeypatch):
    """Check, in every expansion that builds a leaf's table, that no
    feature already dead for the leaf is looked up, and that each
    feature's two children are looked up right before its trees are
    built, so that a cache limit trips where a search without tables
    would trip.  The returned state counts the split children checked."""
    state = {"building": None, "interned": [], "checked": 0}
    expand_, intern, derived = _Run.expand, LeafCache.intern, \
        TreeState.derived.__func__

    def expanding(run, tree):
        idx = run._expandable_index(tree)
        leaf = None if idx is None else tree.leaves[idx]
        building = leaf is not None and leaf not in run.split_tables
        dead = set(run.dead_features.get(leaf, ())) if building \
            and run.toggles.leaf_accuracy else set()
        state.update(building=building, dead=dead, interned=[])
        return expand_(run, tree)

    def interning(cache, key, build, *args):
        if args:  # not the root, which the run interns before expanding
            assert state["building"]
            assert args[1] not in state["dead"]  # the split feature
        leaf = intern(cache, key, build, *args)
        state["interned"].append(leaf)
        return leaf

    def deriving(cls, parent, leaves, *args):
        if state["building"] and leaves is not parent.leaves:
            new = [l for l in leaves if l not in parent.leaves]
            assert new == state["interned"][-2:]
            state["checked"] += 1
        return derived(cls, parent, leaves, *args)

    monkeypatch.setattr(_Run, "expand", expanding)
    monkeypatch.setattr(LeafCache, "intern", interning)
    monkeypatch.setattr(TreeState, "derived", classmethod(deriving))
    return state


def test_tables_change_no_result_of_a_fit(monkeypatch):
    building = _check_table_building(monkeypatch)
    rng = random.Random(8)
    fits = cache_stops = revisits = 0
    for _ in range(20):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.3)))
        lam = Fraction(1, rng.choice((15, 30, 50)))
        for policy in Policy:
            for toggles in TOGGLE_SETS:
                config = SearchConfig(
                    lam=lam, policy=policy, toggles=toggles,
                    trace_interval=rng.choice((1, 10, 100, 1000)),
                    max_trees=rng.choice((100, 500, 2000)),
                    max_cache_entries=rng.choice((None, 40, 150, 600)))
                kept = _fit(ds, config, forget=False)
                forgot = _fit(ds, config, forget=True)
                assert _outcome(kept) == _outcome(forgot)
                s, f = kept.stats, forgot.stats
                assert s.split_tables <= s.expansions
                # a cache limit may stop an expansion before its table is
                # complete, and then the table is not kept
                assert s.expansions - 1 <= f.split_tables <= s.expansions
                assert f.leaf_cache_hits >= s.leaf_cache_hits
                fits += 1
                cache_stops += "cache" in (s.limit_hit or "")
                revisits += s.split_tables < s.expansions
    assert fits == 20 * len(Policy) * len(TOGGLE_SETS)
    assert cache_stops > 50 and revisits > 200
    assert building["checked"] > 10000


def _children(trees):
    return [(tuple(l.key for l in t.leaves), t.splittable, t.h, t.b_s,
             t.r_s, t.b0_s, t.unchanged_capture,
             frozenset(frozenset(l.key for l in pair)
                       for pair in t.must_split_pairs))
            for t in trees]


def test_tables_do_not_outlive_their_run():
    # one root leaf object is expanded under toggle sets and lambdas whose
    # tables and dead features differ, with the lambdas in either order;
    # each expansion must equal that of a fresh root
    toggle_sets = (BoundToggles(),
                   BoundToggles(leaf_accuracy=False,
                                incremental_accuracy=False))
    rng = random.Random(12)
    # enough datasets that a root leaf carrying the features dead under
    # lam = 1/8 into an expansion under 1/40 gets caught
    datasets = 40
    changes = 0
    for _ in range(datasets):
        ds = random_dataset(rng, rng.randint(20, 80), rng.randint(3, 5))
        eq = build_equivalence_index(ds)
        for lams in ((Fraction(1, 40), Fraction(1, 8)),
                     (Fraction(1, 8), Fraction(1, 40))):
            shared = root_tree(ds, lams[0], eq).leaves[0]
            seen = []
            for lam in lams:
                root = TreeState(leaves=(shared,), splittable=(True,), h=0,
                                 n_samples=ds.n_samples, lam=lam)
                for toggles in toggle_sets:
                    config = SearchConfig(lam=lam, toggles=toggles)
                    got = _children(expand(root, ds, eq, config,
                                           Fraction(1)))
                    want = _children(expand(root_tree(ds, lam, eq), ds, eq,
                                            config, Fraction(1)))
                    assert got == want
                    seen.append(want)
            changes += sum(a != b for a, b in zip(seen, seen[1:]))
    # most expansions differ from the one before, so a table or a dead
    # feature carried over from one to the next would show
    assert changes > datasets * 4
