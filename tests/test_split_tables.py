"""Each leaf's splits are worked out once per search.

The first expansion of a leaf records its feasible splits in a table that
the run keeps; later expansions of the leaf walk the table.  These tests
check that the table changes no result of a fit, only how many leaf-cache
lookups it makes, that it looks up the children of every unused feature
before the expansion builds any child tree, and that a table never
outlives its run.
"""

import random
from dataclasses import asdict
from fractions import Fraction

from opttree.bounds import BoundToggles
from opttree.caches import LeafCache
from opttree.dataset import build_equivalence_index, from_rows
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run, expand
from opttree.tree import Clause, TreeState, child_keys, make_leaf, root_tree
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
    """Check, in every expansion that builds a leaf's table, that the two
    children of every feature the leaf does not use are looked up, in
    feature order, and all before the expansion builds its first child
    tree, so that a cache limit stops the expansion before any of its
    children is evaluated; and that an expansion walking a kept table
    looks nothing up.  The returned state counts the tables checked."""
    state = {"building": False, "interned": [], "derived": False,
             "checked": 0}
    expand_, intern, derived = _Run.expand, LeafCache.intern, \
        TreeState.derived.__func__

    def expanding(run, tree):
        idx = run._expandable_index(tree)
        leaf = None if idx is None else tree.leaves[idx]
        building = leaf is not None and leaf not in run.split_tables
        state.update(building=building, interned=[], derived=False)
        children = expand_(run, tree)
        if building:
            used = {c.feature for c in leaf.clauses}
            assert state["interned"] == [
                key for f in range(run.ds.n_features) if f not in used
                for key in child_keys(leaf, f)]
            state["checked"] += 1
        else:
            assert state["interned"] == []
        return children

    def interning(cache, key, build, *args):
        if args:  # not the root, which the run interns before expanding
            assert state["building"] and not state["derived"]
            state["interned"].append(key)
        return intern(cache, key, build, *args)

    def deriving(cls, *args):
        state["derived"] = True
        return derived(cls, *args)

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


def test_tables_do_not_outlive_their_run(monkeypatch):
    # one root leaf object is expanded under toggle sets and lambdas whose
    # tables differ, with the lambdas in either order; each expansion must
    # build the children, flags included, that a fresh root's does, also
    # those the incumbent or the liveness gate then drop
    built = []
    evaluate = _Run._evaluate

    def recording(run, child):
        built.append(child)
        return evaluate(run, child)

    monkeypatch.setattr(_Run, "_evaluate", recording)

    def children(root, ds, eq, config):
        built.clear()
        expand(root, ds, eq, config, Fraction(1))
        return [(tuple(l.key for l in t.leaves), t.splittable, t.h, t.b_s,
                 t.r_s, t.b0_s, t.unchanged_capture) for t in built]

    toggle_sets = (BoundToggles(),
                   BoundToggles(leaf_accuracy=False,
                                incremental_accuracy=False))
    rng = random.Random(12)
    # enough datasets that a table carried from an expansion under
    # lam = 1/8 into one under 1/40 gets caught
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
                root = TreeState(leaves=(shared,), splittable=(True,),
                                 n_samples=ds.n_samples, lam=lam)
                for toggles in toggle_sets:
                    config = SearchConfig(lam=lam, toggles=toggles)
                    got = children(root, ds, eq, config)
                    want = children(root_tree(ds, lam, eq), ds, eq, config)
                    assert got == want
                    seen.append(want)
            changes += sum(a != b for a, b in zip(seen, seen[1:]))
    # most expansions differ from the one before, so a table carried over
    # from one to the next would show
    assert changes > datasets * 4

    # leaves a run under lam = 1/4 built: f0=0 holds 30 of 100 samples,
    # too few for node support there (30 < 2*N/4) but not under 1/40, so
    # the run under 1/40 must designate it, as it does for the same tree
    # built from scratch, whatever the run that built its leaves decided
    rows = [[0, i % 2] for i in range(30)] + [[1, i % 2] for i in range(70)]
    labels = [0] * 28 + [1] * 2 + [i % 3 == 0 for i in range(70)]
    ds = from_rows(["a", "b"], rows, labels)
    eq = build_equivalence_index(ds)
    keys = ((Clause(0, False),), (Clause(0, True),))
    coarse = Fraction(1, 4)
    children(root_tree(ds, coarse, eq), ds, eq, SearchConfig(lam=coarse))
    (leaves,) = {t.leaves for t in built
                 if tuple(l.key for l in t.leaves) == keys}
    lam = Fraction(1, 40)
    got, want = (children(TreeState(leaves=tuple(ls), splittable=(True, True),
                                    n_samples=ds.n_samples, lam=lam),
                          ds, eq, SearchConfig(lam=lam))
                 for ls in (leaves, [make_leaf(k, ds, eq) for k in keys]))
    assert got == want
    # every child splits the 30-sample leaf, keeping the other
    assert want and all(keys[1] in leaf_keys for leaf_keys, *_ in want)
    assert all(keys[0] not in leaf_keys for leaf_keys, *_ in want)
