"""Each leaf's splits are worked out once per search.

The first expansion of a leaf records its feasible splits in a table that
the run keeps; later expansions of the leaf walk the table.  These tests
check that the table changes no result of a fit, only how many leaf-cache
lookups it makes, that it looks up the children of every unused feature
before the expansion prices any child, and that a table never
outlives its run.
"""

import random
from dataclasses import asdict
from fractions import Fraction

from opttree.bounds import BoundToggles
from opttree.caches import LeafCache
from opttree.dataset import build_equivalence_index, from_rows
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run
from opttree.tree import (N_LEAVES, Clause, TreeState, as_entry, build_tree,
                          canonical_clauses, make_leaf, root_tree)
from tests.conftest import child_keys, expand_priced, random_dataset

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
    works its splits out again, as a search without tables would; its
    length counts the tables it was handed, as a keeping store's counts
    the tables it holds."""

    handed = 0

    def __setitem__(self, leaf, table):
        self.handed += 1

    def __len__(self):
        return self.handed


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
            [l.key for l in best.leaves], [l.key for l in best.split],
            best.h, trace)


def _check_table_building(monkeypatch):
    """Check, in every expansion that builds a leaf's table, that the two
    children of every feature the leaf does not use are looked up, in
    feature order, and all before the expansion prices its first child,
    so that a cache limit stops the expansion before any of its children
    is evaluated; and that an expansion walking a kept table looks
    nothing up.  The returned state counts the tables checked."""
    state = {"building": False, "interned": [], "run": None, "checked": 0}
    expand_, intern = _Run.expand, LeafCache.intern

    def expanding(run, tree, entry):
        leaf = tree.split[0]
        building = leaf not in run.split_tables
        state.update(building=building, interned=[], run=run,
                     evaluated=run.stats.trees_evaluated)
        children = expand_(run, tree, entry)
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
            assert state["building"]
            assert state["run"].stats.trees_evaluated == state["evaluated"]
            state["interned"].append(key)
        return intern(cache, key, build, *args)

    monkeypatch.setattr(_Run, "expand", expanding)
    monkeypatch.setattr(LeafCache, "intern", interning)
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
                # every expansion finishes, a cache stop included, so a run
                # that forgets its tables builds one per expansion
                assert f.split_tables == s.expansions
                assert f.leaf_cache_hits >= s.leaf_cache_hits
                fits += 1
                cache_stops += s.limit_hit == "max_cache_entries"
                revisits += s.split_tables < s.expansions
    assert fits == 20 * len(Policy) * len(TOGGLE_SETS)
    assert cache_stops > 50 and revisits > 200
    assert building["checked"] > 10000


def test_tables_do_not_outlive_their_run(monkeypatch):
    # one root leaf object is expanded under toggle sets and lambdas whose
    # tables differ, with the lambdas in either order; each expansion must
    # price the children, flags included, that a fresh root's does, also
    # those the incumbent or the liveness gate then drop
    built = []

    def children(root, ds, config):
        # every child the expansion prices in below an incumbent of 1,
        # found from its split table by ``expand_priced``
        run = _Run(ds, config)
        run.best_s = run.q * run.n
        built[:] = expand_priced(run, root, as_entry(root, config.lam))[0]
        trees = map(build_tree, built)
        # each child's leaf keys, the keys of its leaves to split, and the
        # sums its entry holds
        return [(tuple(l.key for l in t.leaves), tuple(l.key for l in t.split))
                + entry[:N_LEAVES + 1] for entry, t in zip(built, trees)]

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
            shared = root_tree(ds, eq).split[0]
            seen = []
            for lam in lams:
                root = TreeState((), (shared,), ds)
                for toggles in toggle_sets:
                    config = SearchConfig(lam=lam, toggles=toggles)
                    got = children(root, ds, config)
                    want = children(root_tree(ds, eq), ds, config)
                    assert got == want
                    seen.append(want)
            changes += sum(a != b for a, b in zip(seen, seen[1:]))
    # most expansions differ from the one before, so a table carried over
    # from one to the next would show
    assert changes > datasets * 4

    # leaves a run under lam = 1/4 built: f0=0 holds 30 of 100 samples,
    # too few for node support there (30 < 2*N/4) but not under 1/40, so
    # the run under 1/40 must split it, as it does for the same tree built
    # from scratch, whatever the run that built its leaves decided
    rows = [[0, i % 2] for i in range(30)] + [[1, i % 2] for i in range(70)]
    labels = [0] * 28 + [1] * 2 + [i % 3 == 0 for i in range(70)]
    ds = from_rows(["a", "b"], rows, labels)
    eq = build_equivalence_index(ds)
    keys = ((Clause(0, False),), (Clause(0, True),))
    coarse = Fraction(1, 4)
    children(root_tree(ds, eq), ds, SearchConfig(lam=coarse))
    (leaves,) = {t.leaves for t in map(build_tree, built)
                 if tuple(l.key for l in t.leaves) == keys}
    lam = Fraction(1, 40)
    got, want = (children(TreeState((), tuple(ls), ds), ds,
                          SearchConfig(lam=lam))
                 for ls in (leaves, [make_leaf(k, eq) for k in keys]))
    assert got == want
    # every child splits the 30-sample leaf, keeping the other
    assert want and all(keys[1] in leaf_keys for leaf_keys, *_ in want)
    assert all(keys[0] not in leaf_keys for leaf_keys, *_ in want)


def test_table_children_match_leaves_made_from_scratch():
    # every 5-feature row is present, so with the threshold bounds off no
    # side of a split is empty and the table holds every unused feature.
    # Leaves that use no feature, feature 0, the last feature, a run of
    # consecutive features and both ends: each child's key is the leaf's
    # clauses with the literal in its place, and its counts are those of
    # the leaf made from scratch
    m = 5
    rng = random.Random(31)
    rows = [[r >> j & 1 for j in range(m)] for r in range(2 ** m)] * 3
    ds = from_rows([f"f{j}" for j in range(m)], rows,
                   [rng.randint(0, 1) for _ in rows])
    toggles = BoundToggles(node_support=False, leaf_accuracy=False,
                           incremental_accuracy=False)
    run = _Run(ds, SearchConfig(lam=Fraction(1, 50), toggles=toggles))

    def counts(leaf):
        return (leaf.n_captured, leaf.n_ones, leaf.n_correct, leaf.mistakes,
                leaf.prediction, leaf.b0_count)
    for lits in ((), ((0, True),), ((m - 1, False),),
                 ((1, True), (2, False), (3, True)),
                 ((0, False), (m - 1, True))):
        leaf = make_leaf([Clause(f, p) for f, p in lits], run.eq)
        used = {f for f, _ in lits}
        table = run._split_table(leaf)
        assert [f for f, _, _, _ in table] \
            == [f for f in range(m) if f not in used]
        for f, c1, c2, _ in table:
            for child, polarity in ((c1, False), (c2, True)):
                key = canonical_clauses(leaf.clauses + (Clause(f, polarity),))
                assert child.key == key
                assert counts(child) == counts(make_leaf(key, run.eq))
