import gc
import importlib
import inspect
import math
import pkgutil
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction
from itertools import compress, product

import pytest

import opttree
from opttree.bounds import BoundToggles
from opttree.caches import tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.oracle import exhaustive_optimum
from opttree.scheduler import Policy, SearchQueue
from opttree import search
from opttree.search import SearchConfig, _Run, fit
from opttree.tree import (B0_S, B_S, Clause, as_entry, build_tree, objective,
                          root_tree)
from tests.conftest import (expand, expand_priced, expanded_trees,
                            lower_bound, random_dataset)
from tests.fit_digest import fit_digest


def _flags(tree):
    """Whether each leaf, in canonical order, is still to split."""
    return tuple(leaf in tree.split for leaf in tree.leaves)


def test_lambda_must_be_positive(toy_ds):
    with pytest.raises(ValueError, match="lam"):
        fit(toy_ds, SearchConfig(lam=Fraction(0)))


def test_lambda_must_be_exact(toy_ds):
    # the search scales by lam's numerator and denominator
    with pytest.raises(ValueError, match="not float"):
        fit(toy_ds, SearchConfig(lam=0.02))
    assert fit(toy_ds, SearchConfig(lam=1)).objective == Fraction(1, 2)


def test_certifies_separable_instance(toy_ds):
    res = fit(toy_ds, SearchConfig(lam=Fraction(1, 100)))
    assert res.certified
    assert res.gap == 0
    assert res.objective == Fraction(2, 100)
    assert len(res.best_tree.leaves) == 2


def test_matches_oracle_on_noisy_instance(noisy_ds):
    for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2)):
        res = fit(noisy_ds, SearchConfig(lam=lam))
        assert res.certified
        assert res.objective == exhaustive_optimum(noisy_ds, lam).objective


def test_deterministic_runs(noisy_ds):
    a = fit(noisy_ds, SearchConfig(lam=Fraction(1, 20)))
    b = fit(noisy_ds, SearchConfig(lam=Fraction(1, 20)))
    assert a.objective == b.objective
    # tree keys hold one run's interned leaves; compare their leaf keys
    assert [leaf.key for leaf in a.best_tree.leaves] \
        == [leaf.key for leaf in b.best_tree.leaves]
    assert _flags(a.best_tree) == _flags(b.best_tree)
    assert a.stats.trees_evaluated == b.stats.trees_evaluated
    assert a.stats.trees_to_optimum == b.stats.trees_to_optimum
    assert a.stats.max_queue_size == b.stats.max_queue_size
    assert a.stats.duplicates_skipped == b.stats.duplicates_skipped
    assert [(r.trees_evaluated, r.best_objective, r.queue_size)
            for r in a.trace] \
        == [(r.trees_evaluated, r.best_objective, r.queue_size)
            for r in b.trace]


def test_max_trees_limit_reports_gap():
    rng = random.Random(17)
    ds = random_dataset(rng, 40, 6)
    cfg = SearchConfig(lam=Fraction(1, 200), max_trees=50, trace_interval=10)
    res = fit(ds, cfg)
    assert not res.certified
    assert res.stats.limit_hit == "max_trees"
    assert res.gap > 0
    assert res.objective - res.gap <= res.objective


def test_time_limit():
    rng = random.Random(18)
    ds = random_dataset(rng, 60, 8)
    cfg = SearchConfig(lam=Fraction(1, 500), time_limit=0.05,
                       trace_interval=10)
    res = fit(ds, cfg)
    assert res.stats.limit_hit in ("time_limit", None)
    if res.stats.limit_hit:
        assert not res.certified


def test_cache_limit():
    rng = random.Random(19)
    ds = random_dataset(rng, 40, 6)
    cfg = SearchConfig(lam=Fraction(1, 200), max_cache_entries=20)
    res = fit(ds, cfg)
    assert res.stats.limit_hit == "max_cache_entries"
    assert not res.certified


def test_cache_limit_must_be_positive(toy_ds):
    with pytest.raises(ValueError, match="max_cache_entries"):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), max_cache_entries=0))


@pytest.mark.parametrize("name", ["max_trees", "max_cache_entries",
                                  "trace_interval"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10.0, True,
                                   False, "10", -1])
def test_count_options_must_be_ints_in_range(toy_ds, name, value):
    # a NaN limit never trips and a NaN interval records nothing; a bool
    # passes for 0 or 1 and a string fails the comparison with a TypeError
    config = SearchConfig(lam=Fraction(1, 100), **{name: value})
    message = f"{name} must be >= " if value == -1 \
        else f"{name} must be an int, not {value!r}"
    with pytest.raises(ValueError) as raised:
        fit(toy_ds, config)
    assert str(raised.value).startswith(message)


def test_policy_must_be_a_policy(toy_ds):
    with pytest.raises(ValueError, match="policy"):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), policy="gini"))


@pytest.mark.parametrize("value", [True, False, "5", Fraction(1, 2),
                                   float("nan"), -1, -0.5])
def test_time_limit_must_be_seconds(toy_ds, value):
    # a bool would run as a 0- or 1-second limit and a string would fail
    # its comparison with a TypeError
    with pytest.raises(ValueError, match="time_limit must be"):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), time_limit=value))
    for seconds in (0, 5, 0.5, float("inf")):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), time_limit=seconds))


@pytest.mark.parametrize("value", [None, {}, "lookahead"])
def test_toggles_must_be_bound_toggles(toy_ds, value):
    with pytest.raises(ValueError, match="toggles must be a BoundToggles"):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), toggles=value))


def test_empty_dataset_is_rejected():
    with pytest.raises(ValueError, match="no samples"):
        fit(from_rows(["a"], [], []), SearchConfig(lam=Fraction(1, 10)))


@pytest.mark.parametrize("policy", list(Policy))
def test_trees_are_built_only_to_expand_and_to_return(policy):
    # every call, through any module's name for it: a popped entry's tree
    # is built to expand it (or to find it a duplicate), and the result's
    # tree once more; a queued child or a new incumbent is never built
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is build_tree.__code__:
            calls += 1

    rng = random.Random(8)
    expansions = 0
    for _ in range(6):
        ds = random_dataset(rng, rng.randint(20, 50), rng.randint(3, 5),
                            duplicate_bias=0.5)
        calls = 0
        sys.setprofile(profile)
        try:
            res = fit(ds, SearchConfig(lam=Fraction(1, 50), policy=policy,
                                       max_trees=2000))
        finally:
            sys.setprofile(None)
        s = res.stats
        assert calls == s.expansions + s.duplicates_skipped + 1
        expansions += s.expansions
    assert expansions > 100


LIMITS = ([{"max_cache_entries": k} for k in (1, 2, 5, 10, 20, 50, 200)]
          + [{"max_trees": k} for k in (1, 5, 20, 100, 400)]
          + [{"time_limit": t} for t in (0.0, 0.002, 0.02)])


@pytest.mark.parametrize("limit", LIMITS, ids=lambda d: "{}={}".format(
    *next(iter(d.items()))))
def test_limits_never_overstate(limit):
    """Whatever stops the search, objective - gap bounds the optimum from
    below, and a certificate means the optimum was found."""
    rng = random.Random(31)
    for _ in range(12):
        ds = random_dataset(rng, rng.randint(10, 40), rng.randint(3, 5),
                            duplicate_bias=rng.choice([0.0, 0.4]))
        lam = rng.choice((Fraction(1, 100), Fraction(1, 30)))
        optimum = exhaustive_optimum(ds, lam).objective
        res = fit(ds, SearchConfig(lam=lam, trace_interval=3, **limit))
        assert res.objective - res.gap <= optimum <= res.objective
        assert res.gap >= 0
        if res.certified:
            assert res.stats.limit_hit is None
            assert res.objective == optimum


def test_trace_monotonicity_lower_bound_policy():
    rng = random.Random(23)
    ds = random_dataset(rng, 30, 5, duplicate_bias=0.3)
    cfg = SearchConfig(lam=Fraction(1, 30), policy=Policy.LOWER_BOUND,
                       trace_interval=5)
    res = fit(ds, cfg)
    objs = [r.best_objective for r in res.trace]
    assert objs == sorted(objs, reverse=True)
    mins = [r.min_queue_lower_bound for r in res.trace
            if r.min_queue_lower_bound is not None]
    assert mins == sorted(mins)


def test_trees_to_optimum_counts_the_incumbent(toy_ds):
    # lam > 1/2: a split costs more than the root's minority fraction, so
    # the root is the optimum and the only tree evaluated; it counts itself
    # as the first tree, as a child incumbent does
    res = fit(toy_ds, SearchConfig(lam=Fraction(3, 5)))
    assert res.certified and len(res.best_tree.leaves) == 1
    assert res.stats.trees_evaluated == res.stats.trees_to_optimum == 1
    res = fit(toy_ds, SearchConfig(lam=Fraction(1, 100)))
    assert res.certified and len(res.best_tree.leaves) == 2
    assert 1 < res.stats.trees_to_optimum <= res.stats.trees_evaluated


def test_expand_children_respect_hierarchy():
    # XOR labels: no depth-1 split improves the incumbent, so children
    # survive the gates and can be inspected
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    root = root_tree(ds, eq)
    cfg = SearchConfig(lam=lam)
    children = [build_tree(e) for e in expand(root, ds, cfg, Fraction(1, 2))]
    assert children
    for child in children:
        child.check_partition()
        assert lower_bound(child, lam) >= lower_bound(root, lam)
        assert lower_bound(child, lam) <= objective(child, lam)
        assert child.h == 2


def test_expand_prunes_by_best(toy_ds):
    lam = Fraction(1, 100)
    eq = build_equivalence_index(toy_ds)
    root = root_tree(toy_ds, eq)
    cfg = SearchConfig(lam=lam)
    # best below 2*lam: every split child fails the hierarchical gate
    assert expand(root, toy_ds, cfg, Fraction(1, 100)) == []


def test_expand_keeps_leaves_in_canonical_order(monkeypatch):
    """Trees are built without sorting: the keys of their unchanged leaves
    and of their leaves to split must still be strictly increasing.
    Within one run, whose leaves are interned, two built trees get equal
    ``tree_key``s exactly when they hold the same multiset of (leaf key,
    flag) pairs."""
    built = []

    def recording(entry):
        tree = build_tree(entry)
        built.append(tree)
        return tree
    monkeypatch.setattr(search, "build_tree", recording)
    rng = random.Random(7)
    repeats = 0
    for _ in range(100):
        ds = random_dataset(rng, rng.randint(10, 80), rng.randint(2, 5))
        lam = Fraction(1, rng.randint(10, 80))
        trees = expanded_trees(ds, lam, rng, levels=5)
        # every tree one fit builds, at pops and for the result,
        # duplicates included
        built.clear()
        fit(ds, SearchConfig(lam=lam, max_trees=3000))
        for tree in trees + built:
            for leaves in (tree.unchanged, tree.split):
                keys = [leaf.key for leaf in leaves]
                assert all(a < b for a, b in zip(keys, keys[1:]))
        by_pairs: dict = {}
        for tree in built:
            keys = [leaf.key for leaf in tree.leaves]
            pairs = tuple(sorted(zip(keys, _flags(tree))))
            by_pairs.setdefault(pairs, []).append(tree_key(tree))
        tree_keys = {k for ks in by_pairs.values() for k in ks}
        assert len(tree_keys) == len(by_pairs)
        assert all(len(set(ks)) == 1 for ks in by_pairs.values())
        repeats += sum(len(ks) - 1 for ks in by_pairs.values())
    assert repeats > 0


def _priced_children(ds, config, tree, best):
    """Every child that one expansion of ``tree`` prices in below the
    incumbent ``best``, built from its entry: ``expand_priced`` finds them
    apart from the expansion, from its split table."""
    run = _Run(ds, config)
    run.best_s = math.ceil(best * run.n * run.q)
    priced, out = expand_priced(run, tree, as_entry(tree, config.lam))
    assert run.stats.trees_evaluated == len(priced)
    # the run pushes the priced children live under the final incumbent
    assert [e[6:] for e in compress(out, run._live(out))] \
        == [e[6:] for e in priced if run._live([e])[0]]
    return [build_tree(e) for e in priced]


def test_zero_gain_split_forbids_both_unchanged():
    # XOR labels: any single split has zero gain, so with incremental
    # accuracy on no child of the root has both leaves unchanged.  Below an
    # incumbent of 1 such a child is priced in: with the bound off, the
    # first one is priced in and becomes the incumbent, which prices out
    # the second
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    root = root_tree(ds, eq)
    for incremental_accuracy, n_built, n_closed in ((True, 6, 0),
                                                    (False, 7, 1)):
        config = SearchConfig(lam=lam, toggles=BoundToggles(
            incremental_accuracy=incremental_accuracy))
        assert expand(root, ds, config, Fraction(1))
        built = _priced_children(ds, config, root, Fraction(1))
        assert len(built) == n_built
        assert sum(not c.split for c in built) == n_closed
    res = fit(ds, SearchConfig(lam=lam))
    assert res.certified
    assert res.objective == Fraction(4, 100)


def test_permutation_dedup_counts_duplicates():
    # the label is a xor b, except that it is c and d where a = b = 1.
    # Splitting the root on a and then both sides on b, or on b and then
    # both sides on a, reaches the same four leaves with a=b=1 still open.
    # Breadth-first both copies are priced in and queued, and the copy
    # popped second, still live, is skipped there rather than expanded
    rows = [list(r) for r in product((0, 1), repeat=4)] * 2
    labels = [a ^ b ^ (a & b & c & d) for a, b, c, d in rows]
    ds = from_rows(["a", "b", "c", "d"], rows, labels)
    config = SearchConfig(lam=Fraction(1, 50), policy=Policy.BFS)
    run = _Run(ds, config)
    duplicates = []
    mark = run.tree_cache.seen_or_mark

    def recording(key, b_s):
        seen = mark(key, b_s)
        if seen:
            duplicates.append(key)
        return seen

    run.tree_cache.seen_or_mark = recording
    res = run.run()
    assert res.certified and res.objective == Fraction(3, 25)
    assert res.stats.duplicates_skipped == len(duplicates) == 1
    # a=b=1 is left to split, the other three leaves unchanged
    ((unchanged, split),) = duplicates
    assert [leaf.key for leaf in unchanged + split] == [
        (Clause(0, a), Clause(1, b)) for a in (False, True)
        for b in (False, True)]
    assert len(split) == 1
    # without the cache the second copy is expanded too, and nothing else
    # changes: the same objective after one expansion more
    off = fit(ds, replace(config, toggles=BoundToggles(
        permutation_cache=False)))
    assert off.certified and off.objective == res.objective
    assert off.stats.expansions == res.stats.expansions + 1
    assert off.stats.duplicates_skipped == 0


@pytest.mark.parametrize("incremental_accuracy", [False, True])
def test_flagging_a_leaf_unchanged_gives_a_built_tree(incremental_accuracy):
    # no move reflags a leaf: a tree with one more leaf unchanged must come
    # from the splits that create that leaf unchanged.  With every other
    # bound off and the incumbent at the optimum, which no tree beats,
    # the only gate is the price: expanded breadth-first, every built tree
    # with any leaf to split flagged unchanged is built too, unless the
    # price rejects it or incremental accuracy forbids it: the leaf's
    # sibling, from a split that gained less than lam, is unchanged too
    toggles = BoundToggles(
        lookahead=False, node_support=False, leaf_accuracy=False,
        equivalent_points=False, permutation_cache=False,
        incremental_accuracy=incremental_accuracy)
    rng = random.Random(5)
    checked = 0
    for _ in range(12):
        ds = random_dataset(rng, rng.randint(6, 24), rng.randint(2, 4),
                            duplicate_bias=rng.choice((0.0, 0.4)))
        lam = Fraction(1, rng.choice((10, 20, 50)))
        config = SearchConfig(lam=lam, toggles=toggles)
        eq = build_equivalence_index(ds)
        best = exhaustive_optimum(ds, lam).objective
        root = root_tree(ds, eq)
        best_s = best * ds.n_samples * lam.denominator
        # each built tree with, for every leaf of a split that gained less
        # than lam and whose sibling is still a leaf, that sibling
        frontier, built = [(root, {})], []
        for _ in range(3):
            frontier = [(c, _siblings(t, c, deficit, lam,
                                      incremental_accuracy))
                        for t, deficit in frontier
                        for c in map(build_tree,
                                     expand(t, ds, config, best))]
            built += frontier
        keys = {(tuple(l.key for l in t.leaves), _flags(t))
                for t, _ in built}
        for tree, deficit in built:
            flags = _flags(tree)
            for i, leaf in enumerate(tree.leaves):
                forbidden = leaf in deficit \
                    and not flags[tree.leaves.index(deficit[leaf])]
                price = as_entry(tree, lam)[B_S] \
                    + lam.denominator * leaf.mistakes
                if not flags[i] or forbidden or price >= best_s:
                    continue
                unchanged = flags[:i] + (False,) + flags[i + 1:]
                assert (tuple(l.key for l in tree.leaves), unchanged) \
                    in keys
                checked += 1
    assert checked > 200


def _siblings(parent, child, deficit, lam, incremental_accuracy):
    """``deficit`` for ``child``, given its ``parent``'s: the split leaf
    leaves it, and the two new leaves join it when their split gains less
    than lam and incremental accuracy is on."""
    (split,) = [l for l in parent.leaves if l not in child.leaves]
    c1, c2 = [l for l in child.leaves if l not in parent.leaves]
    kept = {l: o for l, o in deficit.items() if split not in (l, o)}
    gain = c1.n_correct + c2.n_correct - split.n_correct
    if incremental_accuracy \
            and gain * lam.denominator < lam.numerator * child.ds.n_samples:
        kept.update({c1: c2, c2: c1})
    return kept


def test_cache_stop_never_overstates():
    """The cache limit is checked between expansions, so the last one may
    take the leaf cache past k by its split table (two leaves per unused
    feature) and the tree cache by the one tree it expanded.  The queue
    then holds all the work left, so its least live bound is the gap."""
    rng = random.Random(41)
    stops = tree_stops = 0
    for _ in range(30):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 4))
        lam = Fraction(1, rng.choice((200, 400)))
        optimum = exhaustive_optimum(ds, lam).objective
        for k in (10, 20, 30, 40, 60):
            res = fit(ds, SearchConfig(lam=lam, max_cache_entries=k))
            s = res.stats
            assert s.leaf_cache_size <= k + 2 * ds.n_features
            assert s.tree_cache_size <= k + 1
            assert res.objective - res.gap <= optimum <= res.objective
            if s.limit_hit is None:
                assert res.certified and res.objective == optimum
                continue
            stops += 1
            tree_stops += s.tree_cache_size > k
            assert s.limit_hit == "max_cache_entries"
            assert max(s.leaf_cache_size, s.tree_cache_size) > k
            assert not res.certified and res.gap > 0
    assert stops > 50 and tree_stops > 20


def test_fit_leaves_no_cyclic_garbage():
    # a finished run holds no reference cycle, so with the collector off
    # nothing of a fit is left for it to find; a cache stop included
    rng = random.Random(3)
    ds = random_dataset(rng, 60, 6)
    configs = (SearchConfig(lam=Fraction(1, 50)),
               SearchConfig(lam=Fraction(1, 200), max_trees=500),
               SearchConfig(lam=Fraction(1, 200), max_cache_entries=30))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            res = fit(ds, config)
            assert res.stats.expansions > 1
            del res
            assert gc.collect() == 0
        # the stateless expansion makes and drops a run of its own
        eq = build_equivalence_index(ds)
        children = expand(root_tree(ds, eq), ds, configs[1], Fraction(1))
        assert children
        del children
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_fit_restores_the_collector_state(toy_ds):
    # the pause is process-wide: the caller's state comes back, also when
    # the fit raises
    enabled = gc.isenabled()
    empty = from_rows(["a"], [], [])
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            fit(toy_ds, SearchConfig(lam=Fraction(1, 100)))
            assert gc.isenabled() == state
            with pytest.raises(ValueError, match="no samples"):
                fit(empty, SearchConfig(lam=Fraction(1, 10)))
            assert gc.isenabled() == state
    finally:
        (gc.enable if enabled else gc.disable)()


def test_fit_runs_without_the_collector(toy_ds, monkeypatch):
    # the index build and the run see the collector paused
    states = []
    build = search.build_equivalence_index

    def recording(ds):
        states.append(gc.isenabled())
        return build(ds)
    monkeypatch.setattr(search, "build_equivalence_index", recording)
    run = _Run.run
    monkeypatch.setattr(
        _Run, "run", lambda self: states.append(gc.isenabled()) or run(self))
    fit(toy_ds, SearchConfig(lam=Fraction(1, 100)))
    assert states == [False, False]


def test_no_memo_outlives_a_fit():
    # a memo held by a module or a class grows over a process's fits and
    # carries their work into the next one; a run keeps its own.  Only
    # the parser, which every call of ``cli.main`` shares, is kept
    cached = set()
    for info in pkgutil.iter_modules(opttree.__path__):
        module = importlib.import_module(f"opttree.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(m, "__func__", m))
                            for attr, m in vars(obj).items()]
            cached |= {f"{module.__name__}.{n}" for n, m in members
                       if hasattr(m, "cache_info")}
    assert cached == {"opttree.cli.build_parser"}


@pytest.mark.parametrize("policy", list(Policy))
def test_every_queued_entry_is_live_at_every_pop(policy):
    # the queue is purged whenever the incumbent falls, so no entry it
    # holds ever fails the gate: its bound plus lam under lookahead and,
    # under equivalent points, its floor is below the incumbent
    rng = random.Random(list(Policy).index(policy))
    checked = purged = 0
    for _ in range(8):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.4)))
        toggles = rng.choice((BoundToggles(), BoundToggles(lookahead=False),
                              BoundToggles(equivalent_points=False)))
        run = _Run(ds, SearchConfig(lam=Fraction(1, rng.choice((20, 50))),
                                    policy=policy, toggles=toggles,
                                    max_trees=rng.randint(200, 2000)))
        margin_s = run.lam_s if toggles.lookahead else 0
        pop = run.queue.pop

        def checked_pop(*args):
            nonlocal checked
            for e in run.queue.trees():
                floor_s = e[B0_S] if toggles.equivalent_points else 0
                assert e[B_S] + floor_s + margin_s < run.best_s
                checked += 1
            return pop(*args)
        run.queue.pop = checked_pop
        purged += run.run().stats.queue_purged
    assert checked > 1000 and purged > 0


def test_the_stores_hold_only_live_trees_after_every_turn(monkeypatch):
    # through ``fit``, at the start of every loop turn: every queued entry
    # and every child the last turn pushed has bound plus floor below the
    # live limit, and every tree the tree cache holds has its bound below
    # it, whatever the policy and the toggles.  When the incumbent falls,
    # one block of the run keeps that so for all three
    turns = pushed_in = stored = purges = 0
    pushed = []
    push, tripped = SearchQueue.push, _Run._limit_tripped

    def recording_push(queue, entries):
        pushed.extend(entries)
        return push(queue, entries)

    def checking_tripped(run):
        nonlocal turns, pushed_in, stored
        # the incumbent less lam under lookahead; no floor without
        # equivalent points
        toggles = run.config.toggles
        limit_s = run.best_s - (run.lam_s if toggles.lookahead else 0)
        assert all(e[B_S] + (e[B0_S] if toggles.equivalent_points else 0)
                   < limit_s for e in list(run.queue.trees()) + pushed)
        assert all(b_s < limit_s for b_s in run.tree_cache._store.values())
        turns += 1
        pushed_in += len(pushed)
        stored += len(run.tree_cache)
        pushed.clear()
        return tripped(run)

    monkeypatch.setattr(SearchQueue, "push", recording_push)
    monkeypatch.setattr(_Run, "_limit_tripped", checking_tripped)
    rng = random.Random(28)
    names = [f.name for f in fields(BoundToggles)
             if f.name != "permutation_cache"]
    for _ in range(4):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.4)))
        lam = Fraction(1, rng.choice((15, 30, 60)))
        for policy in Policy:
            for permutation_cache in (False, True):
                toggles = BoundToggles(
                    permutation_cache=permutation_cache,
                    **{name: rng.random() < 0.5 for name in names})
                pushed.clear()
                res = fit(ds, SearchConfig(lam=lam, policy=policy,
                                           toggles=toggles, max_trees=1500))
                purges += res.stats.queue_purged + res.stats.tree_cache_purged
    assert turns > 10000 and pushed_in > 10000 and stored > 10 ** 6
    assert purges > 200


def test_ablations_preserve_answer(noisy_ds):
    lam = Fraction(1, 20)
    reference = fit(noisy_ds, SearchConfig(lam=lam)).objective
    for field in ("lookahead", "node_support", "incremental_accuracy",
                  "leaf_accuracy", "equivalent_points", "permutation_cache"):
        toggles = BoundToggles(**{field: False})
        res = fit(noisy_ds, SearchConfig(lam=lam, toggles=toggles))
        assert res.certified, field
        assert res.objective == reference, field
    on = BoundToggles(similar_support=True)
    res = fit(noisy_ds, SearchConfig(lam=lam, toggles=on))
    assert res.certified and res.objective == reference


def test_stats_populated(noisy_ds):
    res = fit(noisy_ds, SearchConfig(lam=Fraction(1, 20)))
    s = res.stats
    assert s.trees_evaluated >= 1
    assert 0 <= s.trees_to_optimum <= s.trees_evaluated
    assert s.total_time >= s.time_to_optimum >= 0
    assert s.leaf_cache_size >= 1
    assert res.trace  # final record always present
    assert res.trace[-1].trees_evaluated == s.trees_evaluated


def test_the_run_frees_its_stores_before_it_ends():
    # a certified and a stopped fit: the stats keep the stores' sizes, and
    # the stores are empty once run() returns, so total_time covers their
    # teardown
    ds = random_dataset(random.Random(4), 60, 6)
    for limit in ({}, {"max_trees": 300}):
        run = _Run(ds, SearchConfig(lam=Fraction(1, 60), **limit))
        queue = run.queue
        res = run.run()
        assert res.certified == (not limit)
        s = res.stats
        assert len(queue) == (0 if res.certified else res.trace[-1].queue_size)
        assert s.leaf_cache_size > 0 and s.tree_cache_size > 0 \
            and s.split_tables > 0
        assert (len(run.queue), len(run.leaf_cache), len(run.tree_cache),
                run.split_tables) == (0, 0, 0, {})


def _limit_ds():
    return random_dataset(random.Random(7), 200, 10)


def test_max_trees_one_stops_at_root():
    res = fit(_limit_ds(), SearchConfig(lam=Fraction(1, 100), max_trees=1))
    assert res.stats.trees_evaluated == 1
    assert res.stats.limit_hit == "max_trees"
    assert not res.certified


@pytest.mark.parametrize("limit", [{"max_trees": 1}, {"time_limit": 0.0}])
def test_limit_keeps_certificate_when_no_work_is_left(limit):
    # one label only: the root is optimal and nothing is ever queued
    ds = from_rows(["a", "b"], [[0, 1], [1, 0], [1, 1]], [1, 1, 1])
    res = fit(ds, SearchConfig(lam=Fraction(1, 100), **limit))
    assert res.certified and res.stats.limit_hit is None
    if "max_trees" not in limit:
        return
    # a refit that may evaluate as many trees as the certified fit did
    # reaches its limit right after the last expansion that evaluates a
    # tree.  When that leaves the queue empty, nothing is left to search,
    # so it is certified; a refit stopped with work left is not
    rng = random.Random(300)
    empty_stops = work_stops = 0
    for _ in range(60):
        ds = random_dataset(rng, rng.randint(15, 45), rng.randint(3, 5))
        lam = Fraction(1, rng.choice((30, 100)))
        optimum = exhaustive_optimum(ds, lam).objective
        done = fit(ds, SearchConfig(lam=lam))
        run = _Run(ds, SearchConfig(
            lam=lam, max_trees=done.stats.trees_evaluated))
        queue = run.queue  # the run drops it when it finishes
        res = run.run()
        assert res.objective - res.gap <= optimum <= res.objective
        assert res.stats.trees_evaluated == done.stats.trees_evaluated
        if res.certified:
            assert res.stats.limit_hit is None and res.gap == 0
            assert res.objective == optimum
            assert len(queue) == 0
            empty_stops += 1
        else:
            assert res.stats.limit_hit == "max_trees" and res.gap > 0
            work_stops += 1
    assert empty_stops > 5 and work_stops > 5


@pytest.mark.parametrize("k", [2, 10, 50, 300])
def test_max_trees_overshoots_by_at_most_one_expansion(k):
    # the limit is checked before every expansion, and one expansion
    # evaluates at most four children (flag pairs) per feature
    ds = _limit_ds()
    res = fit(ds, SearchConfig(lam=Fraction(1, 100), max_trees=k))
    assert res.stats.limit_hit == "max_trees"
    assert k <= res.stats.trees_evaluated <= k + 4 * ds.n_features


def test_time_limit_covers_equivalence_index(monkeypatch):
    import time

    import opttree.search as search
    real = search.build_equivalence_index

    def slow_index(ds):
        time.sleep(0.2)
        return real(ds)
    monkeypatch.setattr(search, "build_equivalence_index", slow_index)
    res = fit(_limit_ds(), SearchConfig(lam=Fraction(1, 100),
                                        time_limit=0.1))
    assert res.stats.limit_hit == "time_limit"
    assert res.stats.total_time >= 0.2
    assert not res.certified


def _outcome(res):
    """Everything a fit reports but its times: stats, answer, leaf keys
    and trace records."""
    stats = {k: v for k, v in vars(res.stats).items()
             if k not in ("total_time", "time_to_optimum")}
    trace = [(r.trees_evaluated, r.best_objective, r.min_queue_lower_bound,
              r.queue_size, r.log10_remaining_bound, r.remaining_bound)
             for r in res.trace]
    return (stats, res.objective, res.gap, res.certified,
            [leaf.key for leaf in res.best_tree.leaves],
            _flags(res.best_tree), trace)


def test_row_order_does_not_change_a_result():
    # 4 000 rows drawn from 32 possible rows, labelled by a planted rule
    # with noise; row classes are numbered by first occurrence, so a
    # permutation of the rows renumbers them
    rng = random.Random(4000)
    rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(4000)]
    labels = [(r[0] & r[2] | r[1] & ~r[0] & 1) ^ (rng.random() < 0.15)
              for r in rows]
    names = [f"f{j}" for j in range(5)]
    ds = from_rows(names, rows, labels)
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = from_rows(names, [rows[i] for i in order],
                         [labels[i] for i in order])
    config = SearchConfig(lam=Fraction(1, 200), trace_interval=20)
    res = fit(ds, config)
    assert res.certified and res.gap == 0
    assert res.objective == exhaustive_optimum(ds, config.lam).objective
    res.best_tree.check_partition()
    assert len(res.trace) > 5
    again = fit(shuffled, config)
    again.best_tree.check_partition()
    assert _outcome(again) == _outcome(res)


def test_a_fit_digest_slice_repeats():
    # tests/fit_digest.py digests every figure of its fits but their times;
    # the same 20 seeded fits, run twice, digest alike
    assert fit_digest(20) == fit_digest(20)
