import random
from fractions import Fraction
from itertools import product

import pytest

from opttree.bounds import BoundToggles
from opttree.caches import tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.oracle import exhaustive_optimum
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run, expand, fit
from opttree.tree import Clause, root_tree
from tests.conftest import expanded_trees, random_dataset


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
    assert [(leaf.key, s) for leaf, s in zip(a.best_tree.leaves,
                                             a.best_tree.splittable)] \
        == [(leaf.key, s) for leaf, s in zip(b.best_tree.leaves,
                                             b.best_tree.splittable)]
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
    assert res.stats.limit_hit is not None
    assert "cache" in res.stats.limit_hit
    assert not res.certified


def test_cache_limit_must_be_positive(toy_ds):
    with pytest.raises(ValueError, match="max_cache_entries"):
        fit(toy_ds, SearchConfig(lam=Fraction(1, 100), max_cache_entries=0))


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


def test_expand_children_respect_hierarchy():
    # XOR labels: no depth-1 split improves the incumbent, so children
    # survive the gates and can be inspected
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    root = root_tree(ds, lam, eq)
    cfg = SearchConfig(lam=lam)
    children = expand(root, ds, eq, cfg, Fraction(1, 2))
    assert children
    for child in children:
        child.check_partition()
        assert child.lower_bound >= root.lower_bound
        assert child.lower_bound <= child.objective
        assert child.h == 2


def test_expand_prunes_by_best(toy_ds):
    lam = Fraction(1, 100)
    eq = build_equivalence_index(toy_ds)
    root = root_tree(toy_ds, lam, eq)
    cfg = SearchConfig(lam=lam)
    # best below 2*lam: every split child fails the hierarchical gate
    assert expand(root, toy_ds, eq, cfg, Fraction(1, 100)) == []


def test_expand_keeps_leaves_in_canonical_order(monkeypatch):
    """Children are built without sorting: their leaf keys must still be
    strictly increasing.  Within one run, whose leaves are interned, two
    children get equal ``tree_key``s exactly when they hold the same
    multiset of (leaf key, flag) pairs."""
    built = []
    evaluate = _Run._evaluate

    def recording(run, child):
        built.append(child)
        return evaluate(run, child)
    monkeypatch.setattr(_Run, "_evaluate", recording)
    rng = random.Random(7)
    repeats = 0
    for _ in range(100):
        ds = random_dataset(rng, rng.randint(10, 80), rng.randint(2, 5))
        lam = Fraction(1, rng.randint(10, 80))
        for tree in expanded_trees(ds, lam, rng, levels=5):
            keys = [leaf.key for leaf in tree.leaves]
            assert all(a < b for a, b in zip(keys, keys[1:]))
        # every child one fit's expansions build, duplicates included
        built.clear()
        fit(ds, SearchConfig(lam=lam, max_trees=3000))
        by_pairs: dict = {}
        for child in built:
            keys = [leaf.key for leaf in child.leaves]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            pairs = tuple(sorted(zip(keys, child.splittable)))
            by_pairs.setdefault(pairs, []).append(tree_key(child))
        tree_keys = {k for ks in by_pairs.values() for k in ks}
        assert len(tree_keys) == len(by_pairs)
        assert all(len(set(ks)) == 1 for ks in by_pairs.values())
        repeats += sum(len(ks) - 1 for ks in by_pairs.values())
    assert repeats > 0


def test_zero_gain_split_forbids_both_unchanged(monkeypatch):
    # XOR labels: any single split has zero gain, so with incremental
    # accuracy on no child of the root has both leaves unchanged.  Below an
    # incumbent of 1 such a child is priced in: with the bound off, the
    # first one is built and becomes the incumbent, which prices out the
    # second
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    root = root_tree(ds, lam, eq)
    built = []
    evaluate = _Run._evaluate

    def recording(run, child):
        built.append(child)
        return evaluate(run, child)

    monkeypatch.setattr(_Run, "_evaluate", recording)
    for incremental_accuracy, n_built, n_closed in ((True, 6, 0),
                                                    (False, 7, 1)):
        built.clear()
        config = SearchConfig(lam=lam, toggles=BoundToggles(
            incremental_accuracy=incremental_accuracy))
        assert expand(root, ds, eq, config, Fraction(1))
        assert len(built) == n_built
        assert sum(not any(c.splittable) for c in built) == n_closed
    monkeypatch.undo()
    res = fit(ds, SearchConfig(lam=lam))
    assert res.certified
    assert res.objective == Fraction(4, 100)


def test_permutation_dedup_counts_duplicates():
    # the label is a xor b, except that it is c where a = b = 1.  Splitting
    # the root on a and then both sides on b, or on b and then both sides
    # on a, reaches the same four leaves with a=b=1 still open, and
    # breadth-first that tree is still live when the second order builds it
    rows = [list(r) for r in product((0, 1), repeat=3)] * 2
    labels = [a ^ b ^ (a & b & c) for a, b, c in rows]
    ds = from_rows(["a", "b", "c"], rows, labels)
    run = _Run(ds, SearchConfig(lam=Fraction(1, 50), policy=Policy.BFS))
    duplicates = []
    evaluate = run._evaluate

    def recording(child):
        new = evaluate(child)
        if not new:
            duplicates.append((child, run._is_live(child)))
        return new

    run._evaluate = recording
    res = run.run()
    assert res.certified and res.objective == Fraction(1, 10)
    assert res.stats.duplicates_skipped == len(duplicates) == 1
    ((child, live),) = duplicates
    assert live
    assert [leaf.key for leaf in child.leaves] == [
        (Clause(0, a), Clause(1, b)) for a in (False, True)
        for b in (False, True)]
    assert child.splittable == (False, False, False, True)


@pytest.mark.parametrize("incremental_accuracy", [False, True])
def test_flagging_a_leaf_unchanged_gives_a_built_tree(incremental_accuracy):
    # no move reflags a leaf: a tree with one more leaf unchanged must come
    # from the splits that create that leaf unchanged.  With every other
    # bound off and the incumbent at the optimum, which no tree beats,
    # the only gate is the price: expanded breadth-first, every built tree
    # with any splittable leaf flagged unchanged is built too, unless the
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
        root = root_tree(ds, lam, eq)
        best_s = best * root.scale
        # each built tree with, for every leaf of a split that gained less
        # than lam and whose sibling is still a leaf, that sibling
        frontier, built = [(root, {})], []
        for _ in range(3):
            frontier = [(c, _siblings(t, c, deficit, incremental_accuracy))
                        for t, deficit in frontier
                        for c in expand(t, ds, eq, config, best)]
            built += frontier
        keys = {(tuple(l.key for l in t.leaves), t.splittable)
                for t, _ in built}
        for tree, deficit in built:
            flags = tree.splittable
            for i, leaf in enumerate(tree.leaves):
                forbidden = leaf in deficit \
                    and not flags[tree.leaves.index(deficit[leaf])]
                price = tree.b_s + lam.denominator * leaf.mistakes
                if not flags[i] or forbidden or price >= best_s:
                    continue
                unchanged = flags[:i] + (False,) + flags[i + 1:]
                assert (tuple(l.key for l in tree.leaves), unchanged) \
                    in keys
                checked += 1
    assert checked > 200


def _siblings(parent, child, deficit, incremental_accuracy):
    """``deficit`` for ``child``, given its ``parent``'s: the split leaf
    leaves it, and the two new leaves join it when their split gains less
    than lam and incremental accuracy is on."""
    (split,) = [l for l in parent.leaves if l not in child.leaves]
    c1, c2 = [l for l in child.leaves if l not in parent.leaves]
    kept = {l: o for l, o in deficit.items() if split not in (l, o)}
    gain = c1.n_correct + c2.n_correct - split.n_correct
    lam = child.lam
    if incremental_accuracy \
            and gain * lam.denominator < lam.numerator * child.n_samples:
        kept.update({c1: c2, c2: c1})
    return kept


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
            res.best_tree.splittable, trace)


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
