import random
from fractions import Fraction

import pytest

from opttree.bounds import BoundToggles
from opttree.caches import tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.oracle import exhaustive_optimum
from opttree.scheduler import Policy
from opttree.search import SearchConfig, expand, fit
from opttree.tree import root_tree
from tests.conftest import expanded_trees, random_dataset


def test_lambda_must_be_positive(toy_ds):
    with pytest.raises(ValueError, match="lam"):
        fit(toy_ds, SearchConfig(lam=Fraction(0)))


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


def test_warm_start_changes_work_not_answer(noisy_ds):
    lam = Fraction(1, 20)
    with_ws = fit(noisy_ds, SearchConfig(lam=lam, warm_start=True))
    without = fit(noisy_ds, SearchConfig(lam=lam, warm_start=False))
    assert with_ws.objective == without.objective
    assert with_ws.certified and without.certified


def test_deterministic_runs(noisy_ds):
    a = fit(noisy_ds, SearchConfig(lam=Fraction(1, 20)))
    b = fit(noisy_ds, SearchConfig(lam=Fraction(1, 20)))
    assert a.objective == b.objective
    assert tree_key(a.best_tree) == tree_key(b.best_tree)
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


def test_expand_keeps_leaves_in_canonical_order():
    """Children are built without sorting: their leaf keys must still be
    strictly increasing, so ``tree_key`` is the sorted (key, flag) set."""
    rng = random.Random(7)
    for _ in range(100):
        ds = random_dataset(rng, rng.randint(10, 80), rng.randint(2, 5))
        lam = Fraction(1, rng.randint(10, 80))
        for tree in expanded_trees(ds, lam, rng, levels=5):
            keys = [leaf.key for leaf in tree.leaves]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert tree_key(tree) == tuple(sorted(zip(keys,
                                                      tree.splittable)))


def test_zero_gain_split_forbids_both_unchanged():
    # XOR labels: any single split has zero gain, so the both-unchanged
    # assignment must not be generated
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    root = root_tree(ds, lam, eq)
    children = expand(root, ds, eq, SearchConfig(lam=lam), Fraction(1, 2))
    assert children
    for child in children:
        if child.h == 2:
            assert any(child.splittable)
            assert child.must_split_pairs
    res = fit(ds, SearchConfig(lam=lam))
    assert res.certified
    assert res.objective == Fraction(4, 100)


def test_permutation_dedup_counts_duplicates():
    # deep enough search that the same leaf set is reached in two orders
    rng = random.Random(0)
    ds = random_dataset(rng, 30, 4, duplicate_bias=0.3)
    res = fit(ds, SearchConfig(lam=Fraction(1, 60), warm_start=False))
    assert res.certified
    assert res.stats.duplicates_skipped > 0


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
    # evaluates at most a retire child plus four children per feature
    ds = _limit_ds()
    res = fit(ds, SearchConfig(lam=Fraction(1, 100), max_trees=k))
    assert res.stats.limit_hit == "max_trees"
    assert k <= res.stats.trees_evaluated <= k + 4 * ds.n_features + 1


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
