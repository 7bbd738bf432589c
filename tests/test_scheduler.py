import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree.dataset import build_equivalence_index, from_rows
from opttree.scheduler import Policy, SearchQueue, priority
from opttree.search import SearchConfig, _Run
from opttree.tree import (B_S, Clause, TreeState, as_entry, build_tree,
                          make_leaf, root_tree, sort_leaves)
from tests.conftest import expanded_trees, random_dataset


@pytest.fixture
def ds():
    # f0 splits 4/4; labels give each side one mistake
    rows = [[0, 0], [0, 1], [0, 0], [0, 1],
            [1, 0], [1, 1], [1, 0], [1, 1]]
    labels = [1, 1, 1, 0, 0, 0, 0, 1]
    return from_rows(["a", "b"], rows, labels)


def _split_tree(ds, splittable=(False, True), lam=Fraction(1, 10)):
    eq = build_equivalence_index(ds)
    l0 = make_leaf([Clause(0, False)], eq)
    l1 = make_leaf([Clause(0, True)], eq)
    leaves, flags = sort_leaves((l0, l1), splittable)
    return TreeState(leaves=leaves, splittable=flags,
                     n_samples=ds.n_samples, lam=lam)


def test_bfs_dfs_priorities(ds):
    lam = Fraction(1, 10)
    root = root_tree(ds, lam, build_equivalence_index(ds))
    t = _split_tree(ds)
    assert priority(root, Policy.BFS, ds) == 0
    assert priority(t, Policy.BFS, ds) == 2
    assert priority(t, Policy.DFS, ds) == -2


def test_bound_and_objective_priorities(ds):
    # keys are the bounds scaled by N*q = 80
    t = _split_tree(ds)
    assert t.lower_bound == Fraction(1, 8) + Fraction(2, 10)
    assert priority(t, Policy.LOWER_BOUND, ds) == t.lower_bound * 80 == 26
    assert priority(t, Policy.OBJECTIVE, ds) == t.objective * 80 == 36


def test_curiosity_priority(ds):
    # key = floor(N^2 * b_s / c): b_s/(q*c) scaled by q*N^2 = 640
    lam = Fraction(1, 10)
    root = root_tree(ds, lam, build_equivalence_index(ds))
    assert priority(root, Policy.CURIOSITY, ds) \
        == root.lower_bound * 8 * 80 == 0  # nothing unchanged: c = N
    t = _split_tree(ds)  # unchanged leaf captures 4 of 8
    assert priority(t, Policy.CURIOSITY, ds) \
        == t.lower_bound / Fraction(4, 8) * 8 * 80 == 416


def _curiosity_reference(tree):
    """The rational curiosity key: lower bound over the fraction of
    samples that unchanged leaves hold (all of them when none)."""
    n = tree.n_samples
    held = sum(l.n_captured for l, s in zip(tree.leaves, tree.splittable)
               if not s)
    return tree.lower_bound / Fraction(held or n, n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), m=st.integers(1, 5), p=st.integers(1, 3),
       q=st.integers(4, 90), seed=st.integers(0, 2 ** 32 - 1))
def test_integer_keys_order_and_tie_as_rationals(n, m, p, q, seed):
    rng = random.Random(seed)
    ds = random_dataset(rng, n, m, duplicate_bias=rng.choice((0.0, 0.5)))
    trees = expanded_trees(ds, Fraction(p, q), rng)
    references = {Policy.CURIOSITY: _curiosity_reference,
                  Policy.LOWER_BOUND: lambda t: t.lower_bound,
                  Policy.OBJECTIVE: lambda t: t.objective}
    for policy, reference in references.items():
        pairs = sorted(((reference(t), priority(t, policy, ds))
                        for t in trees), key=lambda rk: rk[0])
        assert all(type(k) is int for _, k in pairs)
        for (ra, ka), (rb, kb) in zip(pairs, pairs[1:]):
            assert (ka < kb) if ra < rb else (ka == kb)


def test_entropy_and_gini_priorities(ds):
    t = _split_tree(ds)  # splittable leaf: 4 captured, 1 one-label
    p = 1 / 4
    expected_h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert priority(t, Policy.ENTROPY, ds) \
        == pytest.approx(4 / 8 * expected_h2)
    assert priority(t, Policy.GINI, ds) \
        == Fraction(4, 8) * 2 * Fraction(1, 4) * Fraction(3, 4)


def test_queue_pops_equal_keys_in_push_order(ds):
    q = SearchQueue(Policy.LOWER_BOUND, ds)
    a, b, c = (as_entry(_split_tree(ds, flags)) for flags in
               ((False, True), (True, False), (True, True)))
    # c has the lower bound: nothing unchanged
    assert a[B_S] == b[B_S] > c[B_S] and build_tree(a) != build_tree(b)
    q.push([b, a])
    q.push([c])
    assert q.pop() is c  # strictly smaller bound first
    assert q.pop() is b  # tie between a and b: pushed first
    assert q.pop() is a
    assert q.pop() is None


def test_queue_keys_a_child_by_its_sums():
    # entries priced from one parent, below an incumbent of 1 that no
    # child replaces, are keyed and popped as the trees they build, under
    # every policy
    rng = random.Random(4)
    ds = random_dataset(rng, 40, 5)
    lam = Fraction(1, 40)
    root = root_tree(ds, lam, build_equivalence_index(ds))
    for policy in Policy:
        run = _Run(ds, SearchConfig(lam=lam, policy=policy))
        run.best_s = root.scale
        run._set_best = lambda tree: None
        entries = run.expand(root)
        assert len(entries) > 10
        q = SearchQueue(policy, ds)
        q.push(entries)
        keys = sorted((priority(build_tree(e), policy, ds), i)
                      for i, e in enumerate(entries))
        assert [q.pop() for _ in entries] == [entries[i] for _, i in keys]


def test_queue_lazy_invalidation(ds):
    q = SearchQueue(Policy.BFS, ds)
    q.push([as_entry(_split_tree(ds))])
    assert q.pop(is_live=lambda e: False) is None
    assert len(q) == 0


def test_queue_max_size_and_min_bound(ds):
    q = SearchQueue(Policy.BFS, ds)
    a = as_entry(_split_tree(ds, (False, True)))
    b = as_entry(_split_tree(ds, (True, True)))
    q.push([a, b])
    assert q.max_size == 2
    q.push([])
    assert q.max_size == 2
    assert build_tree(b).lower_bound < build_tree(a).lower_bound
    assert q.min_lower_bound() is b
    assert q.min_lower_bound(lambda e: e is a) is a
    assert q.min_lower_bound(lambda e: False) is None
    assert {id(e) for e in q.trees()} == {id(a), id(b)}
    assert q.buckets == {(a[B_S], 2): 1, (b[B_S], 2): 1}
