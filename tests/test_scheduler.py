import math
from dataclasses import replace
from fractions import Fraction

import pytest

from opttree.dataset import build_equivalence_index, from_rows
from opttree.scheduler import Policy, SearchQueue, priority
from opttree.tree import Clause, TreeState, make_leaf, root_tree, sort_leaves


@pytest.fixture
def ds():
    # f0 splits 4/4; labels give each side one mistake
    rows = [[0, 0], [0, 1], [0, 0], [0, 1],
            [1, 0], [1, 1], [1, 0], [1, 1]]
    labels = [1, 1, 1, 0, 0, 0, 0, 1]
    return from_rows(["a", "b"], rows, labels)


def _split_tree(ds, splittable=(False, True), lam=Fraction(1, 10)):
    eq = build_equivalence_index(ds)
    l0 = make_leaf([Clause(0, False)], ds, eq, lam)
    l1 = make_leaf([Clause(0, True)], ds, eq, lam)
    leaves, flags = sort_leaves((l0, l1), splittable)
    return TreeState(leaves=leaves, splittable=flags, h=2,
                     n_samples=ds.n_samples, lam=lam, generation=1)


def test_bfs_dfs_priorities(ds):
    lam = Fraction(1, 10)
    root = root_tree(ds, lam, build_equivalence_index(ds))
    t = _split_tree(ds)
    assert priority(root, Policy.BFS, ds) == 0
    assert priority(t, Policy.BFS, ds) == 2
    assert priority(t, Policy.DFS, ds) == -2


def test_bound_and_objective_priorities(ds):
    t = _split_tree(ds)
    assert priority(t, Policy.LOWER_BOUND, ds) == t.lower_bound
    assert priority(t, Policy.OBJECTIVE, ds) == t.objective
    assert t.lower_bound == Fraction(1, 8) + Fraction(2, 10)


def test_curiosity_priority(ds):
    lam = Fraction(1, 10)
    root = root_tree(ds, lam, build_equivalence_index(ds))
    assert priority(root, Policy.CURIOSITY, ds) == root.lower_bound
    t = _split_tree(ds)  # unchanged leaf captures 4 of 8
    assert priority(t, Policy.CURIOSITY, ds) \
        == t.lower_bound / Fraction(4, 8)


def test_entropy_and_gini_priorities(ds):
    t = _split_tree(ds)  # splittable leaf: 4 captured, 1 one-label
    p = 1 / 4
    expected_h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert priority(t, Policy.ENTROPY, ds) \
        == pytest.approx(4 / 8 * expected_h2)
    assert priority(t, Policy.GINI, ds) \
        == Fraction(4, 8) * 2 * Fraction(1, 4) * Fraction(3, 4)


def test_queue_orders_and_breaks_ties_by_generation(ds):
    lam = Fraction(1, 10)
    q = SearchQueue(Policy.LOWER_BOUND, ds)
    a = _split_tree(ds, (False, True), lam)
    b = _split_tree(ds, (True, False), lam)
    c = _split_tree(ds, (True, True), lam)  # lower b: nothing unchanged
    a = replace(a, generation=2)
    b = replace(b, generation=3)
    c = replace(c, generation=4)
    q.push(a)
    q.push(b)
    q.push(c)
    assert q.pop() is c  # strictly smaller bound first
    assert q.pop() is a  # tie between a and b: earlier generation
    assert q.pop() is b
    assert q.pop() is None


def test_queue_lazy_invalidation(ds):
    q = SearchQueue(Policy.BFS, ds)
    a = _split_tree(ds)
    q.push(a)
    assert q.pop(is_live=lambda t: False) is None
    assert len(q) == 0


def test_queue_max_size_and_min_bound(ds):
    q = SearchQueue(Policy.BFS, ds)
    a = _split_tree(ds, (False, True))
    b = replace(_split_tree(ds, (True, True)), generation=2)
    q.push(a)
    q.push(b)
    assert q.max_size == 2
    assert q.min_lower_bound() == min(a.lower_bound, b.lower_bound)
    assert q.min_lower_bound(lambda t: t is a) == a.lower_bound
    assert sorted(t.generation for t in q.trees()) == [1, 2]
