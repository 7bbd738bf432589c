import random
from fractions import Fraction

from opttree.dataset import build_equivalence_index, from_rows
from opttree.greedy import GreedyParams, greedy_fit
from opttree.tree import objective
from tests.conftest import random_dataset


def test_perfect_split_found(toy_ds):
    tree = greedy_fit(toy_ds, GreedyParams(max_depth=1))
    assert tree.split == ()
    assert len(tree.leaves) == 2
    assert sum(l.mistakes for l in tree.leaves) == 0
    assert {c.feature for leaf in tree.leaves for c in leaf.clauses} == {0}


def test_depth_zero_effect_and_pure_node_stops():
    ds = from_rows(["a"], [[0], [1]], [1, 1])
    tree = greedy_fit(ds, GreedyParams(max_depth=3))
    assert len(tree.leaves) == 1  # pure labels: no reduction available
    assert tree.h == 0
    assert objective(tree, Fraction(1, 10)) == 0


def test_tie_breaks_to_lowest_feature():
    # f0 and f1 are identical columns; f0 must win the tie
    rows = [[0, 0, 1], [0, 0, 0], [1, 1, 1], [1, 1, 0]]
    ds = from_rows(["a", "b", "c"], rows, [1, 1, 0, 0])
    tree = greedy_fit(ds, GreedyParams(max_depth=1))
    assert {c.feature for leaf in tree.leaves for c in leaf.clauses} == {0}


def test_min_leaf_samples_blocks_unbalanced_split():
    rows = [[1], [0], [0], [0]]
    ds = from_rows(["a"], rows, [1, 0, 0, 0])
    grown = greedy_fit(ds, GreedyParams(max_depth=1))
    assert len(grown.leaves) == 2
    blocked = greedy_fit(ds, GreedyParams(max_depth=1, min_leaf_samples=2))
    assert len(blocked.leaves) == 1


def test_greedy_objective_consistency_random():
    rng = random.Random(8)
    lam = Fraction(1, 20)
    for _ in range(50):
        ds = random_dataset(rng, rng.randint(4, 30), rng.randint(2, 4))
        tree = greedy_fit(ds, GreedyParams(max_depth=ds.n_features))
        tree.check_partition()
        assert tree.split == ()
        assert objective(tree, lam) == Fraction(
            sum(l.mistakes for l in tree.leaves), ds.n_samples) \
            + lam * tree.h
        # never worse than predicting the majority class outright
        majority = min(ds.label_one_count,
                       ds.n_samples - ds.label_one_count)
        assert sum(l.mistakes for l in tree.leaves) <= majority
