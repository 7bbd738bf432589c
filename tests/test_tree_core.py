import random
from fractions import Fraction

import pytest

from opttree.dataset import build_equivalence_index, from_rows
from opttree.search import SearchConfig, _Run, expand
from opttree.tree import (Clause, TreeState, and_clauses, canonical_clauses,
                          child_keys, make_child_leaf, make_leaf, objective,
                          root_tree, sort_leaves)
from tests.conftest import random_dataset


def _eq(ds):
    return build_equivalence_index(ds)


def test_canonical_clauses_orders_and_rejects_duplicates():
    key = canonical_clauses([Clause(3, True), Clause(1, False)])
    assert key == (Clause(1, False), Clause(3, True))
    with pytest.raises(ValueError):
        canonical_clauses([Clause(1, True), Clause(1, False)])


def test_root_tree_minority_fraction():
    ds = from_rows(["a"], [[0]] * 6, [1, 1, 1, 1, 0, 1])
    tree = root_tree(ds, Fraction(1, 100), _eq(ds))
    assert tree.objective == Fraction(1, 6)
    assert tree.lower_bound == 0
    assert tree.h == 0


def test_root_tree_pure_labels():
    ds = from_rows(["a"], [[0], [1]], [1, 1])
    tree = root_tree(ds, Fraction(1, 10), _eq(ds))
    assert tree.objective == 0


def test_root_tree_tie_predicts_zero():
    ds = from_rows(["a"], [[0], [1]], [1, 0])
    tree = root_tree(ds, Fraction(1, 10), _eq(ds))
    assert tree.leaves[0].prediction == 0
    assert tree.objective == Fraction(1, 2)


def test_make_child_leaf_counts():
    # parent captures 10; the child literal keeps 6, of which 5 labeled 1
    rows = [[1, 1]] * 5 + [[1, 0]] + [[0, 0]] * 4
    labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    ds = from_rows(["a", "b"], rows, labels)
    eq = _eq(ds)
    parent = make_leaf([], ds, eq)
    assert parent.n_captured == 10
    key = child_keys(parent, 0)[1]
    child = make_child_leaf(eq.all_classes, 0, True, key, ds, eq)
    assert child.key is key and key == (Clause(0, True),)
    assert child.n_captured == 6
    assert child.prediction == 1
    assert child.mistakes == 1


def _alone(leaf, lam):
    """A tree of ``leaf`` alone, flagged splittable."""
    return TreeState(leaves=(leaf,), splittable=(True,),
                     n_samples=leaf.ds.n_samples, lam=lam)


def test_make_child_leaf_empty_is_dead():
    ds = from_rows(["a"], [[1], [1]], [0, 1])
    lam = Fraction(1, 100)
    run = _Run(ds, SearchConfig(lam=lam))
    parent = make_leaf([Clause(0, True)], ds, run.eq)
    # a leaf cannot be extended on a feature it uses
    with pytest.raises(ValueError):
        child_keys(parent, 0)
    empty = make_leaf([Clause(0, False)], ds, run.eq)
    assert empty.n_captured == 0
    # node support never designates it, and the root's table refuses the
    # split that would make it
    assert run._expandable_index(_alone(empty, lam)) is None
    root = root_tree(ds, lam, run.eq).leaves[0]
    assert run._split_table(root)[1] == []


def test_dead_threshold_arithmetic():
    # lam=1/100, N=1000: support 15 < 2*lam*N = 20 -> closed
    rows = [[1]] * 15 + [[0]] * 985
    ds = from_rows(["a"], rows, [1] * 15 + [0] * 985)
    lam = Fraction(1, 100)
    run = _Run(ds, SearchConfig(lam=lam))
    root = root_tree(ds, lam, run.eq).leaves[0]
    # the root's one split may flag only the 985-sample leaf splittable
    ((f, other, leaf, flag_pairs),) = run._split_table(root)[1]
    assert f == 0 and leaf.key == (Clause(0, True),)
    assert leaf.n_captured == 15 and other.n_captured == 985
    assert flag_pairs == ((False, False), (True, False))
    assert run._expandable_index(_alone(leaf, lam)) is None
    assert run._expandable_index(_alone(other, lam)) == 0


def test_objective_examples():
    ds = from_rows(["a"], [[0]] * 8, [1, 1, 0, 0, 1, 1, 1, 1])
    lam = Fraction(1, 100)
    tree = root_tree(ds, lam, _eq(ds))
    assert objective(tree, lam) == Fraction(1, 4)

    rows = [[0], [1]]
    ds2 = from_rows(["a"], rows, [0, 1])
    eq2 = _eq(ds2)
    l0 = make_leaf([Clause(0, False)], ds2, eq2)
    l1 = make_leaf([Clause(0, True)], ds2, eq2)
    leaves, flags = sort_leaves((l0, l1), (False, False))
    two = TreeState(leaves=leaves, splittable=flags, n_samples=2, lam=lam)
    assert objective(two, lam) == Fraction(2, 100)
    assert two.objective == two.lower_bound  # terminal: no splittable error


def _random_tree(ds, eq, lam, rng):
    """Random split sequence from the root; returns a valid TreeState."""
    leaves = [make_leaf([], ds, eq)]
    for _ in range(rng.randint(0, 3)):
        candidates = [
            (i, f) for i, leaf in enumerate(leaves)
            for f in range(ds.n_features)
            if f not in {c.feature for c in leaf.clauses}
            and leaf.n_captured > 0
        ]
        if not candidates:
            break
        i, f = rng.choice(candidates)
        parent = leaves.pop(i)
        capture = and_clauses(eq, eq.all_classes, parent.clauses)
        for polarity in (False, True):
            leaves.append(make_child_leaf(capture, f, polarity,
                                          child_keys(parent, f)[polarity],
                                          ds, eq))
    flags = tuple(rng.random() < 0.5 for _ in leaves)
    sorted_leaves, sorted_flags = sort_leaves(tuple(leaves), flags)
    return TreeState(leaves=sorted_leaves, splittable=sorted_flags,
                     n_samples=ds.n_samples, lam=lam)


def scratch_bounds(tree, lam):
    """Lower bound, objective and equivalent-points floor summed from the
    leaves, independently of the sums the tree keeps."""
    n = tree.n_samples
    unchanged = [l for l, s in zip(tree.leaves, tree.splittable) if not s]
    split = [l for l, s in zip(tree.leaves, tree.splittable) if s]
    b = Fraction(sum(l.mistakes for l in unchanged), n) + lam * tree.h
    b0 = Fraction(sum(l.b0_count for l in split), n)
    return b, objective(tree, lam), b0


def test_incremental_equals_scratch_on_random_pairs():
    """Children the search builds carry the bounds that a from-scratch sum
    over their leaves gives, and never a smaller bound than their parent."""
    rng = random.Random(42)
    lam = Fraction(1, 20)
    checked = 0
    while checked < 1000:
        ds = random_dataset(rng, rng.randint(4, 25), rng.randint(2, 4))
        eq = build_equivalence_index(ds)
        parent = _random_tree(ds, eq, lam, rng)
        best = Fraction(rng.randint(1, 20), 20)
        for child in expand(parent, ds, eq, SearchConfig(lam=lam), best):
            child.check_partition()
            b, r, b0 = scratch_bounds(child, lam)
            assert child.lower_bound == b
            assert child.objective == r
            assert Fraction(child.b0_s, child.scale) == b0
            assert parent.lower_bound <= child.lower_bound <= child.objective
            checked += 1


def test_partition_check(toy_ds):
    lam = Fraction(1, 10)
    eq = _eq(toy_ds)
    tree = root_tree(toy_ds, lam, eq)
    tree.check_partition()
    l0 = make_leaf([Clause(0, False)], toy_ds, eq)
    broken = TreeState(leaves=(l0,), splittable=(True,),
                       n_samples=toy_ds.n_samples, lam=lam)
    with pytest.raises(AssertionError):
        broken.check_partition()


def test_lower_bound_le_objective(toy_ds):
    lam = Fraction(1, 10)
    tree = root_tree(toy_ds, lam, _eq(toy_ds))
    assert tree.lower_bound <= tree.objective
