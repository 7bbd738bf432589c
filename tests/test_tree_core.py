import random
from fractions import Fraction

import pytest

from opttree.dataset import build_equivalence_index, from_rows
from opttree.search import SearchConfig, _Run
from opttree.tree import (B0_S, B_S, N_LEAVES, R_S, Clause, and_clauses,
                          as_entry, build_tree, canonical_clauses,
                          child_keys, make_child_leaf, make_leaf, objective,
                          root_tree)
from tests.conftest import expand, lower_bound, make_tree, random_dataset


def _eq(ds):
    return build_equivalence_index(ds)


def test_canonical_clauses_orders_and_rejects_duplicates():
    key = canonical_clauses([Clause(3, True), Clause(1, False)])
    assert key == (Clause(1, False), Clause(3, True))
    with pytest.raises(ValueError):
        canonical_clauses([Clause(1, True), Clause(1, False)])


def test_root_tree_minority_fraction():
    ds = from_rows(["a"], [[0]] * 6, [1, 1, 1, 1, 0, 1])
    lam = Fraction(1, 100)
    tree = root_tree(ds, _eq(ds))
    assert objective(tree, lam) == Fraction(1, 6)
    assert lower_bound(tree, lam) == 0
    assert tree.h == 0


def test_root_tree_pure_labels():
    ds = from_rows(["a"], [[0], [1]], [1, 1])
    tree = root_tree(ds, _eq(ds))
    assert objective(tree, Fraction(1, 10)) == 0


def test_root_tree_tie_predicts_zero():
    ds = from_rows(["a"], [[0], [1]], [1, 0])
    tree = root_tree(ds, _eq(ds))
    assert tree.split[0].prediction == 0
    assert objective(tree, Fraction(1, 10)) == Fraction(1, 2)


def test_make_child_leaf_counts():
    # parent captures 10; the negative literal keeps 6, of which 5 labeled 1
    rows = [[0, 1]] * 5 + [[0, 0]] + [[1, 0]] * 4
    labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    ds = from_rows(["a", "b"], rows, labels)
    eq = _eq(ds)
    parent = make_leaf([], eq)
    assert parent.n_captured == 10
    key = child_keys(parent, 0)[0]
    child = make_child_leaf(key, eq.all_classes, 0, eq)
    assert child.key is key and key == (Clause(0, False),)
    assert child.n_captured == 6
    assert child.prediction == 1
    assert child.mistakes == 1
    # each feature's literals are made once, not per call
    assert child_keys(parent, 0)[0][0] is key[0]


def test_make_child_leaf_empty_is_dead():
    ds = from_rows(["a"], [[1], [1]], [0, 1])
    lam = Fraction(1, 100)
    run = _Run(ds, SearchConfig(lam=lam))
    parent = make_leaf([Clause(0, True)], run.eq)
    # a split table never extends a leaf on a feature it uses
    assert run._split_table(parent) == []
    empty = make_leaf([Clause(0, False)], run.eq)
    assert empty.n_captured == 0
    # a leaf is split only once a split table made it, and the root's
    # table refuses the split that would make this one
    root = root_tree(ds, run.eq).split[0]
    assert run._split_table(root) == []


def test_dead_threshold_arithmetic():
    # lam=1/100, N=1000: support 15 < 2*lam*N = 20 -> closed
    rows = [[1]] * 15 + [[0]] * 985
    ds = from_rows(["a"], rows, [1] * 15 + [0] * 985)
    lam = Fraction(1, 100)
    run = _Run(ds, SearchConfig(lam=lam))
    root = root_tree(ds, run.eq).split[0]
    # the root's one split may keep only the 985-sample leaf to split
    ((f, other, leaf, flag_pairs),) = run._split_table(root)
    assert f == 0 and leaf.key == (Clause(0, True),)
    assert leaf.n_captured == 15 and other.n_captured == 985
    assert flag_pairs == ((False, False), (True, False))
    assert run.q * leaf.n_captured < run.support_s \
        <= run.q * other.n_captured


def test_objective_examples():
    ds = from_rows(["a"], [[0]] * 8, [1, 1, 0, 0, 1, 1, 1, 1])
    lam = Fraction(1, 100)
    tree = root_tree(ds, _eq(ds))
    assert objective(tree, lam) == Fraction(1, 4)

    rows = [[0], [1]]
    ds2 = from_rows(["a"], rows, [0, 1])
    eq2 = _eq(ds2)
    l0 = make_leaf([Clause(0, False)], eq2)
    l1 = make_leaf([Clause(0, True)], eq2)
    two = make_tree(ds2, unchanged=(l1, l0))
    assert two.leaves == (l0, l1)
    assert objective(two, lam) == Fraction(2, 100)
    assert objective(two, lam) == lower_bound(two, lam)  # nothing to split


def _random_tree(ds, eq, rng):
    """Random split sequence from the root; returns a valid TreeState with
    at least one leaf to split."""
    leaves = [make_leaf([], eq)]
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
        k1, k2 = child_keys(parent, f)
        leaves += [make_child_leaf(k1, capture, f, eq), make_leaf(k2, eq)]
    rng.shuffle(leaves)
    k = rng.randint(1, len(leaves))
    return make_tree(ds, unchanged=leaves[k:], split=leaves[:k])


def scratch_bounds(tree, lam):
    """Lower bound, objective and equivalent-points floor summed from the
    leaves as rationals, the paper's formulas."""
    n = tree.ds.n_samples
    b = Fraction(sum(l.mistakes for l in tree.unchanged), n) + lam * tree.h
    r = b + Fraction(sum(l.mistakes for l in tree.split), n)
    b0 = Fraction(sum(l.b0_count for l in tree.split), n)
    return b, r, b0


def priced_bounds(entry, n, lam):
    """The lower bound, objective and equivalent-points floor the search
    priced a child at, read from its queue entry."""
    scale = n * lam.denominator
    return tuple(Fraction(entry[i], scale) for i in (B_S, R_S, B0_S))


def test_incremental_equals_scratch_on_random_pairs():
    """The search prices children at the sums that ``as_entry`` takes
    from scratch over their leaves, which are the paper's bounds, and
    never below their parent's bound."""
    rng = random.Random(42)
    lam = Fraction(1, 20)
    checked = 0
    while checked < 1000:
        ds = random_dataset(rng, rng.randint(4, 25), rng.randint(2, 4))
        eq = build_equivalence_index(ds)
        parent = _random_tree(ds, eq, rng)
        best = Fraction(rng.randint(1, 20), 20)
        for entry in expand(parent, ds, eq, SearchConfig(lam=lam), best):
            child = build_tree(entry)
            child.check_partition()
            assert entry[:N_LEAVES + 1] \
                == as_entry(child, lam)[:N_LEAVES + 1]
            b, r, b0 = priced_bounds(entry, ds.n_samples, lam)
            assert (b, r, b0) == scratch_bounds(child, lam)
            assert lower_bound(parent, lam) <= b <= r
            checked += 1


def test_partition_check(toy_ds):
    eq = _eq(toy_ds)
    tree = root_tree(toy_ds, eq)
    tree.check_partition()
    l0 = make_leaf([Clause(0, False)], eq)
    broken = make_tree(toy_ds, split=(l0,))
    with pytest.raises(AssertionError):
        broken.check_partition()


def test_lower_bound_le_objective(toy_ds):
    lam = Fraction(1, 10)
    tree = root_tree(toy_ds, _eq(toy_ds))
    assert lower_bound(tree, lam) <= objective(tree, lam)
