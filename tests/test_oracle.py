import itertools
import random
from fractions import Fraction

import pytest

from opttree import oracle
from opttree.dataset import (build_equivalence_index, from_rows,
                             weighted_count)
from opttree.oracle import OracleResourceError, exhaustive_optimum
from opttree.tree import TreeState, make_leaf, objective, sort_leaves
from tests.conftest import random_dataset


def parity_dataset(bits: int, copies: int):
    """Every ``bits``-bit row ``copies`` times, labelled by its parity."""
    rows = [list(r) for r in itertools.product((0, 1), repeat=bits)] \
        * copies
    return from_rows([f"f{j}" for j in range(bits)], rows,
                     [sum(r) % 2 for r in rows])


def test_lambda_must_be_exact(toy_ds):
    with pytest.raises(ValueError, match="not float"):
        exhaustive_optimum(toy_ds, 0.02)
    assert exhaustive_optimum(toy_ds, 1).objective == Fraction(1, 2)


def test_root_only_when_lambda_large(toy_ds):
    res = exhaustive_optimum(toy_ds, Fraction(1, 2))
    assert res.n_leaves == 1
    assert res.objective == Fraction(3, 6)  # minority fraction, no penalty
    assert res.leaf_keys == ((),)


def test_perfectly_separable(toy_ds):
    res = exhaustive_optimum(toy_ds, Fraction(1, 100))
    assert res.mistakes == 0
    assert res.n_leaves == 2
    assert res.objective == Fraction(2, 100)


def test_xor_needs_four_leaves():
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 3
    labels = [0, 1, 1, 0] * 3
    ds = from_rows(["a", "b"], rows, labels)
    res = exhaustive_optimum(ds, Fraction(1, 100))
    assert res.mistakes == 0
    assert res.n_leaves == 4
    assert res.objective == Fraction(4, 100)
    # larger penalty: 4 leaves cost more than the 6/12 error they save
    res_big = exhaustive_optimum(ds, Fraction(1, 4))
    assert res_big.n_leaves == 1
    assert res_big.objective == Fraction(6, 12)


def test_penalty_tradeoff_exact():
    # one split fixes 2 of 3 mistakes; worth it only when 2 lam < 2/8
    rows = [[0]] * 4 + [[1]] * 4
    labels = [1, 1, 1, 1, 0, 0, 0, 1]
    ds = from_rows(["a"], rows, labels)
    cheap = exhaustive_optimum(ds, Fraction(1, 16))
    assert cheap.n_leaves == 2 and cheap.mistakes == 1
    dear = exhaustive_optimum(ds, Fraction(1, 4))
    assert dear.n_leaves == 1 and dear.mistakes == 3


def test_parity_needs_more_than_32_leaves():
    # every one of the 64 rows needs a leaf of its own: 64 leaves, no
    # mistake, against the root's 1/2
    res = exhaustive_optimum(parity_dataset(6, 2), Fraction(1, 1000))
    assert res.objective == Fraction(8, 125)
    assert res.n_leaves == 64
    assert res.mistakes == 0


def test_witness_leaves_consistent(toy_ds):
    rng = random.Random(5)
    datasets = [(toy_ds, Fraction(1, 100))] + [
        (random_dataset(rng, rng.randint(2, 40), rng.randint(1, 6),
                        duplicate_bias=rng.choice((0.0, 0.4))),
         Fraction(1, rng.choice((3, 10, 30, 100, 1000))))
        for _ in range(100)]
    for ds, lam in datasets:
        res = exhaustive_optimum(ds, lam)
        eq = build_equivalence_index(ds)
        leaves, flags = sort_leaves(
            [make_leaf(k, ds, eq) for k in res.leaf_keys],
            [False] * len(res.leaf_keys))
        tree = TreeState(leaves=leaves, splittable=flags,
                         n_samples=ds.n_samples, lam=lam)
        tree.check_partition()
        assert tree.objective == objective(tree, lam) == res.objective
        assert sum(l.mistakes for l in leaves) == res.mistakes
        assert len(leaves) == res.n_leaves


def test_objective_floor_from_equivalent_points():
    rng = random.Random(13)
    for _ in range(20):
        ds = random_dataset(rng, rng.randint(4, 25), 3, duplicate_bias=0.5)
        lam = Fraction(1, 20)
        res = exhaustive_optimum(ds, lam)
        eq = build_equivalence_index(ds)
        floor = weighted_count(eq.all_classes, eq.minority_planes)
        assert res.objective >= Fraction(floor, ds.n_samples)


def test_resource_limits(monkeypatch):
    ds = from_rows(["a", "b"], [[0, 1], [1, 0]], [0, 1])
    # three captures: both rows, and each row alone, of 2 bits each
    entry = 1 + oracle.ENTRY_OVERHEAD
    monkeypatch.setattr(oracle, "MAX_MEMO_BYTES", 3 * entry - 1)
    with pytest.raises(OracleResourceError):
        exhaustive_optimum(ds, Fraction(1, 10))
    monkeypatch.setattr(oracle, "MAX_MEMO_BYTES", 3 * entry)
    assert exhaustive_optimum(ds, Fraction(1, 10)).mistakes == 0
    # the same three captures of 128 samples each take 16 bytes
    wide = from_rows(["a", "b"], [[0, 1], [1, 0]] * 64, [0, 1] * 64)
    with pytest.raises(OracleResourceError):
        exhaustive_optimum(wide, Fraction(1, 10))
    with pytest.raises(ValueError):
        exhaustive_optimum(ds, Fraction(0))


def test_deterministic():
    rng = random.Random(21)
    ds = random_dataset(rng, 20, 4)
    a = exhaustive_optimum(ds, Fraction(1, 20))
    b = exhaustive_optimum(ds, Fraction(1, 20))
    assert a == b
