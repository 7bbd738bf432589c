import math
import random
from fractions import Fraction

import pytest

from opttree.dataset import Dataset, build_equivalence_index, from_rows
from opttree.search import SearchConfig, _Run
from opttree.tree import (B_S, TreeState, as_entry, build_tree, root_tree,
                          sort_leaves)


def bits(cells) -> int:
    """The int of a 0/1 list, bit i for cell i: a column, labels or a
    capture as the library holds them."""
    return sum(1 << i for i, c in enumerate(cells) if c)


def random_dataset(rng: random.Random, n: int, m: int,
                   duplicate_bias: float = 0.0) -> Dataset:
    """Random binary dataset; duplicate_bias > 0 draws rows from a small
    pool so equivalence classes are nontrivial."""
    if duplicate_bias > 0:
        pool = [[rng.randint(0, 1) for _ in range(m)]
                for _ in range(max(2, int(n * (1 - duplicate_bias))))]
        rows = [list(rng.choice(pool)) for _ in range(n)]
    else:
        rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    return from_rows([f"f{j}" for j in range(m)], rows, labels)


def make_tree(ds: Dataset, unchanged=(), split=()) -> TreeState:
    """A tree of the given unchanged leaves and leaves to split, each put
    in canonical order."""
    return TreeState(sort_leaves(unchanged), sort_leaves(split), ds)


def lower_bound(tree: TreeState, lam: Fraction) -> Fraction:
    """A tree's lower bound under lam: the scaled sum ``B_S`` of its
    ``as_entry`` over N*q."""
    return Fraction(as_entry(tree, lam)[B_S],
                    tree.ds.n_samples * lam.denominator)


def expand(tree: TreeState, ds: Dataset, eq, config: SearchConfig,
           best: Fraction) -> list[tuple]:
    """One expansion of ``tree`` against incumbent ``best``: the queue
    entries of its live children, whose trees ``build_tree`` makes."""
    run = _Run(ds, config, eq)
    # integer scaled values compare with ceil(x) exactly as with x
    run.best_s = math.ceil(best * run.n * run.q)
    return run.expand(as_entry(tree, config.lam))


def expanded_trees(ds: Dataset, lam: Fraction, rng: random.Random,
                   levels: int = 3, width: int = 3) -> list:
    """The root and the trees of the children ``expand`` keeps below it,
    expanding up to ``width`` random children of each level."""
    eq = build_equivalence_index(ds)
    config = SearchConfig(lam=lam)
    frontier = [root_tree(ds, eq)]
    trees = list(frontier)
    for _ in range(levels):
        children = [build_tree(e) for t in frontier
                    for e in expand(t, ds, eq, config, Fraction(1))]
        trees += children
        frontier = rng.sample(children, min(width, len(children)))
    return trees


@pytest.fixture
def toy_ds() -> Dataset:
    # f0 alone separates the labels perfectly
    rows = [[0, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 0]]
    labels = [1, 0, 1, 0, 1, 0]
    return from_rows(["a", "b"], rows, labels)


@pytest.fixture
def noisy_ds() -> Dataset:
    # same separable structure with one flipped label
    rows = [[0, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 0], [1, 1]]
    labels = [1, 0, 1, 0, 1, 0, 0, 0]
    return from_rows(["a", "b"], rows, labels)


LAMBDAS = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10))
