import random
from fractions import Fraction

import pytest

from opttree.dataset import Dataset, build_equivalence_index, from_rows
from opttree.search import SearchConfig, expand
from opttree.tree import root_tree


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


def expanded_trees(ds: Dataset, lam: Fraction, rng: random.Random,
                   levels: int = 3, width: int = 3) -> list:
    """The root and the children ``expand`` builds below it, expanding up
    to ``width`` random children of each level."""
    eq = build_equivalence_index(ds)
    config = SearchConfig(lam=lam)
    frontier = [root_tree(ds, lam, eq)]
    trees = list(frontier)
    for _ in range(levels):
        children = [c for t in frontier
                    for c in expand(t, ds, eq, config, Fraction(1))]
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
