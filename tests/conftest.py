import math
import random
from fractions import Fraction
from itertools import compress
from typing import Optional

import pytest

from opttree.dataset import Dataset, build_equivalence_index, from_rows
from opttree.search import SearchConfig, _Run
from opttree.tree import (B0_S, B_S, R_S, Clause, Leaf, LeafKey, TreeState,
                          as_entry, build_tree, canonical_clauses, make_leaf,
                          root_tree, sort_leaves)

# the library's expansion, whatever a test later patches in its place
_EXPAND = _Run.expand


def bits(cells) -> int:
    """The int of a 0/1 list, bit i for cell i: a column, labels or a
    capture as the library holds them."""
    return sum(1 << i for i, c in enumerate(cells) if c)


def csv_text(ds: Dataset, label: str = "y",
             label_at: Optional[int] = None) -> str:
    """The dataset as the strict CSV ``opttree fit`` reads fastest: a
    header, then one line of "0"/"1" cells per sample, "," between cells
    and "\\n" after each line, the label column at index ``label_at``
    (last by default)."""
    names, columns = list(ds.feature_names), list(ds.columns)
    at = len(names) if label_at is None else label_at
    names.insert(at, label)
    columns.insert(at, ds.labels)
    lines = [",".join(names)]
    lines += [",".join(str(col >> i & 1) for col in columns)
              for i in range(ds.n_samples)]
    return "\n".join(lines) + "\n"


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


def child_keys(leaf: Leaf, feature: int) -> tuple[LeafKey, LeafKey]:
    """The keys of ``leaf`` extended by the negative and by the positive
    literal on ``feature``, sorted from scratch."""
    return tuple(canonical_clauses(leaf.clauses + (Clause(feature, p),))
                 for p in (False, True))


def make_tree(ds: Dataset, unchanged=(), split=()) -> TreeState:
    """A tree of the given unchanged leaves and leaves to split, each put
    in canonical order."""
    return TreeState(sort_leaves(unchanged), sort_leaves(split), ds)


def lower_bound(tree: TreeState, lam: Fraction) -> Fraction:
    """A tree's lower bound under lam: the scaled sum ``B_S`` of its
    ``as_entry`` over N*q."""
    return Fraction(as_entry(tree, lam)[B_S],
                    tree.ds.n_samples * lam.denominator)


def expand(tree: TreeState, ds: Dataset, config: SearchConfig,
           best: Fraction) -> list[tuple]:
    """One expansion of ``tree`` against incumbent ``best``: the queue
    entries of its children live under the final incumbent, the ones the
    run pushes, whose trees ``build_tree`` makes.

    The tree is expanded as the run's index builds it: with equivalent
    points off no leaf of the run has a floor, so a leaf of ``tree``
    that has one is rebuilt over ``run.eq``; every other leaf is kept."""
    run = _Run(ds, config)
    # integer scaled values compare with ceil(x) exactly as with x
    run.best_s = math.ceil(best * run.n * run.q)
    if not config.toggles.equivalent_points:
        tree = TreeState(*(tuple(make_leaf(l.clauses, run.eq) if l.b0_count
                                 else l for l in leaves)
                           for leaves in (tree.unchanged, tree.split)), ds)
    out = run.expand(tree, as_entry(tree, config.lam))
    # the run gates them again when the incumbent fell; each one kept
    # under an incumbent that did not fall is live
    return list(compress(out, run._live(out)))


def expand_priced(run: _Run, tree: TreeState,
                  entry: tuple) -> tuple[list, list]:
    """Expand ``tree``, built from ``entry``, in ``run``; return every
    child the expansion priced in, in order, and the entries ``expand``
    returned.

    The priced children are found apart from the expansion: a walk of the
    split table of the leaf it split, skipping each split that similar
    support skipped, builds every child and sums it from scratch
    (``as_entry``); a child is priced in when its bound is below the
    incumbent, which a priced child of lower objective replaces.  Each is
    returned as an entry in the shape ``expand`` queues: those sums, then
    the parent and the split.  Checks that ``expand`` returned exactly the
    priced children live under the incumbent of the moment each was
    priced, in order, written out here rather than asked of the run's
    gate; that ``trees_evaluated`` grew by the number priced; and that the
    run's incumbent is the walk's."""
    stats = run.stats
    best_s, evaluated = run.best_s, stats.trees_evaluated
    skipped, skip = [], run._similar_skip

    def recording(*args):
        skipped.append(skip(*args))
        return skipped[-1]
    run._similar_skip = recording
    try:
        out = _EXPAND(run, tree, entry)
    finally:
        del run._similar_skip
    toggles = run.toggles
    margin_s = run.lam_s if toggles.lookahead else 0
    skipped = iter(skipped)
    priced, live = [], []
    for f, c1, c2, flag_pairs in run.split_tables[tree.split[0]]:
        if toggles.similar_support and next(skipped):
            continue
        for s1, s2 in flag_pairs:
            split = (tree, c1, c2, s1, s2)
            sums = as_entry(build_tree((None,) * 5 + split), run.lam)[:5]
            if sums[B_S] < best_s:
                priced.append(sums + split)
                if sums[B_S] + margin_s + (sums[B0_S] if toggles
                                           .equivalent_points else 0) \
                        < best_s:
                    live.append(priced[-1])
                best_s = min(best_s, sums[R_S])
    # an entry's parent is the tree the expansion was handed
    assert all(e[5] is tree for e in out)
    assert out == live
    assert stats.trees_evaluated - evaluated == len(priced)
    assert run.best_s == best_s
    return priced, out


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
                    for e in expand(t, ds, config, Fraction(1))]
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
