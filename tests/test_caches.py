import random
from fractions import Fraction

import pytest

from opttree.caches import LeafCache, TreeCache, tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.search import SearchConfig, fit
from opttree.tree import Clause, make_leaf
from tests.conftest import make_tree, random_dataset


@pytest.fixture
def ds():
    return from_rows(["a", "b"], [[0, 1], [1, 0], [0, 0], [1, 1]],
                     [1, 0, 1, 0])


def _leaf(ds, clauses):
    eq = build_equivalence_index(ds)
    return make_leaf(clauses, eq)


def test_leaf_cache_interning(ds):
    cache = LeafCache()
    key = (Clause(0, True),)
    built = []

    def build():
        leaf = _leaf(ds, key)
        built.append(leaf)
        return leaf

    first = cache.intern(key, build)
    second = cache.intern(key, build)
    assert first is second
    assert len(built) == 1
    # every miss stores a leaf
    assert cache.hits == 1 and len(cache) == 1


def test_leaf_cache_rejects_mismatched_key(ds):
    cache = LeafCache()
    with pytest.raises(ValueError):
        cache.intern((Clause(1, True),), lambda: _leaf(ds, (Clause(0, True),)))


def test_leaf_cache_limit():
    # the caches have no limit of their own: the search stops between
    # expansions once the leaf cache holds more than k leaves, so the last
    # expansion's split table (two leaves per unused feature) may take it
    # past k
    ds = random_dataset(random.Random(19), 40, 6)
    for k in (1, 5, 20, 50):
        res = fit(ds, SearchConfig(lam=Fraction(1, 200), max_cache_entries=k))
        assert res.stats.limit_hit == "max_cache_entries"
        assert not res.certified and res.gap > 0
        assert k < res.stats.leaf_cache_size <= k + 2 * ds.n_features


KEYS = ((Clause(0, False),), (Clause(0, True), Clause(1, False)),
        (Clause(0, True), Clause(1, True)))


def _three_leaf_tree(ds, cache, order_swapped=False, flipped=False):
    """The first two leaves of KEYS unchanged and the third to split (the
    first to split and the others unchanged when flipped), each tuple
    sorted from the leaves given in either order."""
    # leaves come from one LeafCache, as in a search: one object per key
    leaves = [cache.intern(k, _leaf, ds, k) for k in KEYS]
    to_split = leaves[0] if flipped else leaves[2]
    if order_swapped:
        leaves.reverse()
    return make_tree(ds,
                     unchanged=[l for l in leaves if l is not to_split],
                     split=[to_split])


def test_tree_key_permutation_invariant(ds):
    # same leaf set built in either order yields one key
    cache = LeafCache()
    assert tree_key(_three_leaf_tree(ds, cache)) \
        == tree_key(_three_leaf_tree(ds, cache, order_swapped=True))
    # keys compare interned leaves: another cache's leaves are others
    assert tree_key(_three_leaf_tree(ds, cache)) \
        != tree_key(_three_leaf_tree(ds, LeafCache()))


def test_tree_key_distinguishes_flags(ds):
    cache = LeafCache()
    a = _three_leaf_tree(ds, cache)
    b = _three_leaf_tree(ds, cache, flipped=True)
    assert a.leaves == b.leaves and tree_key(a) != tree_key(b)
    assert tree_key(a) == tree_key(_three_leaf_tree(ds, cache))


def test_tree_cache_seen_or_mark(ds):
    cache = TreeCache()
    key = tree_key(_three_leaf_tree(ds, LeafCache()))
    assert not cache.seen_or_mark(key, 200)
    assert cache.seen_or_mark(key, 200)
    assert len(cache) == 1


def test_tree_cache_limit():
    # over 3 features there are at most 3^3 = 27 leaves, so with k >= 27
    # only the tree cache can stop the search.  It marks one tree per
    # expansion, so it stops with exactly k + 1 entries
    rng = random.Random(20)
    stops = 0
    for _ in range(10):
        ds = random_dataset(rng, rng.randint(30, 60), 3)
        for k in (27, 40):
            res = fit(ds, SearchConfig(lam=Fraction(1, 400),
                                       max_cache_entries=k))
            assert res.stats.leaf_cache_size <= 27
            if res.stats.limit_hit is None:
                assert res.certified and res.stats.tree_cache_size <= k
                continue
            stops += 1
            assert res.stats.limit_hit == "max_cache_entries"
            assert not res.certified and res.gap > 0
            assert res.stats.tree_cache_size == k + 1
    assert stops > 5


def test_tree_cache_garbage_collect(ds):
    cache = TreeCache()
    leaf_cache = LeafCache()
    t = _three_leaf_tree(ds, leaf_cache)
    # bounds scaled to units of 1/1000: b = 0.305, lam = 0.01, best = 0.30,
    # so the live limit is best - lam = 0.29
    cache.seen_or_mark(tree_key(t), 305)
    # 0.305 + lam >= 0.30: no longer improvable, dropped
    purged = cache.garbage_collect(290)
    assert purged == 1 and len(cache) == 0
    cache.seen_or_mark(tree_key(t), 289)
    # 0.289 + lam < 0.30: kept
    assert cache.garbage_collect(290) == 0
    assert len(cache) == 1
    other = _three_leaf_tree(ds, leaf_cache, flipped=True)
    cache.seen_or_mark(tree_key(other), 290)
    # 0.29 + lam reaches 0.30 exactly: dropped
    assert cache.garbage_collect(290) == 1
    assert len(cache) == 1
