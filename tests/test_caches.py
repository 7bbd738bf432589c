from fractions import Fraction

import pytest

from opttree.caches import CacheLimitError, LeafCache, TreeCache, tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.tree import Clause, make_leaf
from tests.conftest import make_tree


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
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_leaf_cache_rejects_mismatched_key(ds):
    cache = LeafCache()
    with pytest.raises(ValueError):
        cache.intern((Clause(1, True),), lambda: _leaf(ds, (Clause(0, True),)))


def test_leaf_cache_limit(ds):
    cache = LeafCache(max_entries=1)
    cache.intern((Clause(0, True),), lambda: _leaf(ds, (Clause(0, True),)))
    with pytest.raises(CacheLimitError):
        cache.intern((Clause(0, False),),
                     lambda: _leaf(ds, (Clause(0, False),)))


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
    return make_tree(ds, Fraction(1, 10),
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


def test_tree_cache_limit(ds):
    cache = TreeCache(max_entries=1)
    cache.seen_or_mark(tree_key(_three_leaf_tree(ds, LeafCache())), 0)
    with pytest.raises(CacheLimitError):
        flipped = _three_leaf_tree(ds, LeafCache(), flipped=True)
        cache.seen_or_mark(tree_key(flipped), 0)


def test_tree_cache_garbage_collect(ds):
    cache = TreeCache()
    leaf_cache = LeafCache()
    t = _three_leaf_tree(ds, leaf_cache)
    # bounds scaled to units of 1/1000: b = 0.305, lam = 0.01, best = 0.30
    cache.seen_or_mark(tree_key(t), 305)
    # 0.305 + lam >= 0.30: no longer improvable, dropped
    purged = cache.garbage_collect(300, 10)
    assert purged == 1 and len(cache) == 0
    cache.seen_or_mark(tree_key(t), 289)
    # 0.289 + lam < 0.30: kept
    assert cache.garbage_collect(300, 10) == 0
    assert len(cache) == 1
    other = _three_leaf_tree(ds, leaf_cache, flipped=True)
    cache.seen_or_mark(tree_key(other), 290)
    # 0.29 + lam reaches 0.30 exactly: dropped
    assert cache.garbage_collect(300, 10) == 1
    assert len(cache) == 1
