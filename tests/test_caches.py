from fractions import Fraction

import pytest

from opttree.caches import CacheLimitError, LeafCache, TreeCache, tree_key
from opttree.dataset import build_equivalence_index, from_rows
from opttree.tree import Clause, TreeState, make_leaf, sort_leaves


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


def _two_leaf_tree(ds, cache, order_swapped=False):
    # leaves come from one LeafCache, as in a search: one object per key
    l0 = cache.intern((Clause(0, False),), _leaf, ds, (Clause(0, False),))
    l1 = cache.intern((Clause(0, True),), _leaf, ds, (Clause(0, True),))
    pair = (l1, l0) if order_swapped else (l0, l1)
    flags = (True, False) if order_swapped else (False, True)
    leaves, sflags = sort_leaves(pair, flags)
    return TreeState(leaves=leaves, splittable=sflags, n_samples=4,
                     lam=Fraction(1, 10))


def test_tree_key_permutation_invariant(ds):
    # same leaf set built in either order yields one key
    cache = LeafCache()
    assert tree_key(_two_leaf_tree(ds, cache)) \
        == tree_key(_two_leaf_tree(ds, cache, order_swapped=True))
    # keys compare interned leaves: another cache's leaves are others
    assert tree_key(_two_leaf_tree(ds, cache)) \
        != tree_key(_two_leaf_tree(ds, LeafCache()))


def test_tree_key_distinguishes_flags(ds):
    cache = LeafCache()
    a = _two_leaf_tree(ds, cache)
    leaves, flags = a.leaves, tuple(not s for s in a.splittable)
    b = TreeState(leaves=leaves, splittable=flags, n_samples=4,
                  lam=Fraction(1, 10))
    assert tree_key(a) != tree_key(b)
    assert tree_key(a) == tree_key(_two_leaf_tree(ds, cache))


def test_tree_cache_seen_or_mark(ds):
    cache = TreeCache()
    key = tree_key(_two_leaf_tree(ds, LeafCache()))
    assert not cache.seen_or_mark(key, 200)
    assert cache.seen_or_mark(key, 200)
    assert len(cache) == 1


def test_tree_cache_limit(ds):
    cache = TreeCache(max_entries=1)
    cache.seen_or_mark(tree_key(_two_leaf_tree(ds, LeafCache())), 0)
    with pytest.raises(CacheLimitError):
        other = _two_leaf_tree(ds, LeafCache())
        flipped = TreeState(leaves=other.leaves,
                            splittable=tuple(not s for s in other.splittable),
                            n_samples=4, lam=Fraction(1, 10))
        cache.seen_or_mark(tree_key(flipped), 0)


def test_tree_cache_garbage_collect(ds):
    cache = TreeCache()
    t = _two_leaf_tree(ds, LeafCache())
    # bounds scaled to units of 1/1000: b = 0.305, lam = 0.01, best = 0.30
    cache.seen_or_mark(tree_key(t), 305)
    # 0.305 + lam >= 0.30: no longer improvable, dropped
    purged = cache.garbage_collect(300, 10)
    assert purged == 1 and len(cache) == 0
    cache.seen_or_mark(tree_key(t), 289)
    # 0.289 + lam < 0.30: kept
    assert cache.garbage_collect(300, 10) == 0
    assert len(cache) == 1
    other = TreeState(leaves=t.leaves,
                      splittable=tuple(not s for s in t.splittable),
                      n_samples=4, lam=Fraction(1, 10))
    cache.seen_or_mark(tree_key(other), 290)
    # 0.29 + lam reaches 0.30 exactly: dropped
    assert cache.garbage_collect(300, 10) == 1
    assert len(cache) == 1
