import math
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree.dataset import build_equivalence_index, from_rows
from opttree.scheduler import _KEYS, Policy, SearchQueue
from opttree.search import SearchConfig, _Run
from opttree.tree import (B_S, N_LEAVES, Clause, as_entry, build_tree,
                          make_leaf, objective, root_tree)
from tests.conftest import (expanded_trees, lower_bound, make_tree,
                            random_dataset)

LAM = Fraction(1, 10)


def priority(tree, policy, lam=LAM):
    """The key ``policy`` gives a tree, from its entry's sums."""
    return _KEYS[policy](as_entry(tree, lam), tree.ds.n_samples)


def _live(entry):
    return True


@pytest.fixture
def ds():
    # f0 splits 4/4; labels give each side one mistake
    rows = [[0, 0], [0, 1], [0, 0], [0, 1],
            [1, 0], [1, 1], [1, 0], [1, 1]]
    labels = [1, 1, 1, 0, 0, 0, 0, 1]
    return from_rows(["a", "b"], rows, labels)


def _split_tree(ds, to_split=(False, True)):
    """The tree of the leaves f0=0 and f0=1, each to split where its flag
    is true and unchanged otherwise."""
    eq = build_equivalence_index(ds)
    leaves = (make_leaf([Clause(0, False)], eq),
              make_leaf([Clause(0, True)], eq))
    return make_tree(ds,
                     unchanged=[l for l, s in zip(leaves, to_split)
                                if not s],
                     split=[l for l, s in zip(leaves, to_split) if s])


def test_bfs_dfs_priorities(ds):
    root = root_tree(ds, build_equivalence_index(ds))
    t = _split_tree(ds)
    assert priority(root, Policy.BFS) == 1
    assert priority(root, Policy.DFS) == -1
    assert priority(t, Policy.BFS) == 2
    assert priority(t, Policy.DFS) == -2


def test_bound_and_objective_priorities(ds):
    # keys are the bounds scaled by N*q = 80
    t = _split_tree(ds)
    assert lower_bound(t, LAM) == Fraction(1, 8) + Fraction(2, 10)
    assert priority(t, Policy.LOWER_BOUND) == lower_bound(t, LAM) * 80 == 26
    assert priority(t, Policy.OBJECTIVE) == objective(t, LAM) * 80 == 36


def test_curiosity_priority(ds):
    # key = floor(N^2 * b_s / c): b_s/(q*c) scaled by q*N^2 = 640
    root = root_tree(ds, build_equivalence_index(ds))
    assert priority(root, Policy.CURIOSITY) \
        == lower_bound(root, LAM) * 8 * 80 == 0  # nothing unchanged: c = N
    t = _split_tree(ds)  # unchanged leaf captures 4 of 8
    assert priority(t, Policy.CURIOSITY) \
        == lower_bound(t, LAM) / Fraction(4, 8) * 8 * 80 == 416


def _curiosity_reference(tree, lam):
    """The rational curiosity key: lower bound over the fraction of
    samples that unchanged leaves hold (all of them when none)."""
    n = tree.ds.n_samples
    held = sum(l.n_captured for l in tree.unchanged)
    return lower_bound(tree, lam) / Fraction(held or n, n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), m=st.integers(1, 5), p=st.integers(1, 3),
       q=st.integers(4, 90), seed=st.integers(0, 2 ** 32 - 1))
def test_integer_keys_order_and_tie_as_rationals(n, m, p, q, seed):
    rng = random.Random(seed)
    ds = random_dataset(rng, n, m, duplicate_bias=rng.choice((0.0, 0.5)))
    lam = Fraction(p, q)
    trees = expanded_trees(ds, lam, rng)
    references = {Policy.CURIOSITY: _curiosity_reference,
                  Policy.LOWER_BOUND: lower_bound,
                  Policy.OBJECTIVE: objective}
    for policy, reference in references.items():
        pairs = sorted(((reference(t, lam), priority(t, policy, lam))
                        for t in trees), key=lambda rk: rk[0])
        assert all(type(k) is int for _, k in pairs)
        for (ra, ka), (rb, kb) in zip(pairs, pairs[1:]):
            assert (ka < kb) if ra < rb else (ka == kb)


def test_entropy_and_gini_priorities(ds):
    t = _split_tree(ds)  # leaf to split: 4 captured, 1 one-label
    p = 1 / 4
    expected_h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert priority(t, Policy.ENTROPY) \
        == pytest.approx(4 / 8 * expected_h2)
    # the Gini impurity 4/8 * 2p(1 - p) with p = 1/4, times N/2 = 4: the
    # key is g = ones * zeros / n_c, which orders and ties alike, as
    # (float(g), g)
    gini = Fraction(4, 8) * 2 * Fraction(1, 4) * Fraction(3, 4)
    assert gini * 4 == Fraction(1 * 3, 4)
    assert priority(t, Policy.GINI) == (0.75, Fraction(3, 4))


def test_queue_pops_equal_keys_in_push_order(ds):
    q = SearchQueue(Policy.LOWER_BOUND, ds)
    a, b, c = (as_entry(_split_tree(ds, flags), LAM) for flags in
               ((False, True), (True, False), (True, True)))
    # c has the lower bound: nothing unchanged
    assert a[B_S] == b[B_S] > c[B_S] and build_tree(a) != build_tree(b)
    q.push([b, a])
    q.push([c])
    assert q.pop(_live) is c  # strictly smaller bound first
    assert q.pop(_live) is b  # tie between a and b: pushed first
    assert q.pop(_live) is a
    assert q.pop(_live) is None


def test_queue_keys_a_child_by_its_sums():
    # entries priced from one parent, below an incumbent of 1 that no
    # child replaces, are keyed and popped as the trees they build, under
    # every policy
    rng = random.Random(4)
    ds = random_dataset(rng, 40, 5)
    lam = Fraction(1, 40)
    root = root_tree(ds, build_equivalence_index(ds))
    for policy in Policy:
        run = _Run(ds, SearchConfig(lam=lam, policy=policy))
        run.best_s = run.q * run.n
        run._set_best = lambda entry: None
        entries = run.expand(root, as_entry(root, lam))
        assert len(entries) > 10
        q = SearchQueue(policy, ds)
        q.push(entries)
        keys = sorted((priority(build_tree(e), policy, lam), i)
                      for i, e in enumerate(entries))
        assert [q.pop(_live) for _ in entries] \
            == [entries[i] for _, i in keys]


def test_queue_lazy_invalidation(ds):
    q = SearchQueue(Policy.BFS, ds)
    q.push([as_entry(_split_tree(ds), LAM)])
    assert q.pop(is_live=lambda e: False) is None
    assert len(q) == 0


def test_retain_keeps_the_pop_order_and_recounts_the_buckets(ds):
    rng = random.Random(8)
    for _ in range(200):
        policy = rng.choice(list(Policy)[:5])
        # fake entries: bounds from a narrow range, so that ties abound
        entries = [(rng.randint(0, 6), 0, rng.randint(0, 6), 1,
                    rng.randint(1, 4)) for _ in range(rng.randint(0, 30))]
        q, twin = SearchQueue(policy, ds), SearchQueue(policy, ds)
        q.push(entries)
        twin.push(entries)
        kept = {id(e) for e in entries if rng.random() < 0.5}
        assert q.retain(lambda es: [id(e) in kept for e in es]) \
            == len(entries) - len(kept)
        assert q.buckets == Counter((e[B_S], e[N_LEAVES]) for e in entries
                                    if id(e) in kept)
        want = [id(e) for e in iter(twin.pop, None) if id(e) in kept]
        assert [id(e) for e in iter(q.pop, None)] == want


def test_buckets_count_the_queued_entries(ds):
    # read after some pushes, pops (with and without a gate that discards)
    # and retains, the buckets hold each queued (b_s, leaf count) pair with
    # its count, as plain ints, and no pair without an entry, whether the
    # read folds the pending entries in or recounts stale counts.  The
    # pending entries never outnumber the queued ones
    rng = random.Random(26)
    ops = Counter()
    for _ in range(300):
        q = SearchQueue(rng.choice(list(Policy)[:5]), ds)
        every = rng.choice((1, 3, 10))  # reads one op in this many
        for _ in range(rng.randint(1, 40)):
            op = rng.choice(("push", "push", "pop", "gated pop", "retain"))
            if op == "push":
                q.push([(rng.randint(0, 5), 0, rng.randint(0, 5), 1,
                         rng.randint(1, 3))
                        for _ in range(rng.choice((0, 1, 2, 5, 20)))])
            elif op == "pop":
                q.pop()
            elif op == "gated pop":
                q.pop(lambda e: rng.random() < 0.3)
            else:
                q.retain(lambda es: [rng.random() < 0.7 for _ in es])
            ops[op] += 1
            stale = q._pushed is None
            assert stale == (q._popped is None)
            if not stale:
                assert len(q._pushed) + len(q._popped) <= len(q)
            if rng.randrange(every):
                continue
            ops["recount" if stale else "fold"] += 1
            want = Counter((e[B_S], e[N_LEAVES]) for e in q.trees())
            assert dict(q.buckets) == dict(want)
            assert all(type(n) is int and n > 0 for n in q.buckets.values())
            assert (q._pushed, q._popped) == ([], [])
    assert min(ops.values()) > 200, ops


def test_queue_max_size_and_min_bound(ds):
    q = SearchQueue(Policy.BFS, ds)
    a = as_entry(_split_tree(ds, (False, True)), LAM)
    b = as_entry(_split_tree(ds, (True, True)), LAM)
    q.push([a, b])
    assert q.max_size == 2
    q.push([])
    assert q.max_size == 2
    assert lower_bound(build_tree(b), LAM) < lower_bound(build_tree(a), LAM)
    assert q.min_lower_bound(_live) is b
    assert q.min_lower_bound(lambda e: e is a) is a
    assert q.min_lower_bound(lambda e: False) is None
    assert {id(e) for e in q.trees()} == {id(a), id(b)}
    assert q.buckets == {(a[B_S], 2): 1, (b[B_S], 2): 1}


def _plain_min(queue, is_live):
    """The first live entry of least ``b_s`` in heap order."""
    return min((e for e in queue.trees() if is_live(e)), key=itemgetter(B_S),
               default=None)


def _checked_min(queue, is_live):
    """``queue.min_lower_bound(is_live)``, checking that liveness is asked
    only of entries below the least live bound found before it."""
    least = []

    def asked(entry):
        assert not least or entry[B_S] < least[-1]
        live = is_live(entry)
        if live:
            least.append(entry[B_S])
        return live
    return queue.min_lower_bound(asked)


def test_min_lower_bound_is_the_plain_min_on_random_queues(ds):
    rng = random.Random(9)
    for _ in range(300):
        q = SearchQueue(rng.choice(list(Policy)[:5]), ds)
        # fake entries: bounds from a narrow range, so that ties abound
        entries = [(rng.randint(0, 6), 0, 0, 1, rng.randint(1, 4))
                   for _ in range(rng.randint(0, 30))]
        q.push(entries)
        live = {id(e) for e in entries if rng.random() < 0.5}
        for is_live in (lambda e: id(e) in live, _live):
            assert _checked_min(q, is_live) is _plain_min(q, is_live)


def test_min_lower_bound_is_the_plain_min_on_stopped_fits():
    rng = random.Random(10)
    stopped = 0
    for _ in range(30):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.5)))
        policy = rng.choice(list(Policy))
        run = _Run(ds, SearchConfig(lam=Fraction(1, 50), policy=policy,
                                    max_trees=rng.randint(20, 400)))
        # the run drops its own reference to the queue when it finishes
        queue = run.queue
        result = run.run()
        # the gate the finished run judged the queue with, asked of one
        # entry at a time
        def is_live(entry):
            return run._live([entry])[0]
        least = _checked_min(queue, is_live)
        assert least is _plain_min(queue, is_live)
        if least is not None:
            stopped += 1
            assert result.gap == result.objective \
                - Fraction(least[B_S], run.n * run.q)
    assert stopped > 10
