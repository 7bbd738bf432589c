"""Trace records are summed over the queue's (b_s, leaf count) buckets;
they must equal a scan of every queued tree, stale entries included,
each built from its queue entry."""

import math
import random
from fractions import Fraction
from functools import cache

from opttree.bounds import BoundToggles
from opttree.scheduler import Policy, SearchQueue
from opttree.search import SearchConfig, _Run, fit
from opttree.tree import build_tree
from tests.conftest import lower_bound, random_dataset


@cache
def _perm_sum(slots, f):
    return sum(math.perm(slots, k) for k in range(f + 1))


def _scan(run):
    """(remaining bound, its floor(log10), least lower bound, size) from
    every tree in the heap, each built from its entry, with the remaining
    bound's definition: a tree with lower bound b and L leaves may add up
    to floor((best - b) / lam) of the 3^M - L unused leaves, in any
    order."""
    trees = [build_tree(entry) for entry in run.queue.trees()]
    pool = 3 ** run.ds.n_features
    remaining = 0
    for tree in trees:
        slots = pool - len(tree.leaves)
        f = 0
        b = lower_bound(tree, run.lam)
        if run.best_obj > b:
            f = min(math.floor((run.best_obj - b) / run.lam), slots)
        remaining += _perm_sum(slots, f)
    log10 = len(str(remaining)) - 1 if remaining else None
    least = min((lower_bound(tree, run.lam) for tree in trees),
                default=None)
    return remaining, log10, least, len(trees)


TOGGLES = (BoundToggles(), BoundToggles(lookahead=False),
           BoundToggles(equivalent_points=False, permutation_cache=False),
           BoundToggles(similar_support=True))


def test_trace_records_equal_a_scan_of_the_queue(monkeypatch):
    seen = {"records": 0, "stale_then_record": 0, "stale_since": 0,
            "cache_stops": 0}
    record = _Run._record_trace
    pop = SearchQueue.pop

    def checked_record(run):
        record(run)
        r = run.trace[-1]
        assert (r.remaining_bound, r.log10_remaining_bound,
                r.min_queue_lower_bound, r.queue_size) == _scan(run)
        seen["records"] += 1
        if seen["stale_since"]:
            seen["stale_then_record"] += 1

    def counting_pop(queue, is_live=None):
        before = len(queue)
        tree = pop(queue, is_live)
        seen["stale_since"] += before - len(queue) - (tree is not None)
        return tree

    monkeypatch.setattr(_Run, "_record_trace", checked_record)
    monkeypatch.setattr(SearchQueue, "pop", counting_pop)
    rng = random.Random(11)
    for _ in range(20):
        ds = random_dataset(rng, rng.randint(10, 60), rng.randint(2, 5),
                            duplicate_bias=rng.choice([0.0, 0.4]))
        lam = Fraction(1, rng.randint(10, 60))
        for policy in Policy:
            seen["stale_since"] = 0
            limit = rng.choice([{"max_trees": rng.randint(1, 1500)},
                                {"max_cache_entries": rng.randint(1, 60)}])
            res = fit(ds, SearchConfig(
                lam=lam, policy=policy, toggles=rng.choice(TOGGLES),
                trace_interval=rng.randint(1, 40), **limit))
            if res.stats.limit_hit == "max_cache_entries":
                seen["cache_stops"] += 1
    assert seen["records"] > 1500
    assert seen["stale_then_record"] > 300
    assert seen["cache_stops"] > 20
