"""Trace records are summed over the queue's (b_s, leaf count) buckets;
they must equal a scan of every queued tree, each built from its queue
entry.  Every queued tree is live, so a record's least bound is the
least live one, and the last record must agree with the fit's result."""

import math
import random
from dataclasses import replace
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
    best = Fraction(run.best_s, run.n * run.q)
    remaining = 0
    for tree in trees:
        slots = pool - len(tree.leaves)
        f = 0
        b = lower_bound(tree, run.lam)
        if best > b:
            f = min(math.floor((best - b) / run.lam), slots)
        remaining += _perm_sum(slots, f)
    log10 = len(str(remaining)) - 1 if remaining else None
    least = min((lower_bound(tree, run.lam) for tree in trees),
                default=None)
    return remaining, log10, least, len(trees)


def _least_live(run):
    """The least lower bound of a queued tree that may still beat the
    incumbent, from scratch over its leaves: its bound, plus lam under
    lookahead and, when that bound is on, the equivalent-points floor of
    its leaves to split, is below the incumbent."""
    best = Fraction(run.best_s, run.n * run.q)
    bounds = []
    for tree in map(build_tree, run.queue.trees()):
        b = lower_bound(tree, run.lam)
        margin = run.lam if run.toggles.lookahead else 0
        if run.toggles.equivalent_points:
            margin += Fraction(sum(l.b0_count for l in tree.split), run.n)
        if b + margin < best:
            bounds.append(b)
    return min(bounds, default=None)


TOGGLES = (BoundToggles(), BoundToggles(lookahead=False),
           BoundToggles(equivalent_points=False, permutation_cache=False),
           BoundToggles(similar_support=True))


def test_trace_records_equal_a_scan_of_the_queue(monkeypatch):
    seen = {"records": 0, "purge_then_record": 0, "purged_since": 0,
            "cache_stops": 0}
    record = _Run._record_trace
    retain = SearchQueue.retain

    def checked_record(run):
        record(run)
        r = run.trace[-1]
        want = _scan(run)
        assert (r.remaining_bound, r.log10_remaining_bound,
                r.min_queue_lower_bound, r.queue_size) == want
        # the queue holds live trees only; with none left (a certified
        # fit) there are no remaining evaluations
        assert r.min_queue_lower_bound == _least_live(run)
        seen["records"] += 1
        if seen["purged_since"]:
            seen["purge_then_record"] += 1

    def counting_retain(queue, keep):
        dropped = retain(queue, keep)
        seen["purged_since"] += dropped
        return dropped

    monkeypatch.setattr(_Run, "_record_trace", checked_record)
    monkeypatch.setattr(SearchQueue, "retain", counting_retain)
    rng = random.Random(11)
    for _ in range(20):
        ds = random_dataset(rng, rng.randint(10, 60), rng.randint(2, 5),
                            duplicate_bias=rng.choice([0.0, 0.4]))
        lam = Fraction(1, rng.randint(10, 60))
        for policy in Policy:
            seen["purged_since"] = 0
            limit = rng.choice([{"max_trees": rng.randint(1, 1500)},
                                {"max_cache_entries": rng.randint(1, 60)}])
            res = fit(ds, SearchConfig(
                lam=lam, policy=policy, toggles=rng.choice(TOGGLES),
                trace_interval=rng.randint(1, 40), **limit))
            if res.stats.limit_hit == "max_cache_entries":
                seen["cache_stops"] += 1
    assert seen["records"] > 1500
    assert seen["purge_then_record"] > 300
    assert seen["cache_stops"] > 20


def test_last_record_agrees_with_the_result():
    # fits cut by max_trees at 15 points of their full run: the last
    # record's bound is objective - gap, and a certified fit's last record
    # has no bound and no remaining evaluations, also where the limit
    # stopped it
    rng = random.Random(5)
    certified_at_limit = fits = 0
    for _ in range(40):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=0.5)
        config = SearchConfig(lam=Fraction(1, 30))
        total = fit(ds, config).stats.trees_evaluated
        for k in range(1, 16):
            res = fit(ds, replace(config, max_trees=total * k // 15))
            last = res.trace[-1]
            fits += 1
            if res.certified:
                assert (last.min_queue_lower_bound, last.remaining_bound,
                        last.log10_remaining_bound,
                        last.queue_size) == (None, 0, None, 0)
                certified_at_limit += \
                    res.stats.trees_evaluated >= total * k // 15
            else:
                assert last.min_queue_lower_bound == res.objective - res.gap
                assert last.remaining_bound > 0
    assert fits == 600 and certified_at_limit >= 1
