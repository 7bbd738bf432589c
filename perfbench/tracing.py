"""Span tracing of opttree's layers, done entirely from outside ``src/``.

``Tracer.patched()`` temporarily replaces the public functions and methods
that ``opttree.search`` calls in the other modules with wrappers that
record one span (name, start, end, parent, request) per call plus a few
counts observed at the same boundary.  Spans stay in memory until
``Tracer.dump`` writes them out.  ``fit_metrics`` then derives per-layer
busy time as self time (a span's duration minus its direct children's),
so the layers and ``search.self_s`` add up to the traced ``fit`` exactly.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# span name prefix = layer; "search.*" spans are callbacks into the search
MODULES = ("dataset", "greedy", "tree", "caches", "scheduler", "bounds")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self._stack = [-1]
        self.request = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.values: dict[int, dict] = defaultdict(dict)
        self._by_request = None  # span indices per request, built once

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.request][key] += n

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(result) runs once it ends."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.req.append(self.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def root(self, name: str, fn):
        """Wrap an entry point so each call opens a new request."""
        inner = self.wrap(name, fn)

        def call(*args, **kwargs):
            self.request += 1
            return inner(*args, **kwargs)
        return call

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        import opttree.cli as cli
        import opttree.greedy as greedy
        import opttree.search as search
        from opttree.caches import LeafCache, TreeCache
        from opttree.scheduler import SearchQueue

        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        w = self.wrap

        def set_value(key):
            def store(result):
                self.values[self.request][key] = result
            return store

        patch(search, "build_equivalence_index",
              w("dataset.build_equivalence_index",
                search.build_equivalence_index,
                set_value("dataset.equivalence_index")))
        patch(cli, "load_csv", w("dataset.load_csv", cli.load_csv))
        patch(greedy, "greedy_fit",
              w("greedy.greedy_fit", greedy.greedy_fit,
                set_value("greedy.seed")))
        for attr in ("make_child_leaf", "sort_leaves", "root_tree"):
            patch(search, attr, w(f"tree.{attr}", getattr(search, attr)))
        patch(search, "tree_key", w("caches.tree_key", search.tree_key))
        patch(search, "cumulative_perm",
              w("bounds.cumulative_perm", search.cumulative_perm))
        patch(LeafCache, "intern", w("caches.LeafCache.intern",
                                     LeafCache.intern))

        def on_mark(dup):
            if dup:
                self.count("caches.tree_dup")
        patch(TreeCache, "seen_or_mark",
              w("caches.TreeCache.seen_or_mark", TreeCache.seen_or_mark,
                on_mark))
        patch(TreeCache, "garbage_collect",
              w("caches.TreeCache.garbage_collect",
                TreeCache.garbage_collect,
                lambda purged: self.count("caches.tree_gc_purged", purged)))

        patch(SearchQueue, "push", w("scheduler.SearchQueue.push",
                                     SearchQueue.push))
        orig_pop = SearchQueue.pop
        orig_min = SearchQueue.min_lower_bound
        orig_trees = SearchQueue.trees

        def on_stale(live):
            if not live:
                self.count("scheduler.stale_discards")

        def on_pop(tree):
            if tree is not None:
                self.count("search.expansions")

        def pop(queue, is_live=None):
            if is_live is not None:
                is_live = w("search.is_live", is_live, on_stale)
            return orig_pop(queue, is_live)

        def min_lower_bound(queue, is_live=None):
            self.count("scheduler.queue_scan_items", len(queue))
            if is_live is not None:
                is_live = w("search.is_live", is_live)
            return orig_min(queue, is_live)

        def trees(queue):
            for tree in orig_trees(queue):
                self.count("scheduler.queue_scan_items")
                yield tree

        patch(SearchQueue, "pop", w("scheduler.SearchQueue.pop", pop,
                                    on_pop))
        patch(SearchQueue, "min_lower_bound",
              w("scheduler.SearchQueue.min_lower_bound", min_lower_bound))
        patch(SearchQueue, "trees", trees)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- derivation --------------------------------------------------------

    def breakdown(self, request: int) -> tuple[float, dict, dict]:
        """(root duration, calls by name, self seconds by name) of one
        request."""
        if self._by_request is None:
            self._by_request = defaultdict(list)
            for i, r in enumerate(self.req):
                self._by_request[r].append(i)
        idx = self._by_request[request]
        dur = {i: self.end[i] - self.start[i] for i in idx}
        self_s = dict(dur)
        root = None
        for i in idx:
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
            else:
                root = i
        calls: Counter = Counter()
        busy: Counter = Counter()
        for i in idx:
            name = self.names[self.name_id[i]]
            calls[name] += 1
            busy[name] += self_s[i]
        return dur[root], calls, busy

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.req[i]},{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fit_metrics(tracer: Tracer, request: int, result) -> dict[str, float]:
    """Per-layer metrics of one traced ``fit`` call."""
    fit_s, calls, busy = tracer.breakdown(request)
    counts = tracer.counts[request]
    values = tracer.values[request]
    stats = result.stats
    seed = values.get("greedy.seed")
    expansions = counts["search.expansions"]
    stale = counts["scheduler.stale_discards"]
    marks = calls["caches.TreeCache.seen_or_mark"]
    interns = calls["caches.LeafCache.intern"]
    layers = sum(s for name, s in busy.items()
                 if name.split(".")[0] in MODULES)
    eq = values.get("dataset.equivalence_index")
    return {
        "dataset.equivalence_index_s": busy["dataset.build_equivalence_index"],
        "dataset.equivalence_classes": eq.n_classes if eq else 0,
        "greedy.warm_start_s": busy["greedy.greedy_fit"],
        "greedy.seed_excess": float(seed.objective - result.objective)
        if seed is not None else 0.0,
        "tree.child_leaf_calls": calls["tree.make_child_leaf"],
        "tree.child_leaf_s": busy["tree.make_child_leaf"],
        "tree.sort_leaves_s": busy["tree.sort_leaves"],
        "caches.leaf_intern_calls": interns,
        "caches.leaf_hit_ratio": _ratio(stats.leaf_cache_hits, interns),
        "caches.leaf_intern_self_s": busy["caches.LeafCache.intern"],
        "caches.tree_key_s": busy["caches.tree_key"],
        "caches.tree_mark_calls": marks,
        "caches.tree_dup_ratio": _ratio(counts["caches.tree_dup"], marks),
        "caches.tree_mark_s": busy["caches.TreeCache.seen_or_mark"],
        "caches.tree_gc_calls": calls["caches.TreeCache.garbage_collect"],
        "caches.tree_gc_s": busy["caches.TreeCache.garbage_collect"],
        "caches.tree_gc_purged": counts["caches.tree_gc_purged"],
        "scheduler.push_calls": calls["scheduler.SearchQueue.push"],
        "scheduler.push_s": busy["scheduler.SearchQueue.push"],
        "scheduler.pop_calls": calls["scheduler.SearchQueue.pop"],
        "scheduler.pop_s": busy["scheduler.SearchQueue.pop"],
        "scheduler.stale_discards": stale,
        "scheduler.useful_pop_ratio": _ratio(expansions, expansions + stale),
        "scheduler.max_queue": stats.max_queue_size,
        "scheduler.queue_scan_items": counts["scheduler.queue_scan_items"],
        "scheduler.min_lower_bound_s":
            busy["scheduler.SearchQueue.min_lower_bound"],
        "bounds.cumulative_perm_calls": calls["bounds.cumulative_perm"],
        "bounds.cumulative_perm_s": busy["bounds.cumulative_perm"],
        "search.expansions": expansions,
        "search.trees_evaluated": stats.trees_evaluated,
        "search.children_per_expansion": _ratio(stats.trees_evaluated,
                                                expansions),
        "search.trace_records": len(result.trace),
        "search.is_live_s": busy["search.is_live"],
        "search.self_s": fit_s - layers,
        "search.gap_at_budget": float(result.gap),
        # from the fit call, so index building and warm start count too
        "search.time_to_optimum_s": fit_s - stats.total_time
        + stats.time_to_optimum,
        "trace.fit_s": fit_s,
        "trace.spans": sum(calls.values()),
    }


def predict_metrics(tracer: Tracer, request: int) -> dict[str, float]:
    busy = tracer.breakdown(request)[2]
    return {"cli.predict_s": busy["cli.main"],
            "cli.predict_load_s": busy["dataset.load_csv"]}
