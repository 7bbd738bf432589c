"""The search's deterministic counts and traces, pinned.

A change to the search that means to keep its order must leave every
count and every trace record of every fit here as recorded in
``pinned_counts.json``: small seeded datasets under each policy, with
each optional bound switched off, with similar support on (alone, and
with lookahead or every threshold bound off, where it skips splits),
with every threshold bound off at once, under a cache limit and with a
trace record due at every loop turn.  A fit's trace is pinned as its
record count and a digest of every record's figures but ``elapsed_s``.
A change that means to alter the search order re-records the file and
says so: from the repository root,
``PYTHONPATH=src python -m tests.test_pinned_counts`` prints it.

The benchmark's own search is pinned as well: instance 0 of each
``perfbench`` workload at seed 1, generated by its ``workloads.py`` and
fitted as the benchmark fits it.
"""

import hashlib
import importlib.util
import json
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from opttree import load_csv
from opttree.bounds import BoundToggles
from opttree.scheduler import Policy
from opttree.search import SearchConfig, fit
from tests.conftest import random_dataset

PINNED = Path(__file__).with_name("pinned_counts.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# trees_evaluated, leaf_cache_hits, max_queue_size, objective and gap of
# each benchmark workload's instance 0 at seed 1
BENCHMARK_FITS = {
    "certify-planted": [7717, 594, 6037, "23/125", "0"],
    "wide-samples": [7284, 581, 6120, "2253/12500", "0"],
    "anytime-budget": [10036, 1546, 9918, "153/500", "69/250"],
}
LAMBDAS = (Fraction(1, 50), Fraction(1, 25), Fraction(1, 12))
COUNTS = ("trees_evaluated", "trees_to_optimum", "expansions",
          "duplicates_skipped", "max_queue_size", "leaf_cache_hits",
          "queue_purged", "leaf_cache_size", "tree_cache_size",
          "tree_cache_purged", "similar_support_skips", "split_tables")


def _datasets():
    """20 small datasets, every other one with repeated rows, and each
    one's lam."""
    rng = random.Random(18)
    for k in range(20):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=0.5 if k % 2 else 0.0)
        yield k, ds, LAMBDAS[k % len(LAMBDAS)]


def _variants():
    for policy in Policy:
        yield f"policy={policy.value}", dict(policy=policy)
    for f in fields(BoundToggles):
        if f.name != "similar_support":
            yield f"{f.name}=off", dict(
                toggles=BoundToggles(**{f.name: False}))
    yield "similar_support=on", dict(
        toggles=BoundToggles(similar_support=True))
    # every bound that is a threshold of the run, and equivalent points,
    # off at once: each runs its threshold-0 path
    no_thresholds = BoundToggles(
        lookahead=False, node_support=False, leaf_accuracy=False,
        incremental_accuracy=False, equivalent_points=False)
    yield "thresholds=off", dict(toggles=no_thresholds)
    # with the default bounds similar support skips nothing in these fits;
    # with lookahead or every threshold off it skips splits
    yield "similar_support=on,lookahead=off", dict(toggles=BoundToggles(
        similar_support=True, lookahead=False))
    yield "similar_support=on,thresholds=off", dict(
        toggles=replace(no_thresholds, similar_support=True))
    # a cache limit stops many of these fits, after the stores were purged
    yield "max_cache_entries=40", dict(max_cache_entries=40)
    # a record is due at every loop turn, one that skips a duplicate
    # included, and the threshold-0 paths pop many duplicates
    yield "trace_interval=1", dict(trace_interval=1)
    yield "thresholds=off,trace_interval=1", dict(toggles=no_thresholds,
                                                  trace_interval=1)


def _trace(result) -> list:
    """The record count and a digest of every record's figures."""
    figures = [[r.trees_evaluated, str(r.best_objective),
                str(r.min_queue_lower_bound), r.queue_size,
                r.log10_remaining_bound, r.remaining_bound]
               for r in result.trace]
    digest = hashlib.sha256(json.dumps(figures).encode()).hexdigest()
    return [len(figures), digest[:16]]


def _all_counts() -> dict:
    out = {}
    for k, ds, lam in _datasets():
        for name, kwargs in _variants():
            # a record every 1000 trees unless the variant says otherwise
            result = fit(ds, SearchConfig(
                lam=lam, max_trees=3000, **{"trace_interval": 1000, **kwargs}))
            out[f"{k}/{name}"] = [getattr(result.stats, c) for c in COUNTS] \
                + [str(result.objective), str(result.gap)] + _trace(result)
    return out


def test_counts_match_the_recorded_ones():
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    got = _all_counts()
    assert got.keys() == want.keys()
    differing = {key: (got[key], want[key]) for key in want
                 if got[key] != want[key]}
    assert differing == {}, f"{len(differing)} fits differ"


def _workloads():
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(BENCHMARK_FITS))
def test_benchmark_fits_match_the_recorded_ones(name, tmp_path):
    workloads = _workloads()
    wl = workloads.WORKLOADS[name]
    # instance 0's files do not depend on how many instances a run has
    (inst,) = workloads.generate(replace(wl, instances=1), 1, tmp_path)
    with open(inst.train, newline="", encoding="utf-8") as fh:
        ds = load_csv(fh, workloads.LABEL)
    result = fit(ds, SearchConfig(lam=wl.lam, max_trees=wl.max_trees))
    s = result.stats
    assert [s.trees_evaluated, s.leaf_cache_hits, s.max_queue_size,
            str(result.objective), str(result.gap)] == BENCHMARK_FITS[name]


if __name__ == "__main__":
    # one fit per line
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in sorted(_all_counts().items()))
          + "\n}")
