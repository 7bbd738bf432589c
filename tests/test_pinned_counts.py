"""The search's deterministic counts, pinned.

A change to the search that means to keep its order must leave every
count of every fit here as recorded in ``pinned_counts.json``: small
seeded datasets under each policy, with each optional bound switched off
and with similar support on.  A change that means to alter the search
order re-records the file and says so: from the repository root,
``PYTHONPATH=src python -m tests.test_pinned_counts`` prints it.
"""

import json
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from opttree.bounds import BoundToggles
from opttree.scheduler import Policy
from opttree.search import SearchConfig, fit
from tests.conftest import random_dataset

PINNED = Path(__file__).with_name("pinned_counts.json")
LAMBDAS = (Fraction(1, 50), Fraction(1, 25), Fraction(1, 12))
COUNTS = ("trees_evaluated", "trees_to_optimum", "expansions",
          "duplicates_skipped", "max_queue_size", "leaf_cache_hits")


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


def _all_counts() -> dict:
    out = {}
    for k, ds, lam in _datasets():
        for name, kwargs in _variants():
            result = fit(ds, SearchConfig(lam=lam, max_trees=3000, **kwargs))
            out[f"{k}/{name}"] = [getattr(result.stats, c) for c in COUNTS] \
                + [str(result.objective), str(result.gap)]
    return out


def test_counts_match_the_recorded_ones():
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    got = _all_counts()
    assert got.keys() == want.keys()
    differing = {key: (got[key], want[key]) for key in want
                 if got[key] != want[key]}
    assert differing == {}, f"{len(differing)} fits differ"


if __name__ == "__main__":
    # one fit per line
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in sorted(_all_counts().items()))
          + "\n}")
