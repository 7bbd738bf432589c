"""One sha256 over about a thousand seeded random fits.

A change that means to leave the search unchanged must leave this digest
unchanged: from the repository root,

    PYTHONPATH=src python -m tests.fit_digest [FITS]

prints it (1 000 fits by default).  The fits run every policy with random
bound toggles, ``max_cache_entries`` and ``trace_interval``, a random
``max_trees`` that keeps every fit short, and no time limit, so each fit's
figures repeat exactly.  The digest covers every count of ``SearchStats``, the objective, gap and certificate,
the best tree's leaf keys and every trace record, and leaves out only the
times.  Pytest does not collect this module; ``test_search.py`` checks that
a short slice of it repeats.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import astuple, fields
from fractions import Fraction

from opttree.bounds import BoundToggles
from opttree.scheduler import Policy
from opttree.search import SearchConfig, fit
from tests.conftest import random_dataset

FITS = 1000
LAMBDAS = (Fraction(1, 100), Fraction(1, 50), Fraction(1, 25),
           Fraction(1, 12), Fraction(3, 40))
# the stats that are times, and the trace record's
TIMES = {"total_time", "time_to_optimum", "elapsed_s"}


def _maybe(rng: random.Random, low: int, high: int):
    return rng.randint(low, high) if rng.random() < 0.5 else None


def _figures(result) -> list:
    """Everything of a fit's result but its times, as JSON values."""
    stats = [getattr(result.stats, f.name) for f in fields(result.stats)
             if f.name not in TIMES]
    tree = result.best_tree
    keys = [[[[c.feature, c.polarity] for c in leaf.clauses]
             for leaf in leaves] for leaves in (tree.unchanged, tree.split)]
    trace = [[str(v) for f, v in zip(fields(r), astuple(r))
              if f.name not in TIMES] for r in result.trace]
    return [stats, str(result.objective), str(result.gap),
            result.certified, keys, trace]


def fit_digest(fits: int = FITS) -> str:
    """The sha256 of the first ``fits`` seeded fits' figures."""
    rng = random.Random(32)
    policies = list(Policy)
    h = hashlib.sha256()
    for k in range(fits):
        ds = random_dataset(rng, rng.randint(10, 50), rng.randint(2, 6),
                            duplicate_bias=rng.choice((0.0, 0.3, 0.6)))
        toggles = BoundToggles(**{f.name: rng.random() < 0.75
                                  for f in fields(BoundToggles)})
        config = SearchConfig(
            lam=rng.choice(LAMBDAS), policy=policies[k % len(policies)],
            toggles=toggles, max_trees=rng.randint(1, 3000),
            max_cache_entries=_maybe(rng, 1, 200),
            trace_interval=_maybe(rng, 1, 60))
        h.update(json.dumps(_figures(fit(ds, config))).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(fit_digest(int(sys.argv[1]) if len(sys.argv) > 1 else FITS))
