"""The search loop compares integers only: heap keys, the tree cache, its
purge and the queue minimum all read the scaled sums ``b_s``/``r_s``.
The Gini policy's keys compare as floats first.

``Fraction`` comparisons cost a normalisation and a Python-level method
call each; this test counts them during whole fits and fails if their
number grows with the trees the search evaluates, without timing anything.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from opttree.scheduler import Policy
from opttree.search import SearchConfig, fit
from tests.conftest import random_dataset


@pytest.fixture
def fraction_comparisons(monkeypatch):
    calls = Counter()
    richcmp, eq = Fraction._richcmp, Fraction.__eq__

    def counted_richcmp(self, other, op):
        calls["_richcmp"] += 1
        return richcmp(self, other, op)

    def counted_eq(self, other):
        calls["__eq__"] += 1
        return eq(self, other)

    monkeypatch.setattr(Fraction, "_richcmp", counted_richcmp)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    return calls


@pytest.mark.parametrize("policy", [Policy.CURIOSITY, Policy.LOWER_BOUND,
                                    Policy.OBJECTIVE])
def test_fraction_comparisons_do_not_grow_with_the_search(
        policy, fraction_comparisons):
    ds = random_dataset(random.Random(3), 200, 8)
    counts = []
    evaluated = []
    for max_trees in (100, 2000):
        fraction_comparisons.clear()
        result = fit(ds, SearchConfig(lam=Fraction(1, 100), policy=policy,
                                      max_trees=max_trees,
                                      trace_interval=50))
        counts.append(dict(fraction_comparisons))
        evaluated.append(result.stats.trees_evaluated)
    assert evaluated[1] >= 10 * evaluated[0]
    assert counts[0] == counts[1]


def test_gini_keys_compare_as_floats(fraction_comparisons):
    """The Gini key is (float(g), g): its rationals are ordered only when
    their floats tie, so ordering comparisons do not grow with the search.
    Exact ties still test the rationals for equality."""
    ds = random_dataset(random.Random(3), 200, 8)
    ordered = []
    evaluated = []
    for max_trees in (100, 2000):
        fraction_comparisons.clear()
        result = fit(ds, SearchConfig(lam=Fraction(1, 100),
                                      policy=Policy.GINI,
                                      max_trees=max_trees,
                                      trace_interval=50))
        ordered.append(fraction_comparisons["_richcmp"])
        evaluated.append(result.stats.trees_evaluated)
    assert evaluated[1] >= 10 * evaluated[0]
    assert ordered[0] == ordered[1]
