"""Leaf counts taken over row classes equal a recount over samples.

The search counts a capture, a set of row classes, by weighted popcounts
of the equivalence index's planes.  These properties build leaves with the
code the search runs (``make_leaf``; the children a split table interns,
the negative one by ``make_child_leaf`` from the leaf's capture, which
``and_clauses`` rebuilds, and the positive one as the leaf's counts minus
the negative one's; node
support's comparison against ``_Run.support_s``; ``_Run._similar_skip``)
on data with many duplicate rows, and recount every figure per sample
through ``and_literal`` on the dataset's columns.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree.dataset import and_literal, from_rows
from opttree.search import SearchConfig, _Run
from opttree.tree import Clause, and_clauses, make_child_leaf, make_leaf
from tests.conftest import child_keys

# rows drawn from a pool of at most 6, so classes hold many samples
data = st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
             min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)),
             min_size=1, max_size=120),
    st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
    st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
    st.sampled_from([Fraction(1, 100), Fraction(1, 20), Fraction(1, 5)])))


def _dataset(m, pool, picks):
    rows = [pool[i % len(pool)] for i, _ in picks]
    return from_rows([f"f{j}" for j in range(m)], rows,
                     [y for _, y in picks])


def _clauses(m, drawn):
    """Literals on distinct features of the dataset."""
    by_feature = {f % m: polarity for f, polarity in drawn}
    return [Clause(f, p) for f, p in by_feature.items()]


def _samples(ds, clauses):
    capture = ds.all_samples
    for c in clauses:
        capture = and_literal(ds, capture, c.feature, c.polarity)
    return capture


def _recount(ds, capture, lam):
    """(support, correct, mistakes, b0_count, prediction, closed by node
    support) of a set of samples, counted sample by sample."""
    support = capture.bit_count()
    ones = (capture & ds.labels).bit_count()
    prediction = 1 if ones > support - ones else 0
    correct = ones if prediction else support - ones
    groups: dict[tuple, list[int]] = {}
    for i in range(ds.n_samples):
        if capture >> i & 1:
            row = tuple(col >> i & 1 for col in ds.columns)
            groups.setdefault(row, []).append(ds.labels >> i & 1)
    b0 = sum(min(sum(ys), len(ys) - sum(ys)) for ys in groups.values())
    closed = support * lam.denominator < 2 * lam.numerator * ds.n_samples
    return support, correct, support - correct, b0, prediction, closed


def _counts(leaf, run):
    # node support closes a leaf by the run's comparison of its count
    return (leaf.n_captured, leaf.n_correct, leaf.mistakes, leaf.b0_count,
            leaf.prediction, run.q * leaf.n_captured < run.support_s)


@given(data)
@settings(max_examples=150, deadline=None)
def test_leaf_counts_match_a_per_sample_recount(drawn):
    m, pool, picks, clauses1, _, lam = drawn
    ds = _dataset(m, pool, picks)
    run = _Run(ds, SearchConfig(lam=lam))
    eq = run.eq
    clauses = _clauses(m, clauses1)
    leaf = make_leaf(clauses, eq)
    assert _counts(leaf, run) == _recount(ds, _samples(ds, clauses), lam)
    # the capture the leaf's split table builds its children from
    capture = and_clauses(eq, eq.all_classes, leaf.clauses)
    run._split_table(leaf)
    for f in range(m):
        if any(c.feature == f for c in clauses):
            continue
        k1, k2 = child_keys(leaf, f)
        negative, positive = (
            _recount(ds, _samples(ds, clauses + [Clause(f, polarity)]), lam)
            for polarity in (False, True))
        assert _counts(make_child_leaf(k1, capture, f, eq), run) == negative
        # the children the table interned: the negative one counted from
        # the capture, the positive one as the leaf's counts minus those
        c1, c2 = (run.leaf_cache.intern(k, pytest.fail) for k in (k1, k2))
        assert _counts(c1, run) == negative
        assert _counts(c2, run) == positive


@given(data)
@settings(max_examples=150, deadline=None)
def test_similar_support_omega_is_the_per_sample_difference(drawn):
    m, pool, picks, clauses1, clauses2, lam = drawn
    ds = _dataset(m, pool, picks)
    run = _Run(ds, SearchConfig(lam=lam))
    run.best_s = run.q * ds.n_samples  # an incumbent of objective 1
    one = make_leaf(_clauses(m, clauses1), run.eq)
    two = make_leaf(_clauses(m, clauses2), run.eq)
    # the captures similar support rebuilds
    one_capture, two_capture = (
        and_clauses(run.eq, run.eq.all_classes, leaf.clauses)
        for leaf in (one, two))
    omega = (_samples(ds, one.clauses) ^ _samples(ds, two.clauses)) \
        .bit_count()
    # skipped exactly when the companion's floor reaches best + omega
    floor_s = run.best_s + run.q * omega
    assert run._similar_skip(one_capture, [(floor_s, two_capture)])
    assert not run._similar_skip(one_capture, [(floor_s - 1, two_capture)])
