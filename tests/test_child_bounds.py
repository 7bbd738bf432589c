"""Children take their bounds from their parent, and leaves keep captures
only when the search splits them.

The search prices every child from one base per expansion, the parent's
sums less the designated leaf plus the new leaf penalty, adjusted for the
two leaves the split adds; it builds the ones the price does not reject
with ``TreeState.derived``, and queues a child on its liveness alone,
without looking for an open leaf.  No child reuses its parent's leaves:
every child is a split.  These tests check the
sums and the queueing against from-scratch work on every child of real
fits that the search builds, and check that after a fit only the leaves
the search split hold their capture, a set of row classes.
"""

import random
from fractions import Fraction

from opttree.bounds import BoundToggles
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run
from opttree.tree import TreeState
from tests.conftest import bits, random_dataset

TOGGLE_SETS = (
    BoundToggles(),
    BoundToggles(similar_support=True),
    BoundToggles(node_support=False, leaf_accuracy=False),
    BoundToggles(lookahead=False, equivalent_points=False,
                 incremental_accuracy=False),
)


def _from_scratch(tree):
    return TreeState(leaves=tree.leaves, splittable=tree.splittable,
                     h=tree.h, n_samples=tree.n_samples, lam=tree.lam,
                     must_split_pairs=tree.must_split_pairs)


def _sums(tree):
    return tree.b_s, tree.r_s, tree.b0_s, tree.unchanged_capture, tree.scale


def test_derived_children_match_a_from_scratch_sum(monkeypatch):
    built = []
    derived = TreeState.derived.__func__

    def recording(cls, parent, *args):
        child = derived(cls, parent, *args)
        built.append((parent, child))
        return child

    monkeypatch.setattr(TreeState, "derived", classmethod(recording))
    evaluated = []
    evaluate = _Run._evaluate

    def recording_evaluate(run, child):
        # the price rejected every child the hierarchical bound rejects
        assert child.b_s < run.best_s
        ok = evaluate(run, child)
        if ok:
            evaluated.append(child)
        return ok

    monkeypatch.setattr(_Run, "_evaluate", recording_evaluate)
    expand = _Run.expand
    returned = closed = 0

    def checking_expand(run, tree):
        nonlocal returned, closed
        evaluated.clear()
        out = expand(run, tree)
        kept = {id(c) for c in out}
        # a child is returned iff it is live, and only the liveness gate
        # drops children that have no open leaf: none of them is live
        for child in evaluated:
            live = run._is_live(child)
            expandable = run._expandable_index(child) is not None
            assert (id(child) in kept) == live
            assert expandable or not live
            returned += live
            closed += not expandable
        return out

    monkeypatch.setattr(_Run, "expand", checking_expand)

    rng = random.Random(7)
    retire = must_split = fits = 0
    for _ in range(6):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.3)))
        lam = Fraction(1, rng.choice((20, 30, 50)))
        for policy in Policy:
            for toggles in TOGGLE_SETS:
                built.clear()
                config = SearchConfig(lam=lam, policy=policy,
                                      toggles=toggles, max_trees=400)
                _Run(ds, config).run()
                fits += 1
                for parent, child in built:
                    assert _sums(child) == _sums(_from_scratch(child))
                    if child.leaves is parent.leaves:
                        retire += 1
                        continue
                    new = frozenset(l for l in child.leaves
                                    if l not in parent.leaves)
                    must_split += new in child.must_split_pairs
    assert fits == 6 * 7 * len(TOGGLE_SETS)
    assert retire == 0 and must_split > 1000 and returned > 10000
    assert closed > 100


def _fit_recording_splits(ds, config):
    """Run a fit; return the run and the leaves it split."""
    run = _Run(ds, config)
    split = []
    expand = run.expand

    def recording(tree):
        idx = run._expandable_index(tree)
        if idx is not None:
            split.append(tree.leaves[idx])
        return expand(tree)

    run.expand = recording
    run.run()
    return run, split


def test_only_split_leaves_keep_a_capture():
    rng = random.Random(11)
    for toggles in (BoundToggles(), BoundToggles(similar_support=True)):
        for _ in range(8):
            ds = random_dataset(rng, rng.randint(30, 80), rng.randint(3, 6),
                                duplicate_bias=0.3)
            config = SearchConfig(lam=Fraction(1, 40), toggles=toggles)
            run, split = _fit_recording_splits(ds, config)
            leaves = list(run.leaf_cache._store.values())
            assert len(leaves) > len({id(l) for l in split})
            with_capture = {id(l) for l in leaves if l._capture is not None}
            assert with_capture == {id(l) for l in split}
            for leaf in leaves:
                # recounted per sample, not through the library's ANDs
                expected = bits(
                    all(ds.columns[c.feature] >> i & 1 == c.polarity
                        for c in leaf.clauses)
                    for i in range(ds.n_samples))
                assert _samples_of(ds, run.eq, leaf.capture) == expected
                assert leaf.n_captured == expected.bit_count()


def _samples_of(ds, eq, capture):
    """The samples of the classes in ``capture``: those whose row equals
    a member class's row, read back bit by bit from the class columns.
    Classes have distinct, non-empty sets of samples, so two captures
    give the same samples only if they hold the same classes."""
    rows = {tuple(col >> k & 1 for col in eq.columns)
            for k in range(eq.n_classes) if capture >> k & 1}
    return bits(tuple(col >> i & 1 for col in ds.columns) in rows
                for i in range(ds.n_samples))

