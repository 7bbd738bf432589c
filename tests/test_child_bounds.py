"""Children take their bounds from their parent, and the run keeps no
capture.

The search prices every child from one base per expansion, the parent's
sums less its first leaf to split plus the new leaf penalty, adjusted for
the two leaves the split adds.  A child the price does not reject becomes
a queue entry, its sums and what builds it, and is queued on its liveness
alone, without looking for a leaf to split; its tree, which stores no
sums, is built only when the entry is expanded or is the fit's result.
No child reuses its parent's leaves: every child is a split.  These tests
check the sums and the queueing against from-scratch sums over the
leaves of every child that real fits price in, each built here from its
entry, and of every tree the fits build; and they check that after a fit
the run holds a split table, only the leaf's splits and no capture, for
exactly the leaves the search split.
"""

import random
from fractions import Fraction

from opttree import search
from opttree.bounds import BoundToggles
from opttree.scheduler import Policy
from opttree.search import SearchConfig, _Run
from opttree.tree import (B0_S, B_S, N_LEAVES, R_S, UNCHANGED_CAPTURE, Leaf,
                          and_clauses, as_entry, build_tree, child_keys)
from tests.conftest import bits, random_dataset

TOGGLE_SETS = (
    BoundToggles(),
    BoundToggles(similar_support=True),
    BoundToggles(node_support=False, leaf_accuracy=False),
    BoundToggles(lookahead=False, equivalent_points=False,
                 incremental_accuracy=False),
)
# the default toggles and each one flipped from its default
TOGGLES_ONE_OFF = (BoundToggles(), BoundToggles(similar_support=True)) \
    + tuple(BoundToggles(**{name: False}) for name in (
        "lookahead", "node_support", "incremental_accuracy",
        "leaf_accuracy", "equivalent_points", "permutation_cache"))


def _sums(tree, lam):
    """A tree's (b_s, r_s, b0_s, unchanged capture, leaf count), summed
    from scratch over its leaves by ``as_entry``."""
    return _entry_sums(as_entry(tree, lam))


def _entry_sums(entry):
    """An entry's (b_s, r_s, b0_s, unchanged capture, leaf count)."""
    return (entry[B_S], entry[R_S], entry[B0_S], entry[UNCHANGED_CAPTURE],
            entry[N_LEAVES])


def test_derived_children_match_a_from_scratch_sum(monkeypatch):
    # every child an expansion prices in passes its final liveness filter
    # once; record them there and build each one here
    expand = _Run.expand
    priced = []
    returned = closed = 0

    def checking_expand(run, parent_entry):
        nonlocal returned, closed
        gate, seen = run._is_live, []

        def recording(entry):
            seen.append(entry)
            return gate(entry)
        run._is_live = recording
        evaluated, best_before = run.stats.trees_evaluated, run.best_s
        try:
            out = expand(run, parent_entry)
        finally:
            run._is_live = gate
        assert run.stats.trees_evaluated - evaluated == len(seen)
        kept = {id(e) for e in out}
        parent = build_tree(parent_entry)
        # a child is returned iff it is live, and only the liveness gate
        # drops children that have no leaf to split: none of them is live
        for entry in seen:
            # the hierarchical bound dropped every child priced at or
            # above the incumbent, which only falls during the expansion
            assert entry[B_S] < best_before
            child = build_tree(entry)
            live = gate(entry)
            assert (id(entry) in kept) == live
            assert child.split or not live
            returned += live
            closed += not child.split
            priced.append((parent, child, entry))
        return out

    monkeypatch.setattr(_Run, "expand", checking_expand)

    rng = random.Random(7)
    must_split = both_unchanged = fits = 0
    for _ in range(6):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.3)))
        lam = Fraction(1, rng.choice((20, 30, 50)))
        for policy in Policy:
            for toggles in TOGGLE_SETS:
                priced.clear()
                config = SearchConfig(lam=lam, policy=policy,
                                      toggles=toggles, max_trees=400)
                _Run(ds, config).run()
                fits += 1
                for parent, child, entry in priced:
                    assert _entry_sums(entry) == _sums(child, lam)
                    # the parent's first leaf to split is the one split
                    (split,) = [l for l in parent.leaves
                                if l not in child.leaves]
                    assert split is parent.split[0]
                    # a split gaining less than lam may not leave both
                    # new leaves unchanged, unless the bound is off
                    new = [l for l in child.leaves if l not in parent.leaves]
                    gain = sum(l.n_correct for l in new) - split.n_correct
                    if gain * lam.denominator >= lam.numerator * ds.n_samples:
                        continue
                    is_open = any(l in child.split for l in new)
                    if toggles.incremental_accuracy:
                        assert is_open
                        must_split += 1
                    else:
                        both_unchanged += not is_open
    assert fits == 6 * 7 * len(TOGGLE_SETS)
    assert must_split > 1000 and returned > 10000
    assert both_unchanged > 1000
    assert closed > 100


def test_trees_built_at_pop_match_a_from_scratch_sum(monkeypatch):
    # through ``fit``: every tree the search builds from a queue entry,
    # at a pop or for the result, holds its unchanged leaves and its
    # leaves to split each in canonical order, and the sums its entry was
    # priced with, which a from-scratch sum over its leaves reproduces.
    # Node support is read once, for the root: every other leaf to split
    # was kept open by its split table
    built = []

    def recording(entry):
        tree = build_tree(entry)
        built.append((entry, tree))
        return tree

    monkeypatch.setattr(search, "build_tree", recording)
    rng = random.Random(17)
    fits = trees = opened = 0
    for _ in range(6):
        ds = random_dataset(rng, rng.randint(10, 60), rng.randint(2, 5),
                            duplicate_bias=rng.choice((0.0, 0.3)))
        lam = Fraction(1, rng.choice((10, 20, 40)))
        for policy in Policy:
            for toggles in TOGGLES_ONE_OFF:
                built.clear()
                res = search.fit(ds, SearchConfig(
                    lam=lam, policy=policy, toggles=toggles, max_trees=300))
                fits += 1
                assert any(tree is res.best_tree for _, tree in built) \
                    or len(res.best_tree.leaves) == 1
                for entry, tree in built:
                    for leaves in (tree.unchanged, tree.split):
                        keys = [leaf.key for leaf in leaves]
                        assert all(a < b for a, b in zip(keys, keys[1:]))
                    assert _entry_sums(entry) == _sums(tree, lam)
                    assert tree.ds is ds
                    if toggles.node_support and len(tree.leaves) > 1:
                        support = 2 * lam.numerator * ds.n_samples
                        assert all(lam.denominator * leaf.n_captured
                                   >= support for leaf in tree.split)
                        opened += len(tree.split)
                trees += len(built)
    assert fits == 6 * len(Policy) * len(TOGGLES_ONE_OFF)
    assert trees > 2000 and opened > 1000


def _fit_recording_splits(ds, config):
    """Run a fit; return the run and the leaves it split."""
    run = _Run(ds, config)
    split = []
    expand = run.expand

    def recording(entry):
        expansions = run.stats.expansions
        out = expand(entry)
        if run.stats.expansions > expansions:
            split.append(build_tree(entry).split[0])
        return out

    run.expand = recording
    run.run()
    return run, split


def test_split_tables_hold_only_splits():
    rng = random.Random(11)
    for toggles in (BoundToggles(), BoundToggles(similar_support=True)):
        for _ in range(8):
            ds = random_dataset(rng, rng.randint(30, 80), rng.randint(3, 6),
                                duplicate_bias=0.3)
            config = SearchConfig(lam=Fraction(1, 40), toggles=toggles)
            run, split = _fit_recording_splits(ds, config)
            leaves = list(run.leaf_cache._store.values())
            assert len(leaves) > len({id(l) for l in split})
            assert {id(l) for l in run.split_tables} \
                == {id(l) for l in split}
            # a table is the list of its leaf's splits: the feature, the
            # interned children on it and their flag pairs, no capture
            for leaf, table in run.split_tables.items():
                assert type(table) is list
                for f, c1, c2, flag_pairs in table:
                    assert type(c1) is Leaf and type(c2) is Leaf
                    assert (c1.key, c2.key) == child_keys(leaf, f)
                    assert flag_pairs and all(
                        type(s) is bool for pair in flag_pairs for s in pair)
            for leaf in leaves:
                # recounted per sample, not through the library's ANDs
                expected = bits(
                    all(ds.columns[c.feature] >> i & 1 == c.polarity
                        for c in leaf.clauses)
                    for i in range(ds.n_samples))
                capture = and_clauses(run.eq, run.eq.all_classes,
                                      leaf.clauses)
                assert _samples_of(ds, run.eq, capture) == expected
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

