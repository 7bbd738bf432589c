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
                          and_clauses, as_entry, build_tree)
from tests.conftest import bits, child_keys, expand_priced, random_dataset

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
    # every child an expansion prices in, found apart from it by
    # ``expand_priced`` from its split table and summed from scratch; the
    # live ones are among those ``expand`` returned, with those sums
    priced = []
    returned = closed = 0

    def checking_expand(run, parent, parent_entry):
        nonlocal returned, closed
        best_before = run.best_s
        seen, out = expand_priced(run, parent, parent_entry)
        # each returned entry by its split, which no other child shares
        kept = {e[6:]: e for e in out}
        # a child live under the final incumbent was returned, and only
        # the liveness gate drops children that have no leaf to split:
        # none of them is live
        for entry in seen:
            # the hierarchical bound dropped every child priced at or
            # above the incumbent, which only falls during the expansion
            assert entry[B_S] < best_before
            child = build_tree(entry)
            (live,) = run._live([entry])
            assert entry[6:] in kept or not live
            assert child.split or not live
            # a returned child is checked with the sums it was priced with
            entry = kept.get(entry[6:], entry)
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


def test_the_gate_at_pricing_agrees_with_the_batch_gate(monkeypatch):
    # each priced child is kept or dropped where it is priced, under the
    # incumbent of that moment, as ``_live`` judges it under that
    # incumbent, and ``expand`` returns the kept ones.  After an expansion
    # that lowers the incumbent the run hands those to ``_live`` once
    # more, then the queue; after any other it asks ``_live`` nothing
    checked = lowered = partway = 0
    gate = _Run._live
    # the run's calls of its batch gate since the last expansion, and
    # whether that expansion lowered the incumbent and what it returned
    batches, last = [], []

    def recording(run, entries):
        batches.append(list(entries))
        return gate(run, batches[-1])

    def check_last():
        if last:
            fell, out = last
            assert batches[:1] == ([out] if fell else [])
            assert len(batches) == 2 * fell
        batches.clear()
        last.clear()

    def checking_expand(run, parent, parent_entry):
        nonlocal checked, lowered, partway
        check_last()
        best_before = run.best_s
        priced, out = expand_priced(run, parent, parent_entry)
        assert batches == []
        best_after, kept, best = run.best_s, [], best_before
        for entry in priced:
            run.best_s = best
            (live,) = gate(run, [entry])
            if live:
                kept.append(entry[6:])
            best = min(best, entry[R_S])
            checked += 1
        run.best_s = best_after
        assert [e[6:] for e in out] == kept
        if best_after < best_before:
            lowered += 1
            # a child was priced after the first new incumbent
            first = next(i for i, e in enumerate(priced)
                         if e[R_S] < best_before)
            partway += first < len(priced) - 1
        last[:] = [best_after < best_before, out]
        return out

    monkeypatch.setattr(_Run, "expand", checking_expand)
    monkeypatch.setattr(_Run, "_live", recording)
    rng = random.Random(29)
    for _ in range(6):
        ds = random_dataset(rng, rng.randint(20, 60), rng.randint(3, 6),
                            duplicate_bias=rng.choice((0.0, 0.3)))
        lam = Fraction(1, rng.choice((20, 30, 50)))
        for policy in Policy:
            for toggles in TOGGLES_ONE_OFF:
                batches.clear()
                _Run(ds, SearchConfig(lam=lam, policy=policy,
                                      toggles=toggles, max_trees=300)).run()
                check_last()
    assert checked > 20000 and lowered > 100 and partway > 100


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
    """Run a fit; return the run, the leaves it split, and its split
    tables and cached leaves, which the run drops when it finishes."""
    run = _Run(ds, config)
    tables, leaf_cache = run.split_tables, run.leaf_cache
    split = []
    expand = run.expand

    def recording(tree, entry):
        split.append(tree.split[0])
        return expand(tree, entry)

    run.expand = recording
    run.run()
    return run, split, tables, list(leaf_cache._store.values())


def _captured(ds, clauses):
    """The samples ``clauses`` capture, one bit per sample: the AND of the
    dataset's own columns, not the library's AND of class columns."""
    everyone = (1 << ds.n_samples) - 1
    capture = everyone
    for c in clauses:
        column = ds.columns[c.feature]
        capture &= column if c.polarity else everyone & ~column
    return capture


def test_split_tables_hold_only_splits():
    rng = random.Random(11)
    no_thresholds = BoundToggles(
        lookahead=False, node_support=False, leaf_accuracy=False,
        incremental_accuracy=False, equivalent_points=False)
    # with every threshold off a fit runs to millions of trees: it is
    # stopped, and its split leaves' tables checked, at max_trees
    for toggles, max_trees in ((BoundToggles(), None),
                               (BoundToggles(similar_support=True), None),
                               (BoundToggles(leaf_accuracy=False), None),
                               (no_thresholds, 5000)):
        # (leaf, feature) pairs of the tables' leaves with an empty side
        empty_sides = 0
        for _ in range(8):
            ds = random_dataset(rng, rng.randint(30, 80), rng.randint(3, 6),
                                duplicate_bias=0.3)
            config = SearchConfig(lam=Fraction(1, 40), toggles=toggles,
                                  max_trees=max_trees)
            run, split, tables, leaves = _fit_recording_splits(ds, config)
            # node support closes some leaves; with it off a search may
            # split every leaf it caches
            if toggles.node_support:
                assert len(leaves) > len({id(l) for l in split})
            assert {id(l) for l in tables} \
                == {id(l) for l in split}
            # a table is the list of its leaf's splits: the feature, the
            # interned children on it and their flag pairs, no capture.
            # Each literal is made once per run, for every table.  No
            # split has an empty side, whatever the toggles
            literals = {}
            for leaf, table in tables.items():
                assert type(table) is list
                for f, c1, c2, flag_pairs in table:
                    assert type(c1) is Leaf and type(c2) is Leaf
                    assert (c1.key, c2.key) == child_keys(leaf, f)
                    for child in (c1, c2):
                        (new,) = set(child.key) - set(leaf.key)
                        assert literals.setdefault(new, new) is new
                        assert _captured(ds, child.key) != 0
                    assert flag_pairs and all(
                        type(s) is bool for pair in flag_pairs for s in pair)
                used = {c.feature for c in leaf.clauses}
                empty_sides += sum(
                    0 in (_captured(ds, k1), _captured(ds, k2))
                    for f in range(ds.n_features) if f not in used
                    for k1, k2 in [child_keys(leaf, f)])
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
        # so the check above is not vacuous
        assert empty_sides > 0, toggles


def _samples_of(ds, eq, capture):
    """The samples of the classes in ``capture``: those whose row equals
    a member class's row, read back bit by bit from the class columns.
    Classes have distinct, non-empty sets of samples, so two captures
    give the same samples only if they hold the same classes."""
    rows = {tuple(col >> k & 1 for col in eq.columns)
            for k in range(eq.n_classes) if capture >> k & 1}
    return bits(tuple(col >> i & 1 for col in ds.columns) in rows
                for i in range(ds.n_samples))

