"""Each pruning rule, checked where the search evaluates it: node support
in the split flags and the root check of ``_Run.run``, ``_Run._live``,
the accuracy and gain checks in ``_Run._split_table``,
``_Run._similar_skip`` and ``_Run._record_trace``."""

import itertools
import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import opttree.search
from opttree.bounds import (BoundToggles, count_trees, cumulative_perm,
                            floor_log10, max_leaves_apriori,
                            symmetry_savings, total_evaluations_bound_log10)
from opttree.dataset import and_literal, build_equivalence_index, from_rows
from opttree.oracle import exhaustive_optimum
from opttree.search import SearchConfig, _Run, fit
from opttree.tree import (B0_S, B_S, R_S, Clause, and_clauses, as_entry,
                          build_tree, make_child_leaf, make_leaf, root_tree)
from tests.conftest import child_keys, expand, lower_bound, random_dataset


def _run_at(ds, lam, best, **toggles):
    """A search run on ds whose incumbent objective is best."""
    run = _Run(ds, SearchConfig(lam=lam, toggles=BoundToggles(**toggles)))
    run._t0 = 0.0
    run.best_s = _scaled(run, best)
    return run


def _scaled(run, value: Fraction) -> int:
    scaled = value * run.n * run.q
    assert scaled.denominator == 1
    return scaled.numerator


def _closed(k, n, lam, **toggles):
    """Whether node support closes the leaf f0=1 over n samples, 0 < k < n
    of which have f0=1: the root's split on f0 never keeps it to split."""
    ds = from_rows(["a"], [[1]] * k + [[0]] * (n - k),
                   [1] * k + [0] * (n - k))
    run = _run_at(ds, lam, Fraction(1), leaf_accuracy=False,
                  incremental_accuracy=False, **toggles)
    ((_, _, c2, flag_pairs),) = run._split_table(
        root_tree(ds, run.eq).split[0])
    assert c2.key == (Clause(0, True),) and c2.n_captured == k
    return all(not s2 for _, s2 in flag_pairs)


def test_toggles_defaults_and_replace():
    t = BoundToggles()
    assert t.lookahead and t.equivalent_points and t.permutation_cache
    assert not t.similar_support
    t2 = replace(t, lookahead=False)
    assert not t2.lookahead and t.lookahead


def test_leaf_is_dead():
    lam = Fraction(1, 100)
    assert _closed(15, 1000, lam)
    assert not _closed(20, 1000, lam)  # boundary: equality passes
    assert _closed(1, 1000, lam)
    # node support off: never closed
    assert not _closed(1, 1000, lam, node_support=False)
    assert not _closed(15, 1000, lam, node_support=False)

    # a fit never splits the dead leaf unless node support is off; the
    # label a xor b makes splitting it worth trying once lookahead and
    # leaf accuracy, which would prune those trees first, are off
    rows = [[1, i % 2] for i in range(15)] + [[0, i % 2] for i in range(985)]
    ds = from_rows(["a", "b"], rows, [a ^ b for a, b in rows])

    def split_leaves(**toggles):
        run = _Run(ds, SearchConfig(lam=lam, toggles=BoundToggles(
            lookahead=False, leaf_accuracy=False, **toggles)))
        # the run drops its tables when it finishes
        tables = run.split_tables
        run.run()
        return {leaf.key for leaf in tables}

    assert (Clause(0, True),) not in split_leaves()
    assert (Clause(0, True),) in split_leaves(node_support=False)


def test_node_support_closes_the_root():
    # lam > 1/2: the root holds fewer than 2*lam of the samples, so under
    # every toggle set with node support on it is never expanded, though
    # with lookahead off it is live
    rng = random.Random(21)
    names = [f.name for f in fields(BoundToggles)]
    opened = 0
    for _ in range(12):
        ds = random_dataset(rng, rng.randint(4, 30), rng.randint(1, 4))
        lam = Fraction(rng.randint(51, 99), 100)
        for values in itertools.product((False, True), repeat=len(names)):
            toggles = BoundToggles(**dict(zip(names, values)))
            stats = fit(ds, SearchConfig(lam=lam, toggles=toggles)).stats
            if toggles.node_support:
                assert stats.expansions == 0
            else:
                opened += stats.expansions > 0
    assert opened > 100


def _refused_features(ds, lam, **toggles):
    """The features the root's split table leaves out."""
    root = root_tree(ds, build_equivalence_index(ds))
    run = _run_at(ds, lam, Fraction(1), **toggles)
    run.expand(root, as_entry(root, lam))
    kept = {f for f, *_ in run.split_tables[root.split[0]]}
    return set(range(ds.n_features)) - kept


def test_child_accuracy_admissible():
    # lam*N = 10: f0=1 holds 9 samples (at most 9 correct), f1=1 holds 10,
    # all labelled 1; the other children hold ~990 samples.  f2 and f3
    # negate f0 and f1, putting the small child on the other side.
    rows = [[1, 0, 0, 1]] * 9 + [[0, 1, 1, 0]] * 10 + [[0, 0, 1, 1]] * 981
    labels = [1] * 19 + [i % 2 for i in range(981)]
    ds = from_rows(["a", "b", "c", "d"], rows, labels)
    lam = Fraction(1, 100)
    assert _refused_features(ds, lam) == {0, 2}  # 10 correct passes
    assert _refused_features(ds, lam, leaf_accuracy=False) == set()


def test_monotone_in_lambda():
    a, b = Fraction(1, 100), Fraction(1, 10)
    for k in (1, 5, 10, 20):
        if _closed(k, 100, a):
            assert _closed(k, 100, b)
    rng = random.Random(4)
    for _ in range(50):
        ds = random_dataset(rng, rng.randint(4, 60), rng.randint(2, 5))
        assert _refused_features(ds, a) <= _refused_features(ds, b)


def _gain_dataset(deltas):
    """100 samples, 60 labelled 1.  Splitting the root on feature j gains
    exactly deltas[j] correct samples: its 0 side holds 10 ones and
    10 + deltas[j] zeros."""
    rows = []
    for i in range(100):
        k = i if i < 60 else i - 60  # rank within the label class
        rows.append([0 if k < 10 + (0 if i < 60 else d) else 1
                     for d in deltas])
    return from_rows([f"f{j}" for j in range(len(deltas))], rows,
                     [1] * 60 + [0] * 40)


ALL_FLAGS = {(s1, s2) for s1 in (False, True) for s2 in (False, True)}
# a split gaining less than lam keeps one of its two leaves to split
SOME_OPEN = ALL_FLAGS - {(False, False)}


def _flags_by_feature(deltas, lam, **toggles):
    """For every root split, the flags of the two new leaves over the
    children the search prices in, built from their queue entries, below
    an incumbent of 1 that no child replaces, so that every flag pair is
    priced in and, with lookahead and the floor off, live."""
    ds = _gain_dataset(deltas)
    run = _run_at(ds, lam, Fraction(1), lookahead=False,
                  equivalent_points=False, **toggles)
    run._set_best = lambda entry: None
    seen = {}
    root = root_tree(ds, run.eq)
    for child in map(build_tree, run.expand(root, as_entry(root, lam))):
        (f,) = {c.feature for leaf in child.leaves for c in leaf.clauses}
        seen.setdefault(f, set()).add(
            tuple(leaf in child.split for leaf in child.leaves))
    assert run.stats.trees_evaluated == sum(map(len, seen.values()))
    return seen


def test_split_gain_formula():
    # lam = 1/50 over 100 samples: a split must gain 2 correct samples
    lam = Fraction(1, 50)
    assert _flags_by_feature((1, 2), lam) == {0: SOME_OPEN, 1: ALL_FLAGS}
    assert _flags_by_feature((1, 2), lam, incremental_accuracy=False) \
        == {0: ALL_FLAGS, 1: ALL_FLAGS}


def test_split_gain_zero_gain_must_split():
    # lam = 1/100 over 100 samples: gain 0 obliges, gain exactly lam not
    assert _flags_by_feature((0, 1), Fraction(1, 100)) \
        == {0: SOME_OPEN, 1: ALL_FLAGS}


def test_split_gain_nonnegative_random():
    rng = random.Random(3)
    for _ in range(200):
        ds = random_dataset(rng, rng.randint(2, 30), rng.randint(1, 4))
        eq = build_equivalence_index(ds)
        parent = make_leaf([], eq)
        f = rng.randrange(ds.n_features)
        k1, k2 = child_keys(parent, f)
        left = make_child_leaf(
            k1, and_literal(eq, eq.all_classes, f, False), eq)
        right = make_leaf(k2, eq)
        left_capture, right_capture = (and_clauses(eq, eq.all_classes, k)
                                       for k in (k1, k2))
        assert left_capture & right_capture == 0
        assert left_capture | right_capture == eq.all_classes
        assert left.n_correct + right.n_correct >= parent.n_correct


def test_lookahead_prunes():
    lam = Fraction(1, 100)
    ds = from_rows(["a"], [[0], [1]] * 50, [0, 1] * 50)

    def pruned(b, best, **toggles):
        run = _run_at(ds, lam, best, equivalent_points=False, **toggles)
        # an entry of bound b; with equivalent points off nothing else of
        # it is read
        entry = (_scaled(run, b), 0, 0, 0, 2, None, None, None, True, True)
        return not run._live([entry])[0]

    assert pruned(Fraction(30, 100), Fraction(305, 1000))
    assert not pruned(Fraction(30, 100), Fraction(32, 100))
    assert pruned(Fraction(31, 100), Fraction(32, 100))  # b + lam == best
    assert not pruned(Fraction(30, 100), Fraction(305, 1000),
                      lookahead=False)
    # the hierarchical bound alone: b >= best
    assert pruned(Fraction(30, 100), Fraction(30, 100), lookahead=False)


def test_equivalent_points_floor():
    rows = [[0, 1]] * 4 + [[1, 0]] * 2
    labels = [1, 1, 1, 1, 0, 1]
    ds = from_rows(["a", "b"], rows, labels)
    lam = Fraction(1, 100)
    eq = build_equivalence_index(ds)
    entry = as_entry(root_tree(ds, eq), lam)
    assert entry[B0_S] == lam.denominator  # one sample in N: 1/6
    # b + b0 + lam >= best prunes: 0 + 1/6 + 1/100 = 106/600
    assert not _run_at(ds, lam, Fraction(106, 600))._live([entry])[0]
    assert _run_at(ds, lam, Fraction(107, 600))._live([entry])[0]
    # with the bound off, the run's own index gives the root no floor
    off = _run_at(ds, lam, Fraction(106, 600), equivalent_points=False)
    off_entry = as_entry(root_tree(ds, off.eq), lam)
    assert off_entry[B0_S] == 0 and off._live([off_entry])[0]

    distinct = from_rows(["a", "b"], [[0, 0], [0, 1], [1, 0]], [1, 0, 1])
    root = root_tree(distinct, build_equivalence_index(distinct))
    assert as_entry(root, lam)[B0_S] == 0


def test_equivalent_points_floor_le_splittable_error():
    rng = random.Random(5)
    lam = Fraction(1, 20)
    trees = 0
    for _ in range(100):
        ds = random_dataset(rng, rng.randint(4, 30), 3, duplicate_bias=0.5)
        eq = build_equivalence_index(ds)
        root = root_tree(ds, eq)
        for entry in [as_entry(root, lam)] + expand(
                root, ds, SearchConfig(lam=lam), Fraction(1)):
            trees += 1
            assert 0 <= entry[B0_S] <= entry[R_S] - entry[B_S]
    assert trees > 100


def test_max_leaves_formulas():
    assert max_leaves_apriori(Fraction(1, 200), 10) == 100
    assert max_leaves_apriori(Fraction(3, 10), 4) == 1
    assert max_leaves_apriori(Fraction(1, 2), 4) == 1
    with pytest.raises(ValueError):
        max_leaves_apriori(Fraction(0), 4)
    # the one lam check of the search and the oracle
    with pytest.raises(ValueError, match="not float"):
        max_leaves_apriori(0.1, 3)

    # the current and parent-specific caps follow from the lower-bound
    # gate: every child the search keeps satisfies both
    rng = random.Random(12)
    lam = Fraction(1, 20)
    children = 0
    for _ in range(200):
        ds = random_dataset(rng, rng.randint(4, 30), rng.randint(2, 4))
        eq = build_equivalence_index(ds)
        best = Fraction(rng.randint(1, 10), 20)
        parents = [root_tree(ds, eq)]
        parents += map(build_tree, expand(parents[0], ds,
                                          SearchConfig(lam=lam), best))
        for parent in parents:
            for entry in expand(parent, ds, SearchConfig(lam=lam), best):
                children += 1
                h = build_tree(entry).h
                assert h <= min(math.floor(best / lam), 2 ** ds.n_features)
                assert h < parent.h + math.floor(
                    (best - lower_bound(parent, lam)) / lam)
    assert children > 50


def test_remaining_evaluations():
    lam = Fraction(1, 10)
    ds = from_rows(["a"], [[0], [1]] * 5, [0, 1] * 5)  # M = 1, N = 10
    root = root_tree(ds, build_equivalence_index(ds))  # b = 0, L = 1

    def traced(best, trees):
        run = _run_at(ds, lam, best)
        run.queue.push([as_entry(tree, lam) for tree in trees])
        run._record_trace()
        return run.trace[-1]

    empty = traced(Fraction(1, 2), [])
    assert empty.remaining_bound == 0 and empty.log10_remaining_bound is None
    # f = 0 when best <= b: only the k=0 term, Gamma = 1
    assert traced(Fraction(0), [root]).remaining_bound == 1
    assert traced(Fraction(0), [root]).log10_remaining_bound == 0
    # f = 2, L = 1, M = 1, K = 2 row classes: a tree has at most K leaves,
    # so f is capped at K - L = 1 and the sum is perm(2, 0) + perm(2, 1),
    # 1 + 2 = 3; f = 3 is capped alike
    assert traced(Fraction(2, 10), [root]).remaining_bound == 3
    both = traced(Fraction(3, 10), [root, root])
    assert both.remaining_bound == 6 and both.log10_remaining_bound == 0


def test_total_evaluations_bound():
    assert total_evaluations_bound_log10(Fraction(1, 2), 1) == 0  # 1+3=4
    prev = -1
    for m in range(1, 6):
        cur = total_evaluations_bound_log10(Fraction(1, 10), m)
        assert cur >= prev
        prev = cur
    with pytest.raises(ValueError):
        total_evaluations_bound_log10(Fraction(0), 3)
    with pytest.raises(ValueError, match="not float"):
        total_evaluations_bound_log10(0.1, 3)
    # far beyond CPython's 4300-digit int-to-str limit
    assert total_evaluations_bound_log10(Fraction(1, 3000), 30) > 4300


def test_floor_log10_exact():
    rng = random.Random(3)
    for n in [1, 9, 10, 11, 99, 100, 101] + [
            rng.getrandbits(rng.randint(1, 4000)) | 1 for _ in range(200)]:
        assert floor_log10(n) == len(str(n)) - 1
    # around powers of ten, also past 4300 digits where str(n) fails
    for k in (1, 15, 16, 300, 4299, 4300, 4301, 10 ** 4):
        assert floor_log10(10 ** k - 1) == k - 1
        assert floor_log10(10 ** k) == k
        assert floor_log10(10 ** k + 1) == k
        assert floor_log10(7 * 10 ** k + 3) == k
    with pytest.raises(ValueError):
        floor_log10(0)


def test_cumulative_perm_is_the_sum_of_perms():
    for slots in range(0, 12):
        for f in range(0, 14):
            assert cumulative_perm(slots, f) \
                == sum(math.perm(slots, k) for k in range(f + 1))


def test_symmetry_savings_values():
    assert symmetry_savings(10, 5) == 35463
    assert symmetry_savings(10, 1) == 0
    got = symmetry_savings(20, 10)
    assert round(got / 10 ** (len(str(got)) - 6)) == 736891  # 6 sig figs
    with pytest.raises(ValueError):
        symmetry_savings(10, 0)


def test_count_trees_table():
    assert count_trees(10, 1) == 10
    assert count_trees(10, 2) == 1000
    assert count_trees(20, 2) == 8000
    assert count_trees(10, 3) == 5_329_000
    with pytest.raises(ValueError):
        count_trees(0, 1)
    # too large to print: stops at the first step past 4300 digits
    with pytest.raises(ValueError, match="4300 digits"):
        count_trees(30, 30)


def _listed_trees(features, depth):
    """Every tree of depth <= depth as a nested tuple, listed one by one;
    None is a leaf and a path uses each feature at most once."""
    out = [None]
    if depth:
        for f in features:
            subtrees = _listed_trees(features - {f}, depth - 1)
            out += [(f, left, right) for left in subtrees
                    for right in subtrees]
    return out


def _trees_by_level_shape(p, depth):
    """Trees with 1..depth levels of splits, counted per level shape: n
    split nodes on a level offer 2n child slots, any subset of which
    splits on the next level, and a node on level l picks one of the
    p - l features its path has not used."""
    def completions(level, n):
        ways = 1  # no slot below this level splits
        if level + 1 < depth:
            for k in range(1, 2 * n + 1):
                ways += math.comb(2 * n, k) * (p - level - 1) ** k \
                    * completions(level + 1, k)
        return ways

    return p * completions(0, 1)


def test_count_trees_matches_brute_force():
    for p in range(1, 6):
        for d in range(1, 6):
            expected = _trees_by_level_shape(p, min(d, p))
            assert count_trees(p, d) == expected, (p, d)
            if expected < 30_000:
                trees = _listed_trees(frozenset(range(p)), d)
                assert len(set(trees)) == len(trees) == expected + 1
    assert count_trees(4, 4) == 238_144
    assert count_trees(6, 4) == _trees_by_level_shape(6, 4)


def test_similar_support_omega():
    # a split is skipped when a rejected companion's floor reaches
    # best + omega, omega being the support captured by exactly one side;
    # captures are sets of row classes, here of 1, 2, 3 and 4 samples
    rows = [[0, 0]] + [[0, 1]] * 2 + [[1, 0]] * 3 + [[1, 1]] * 4  # N = 10
    ds = from_rows(["a", "b"], rows, [0, 1] * 5)
    run = _run_at(ds, Fraction(1, 10), Fraction(1, 2))
    per_sample = _scaled(run, Fraction(1, 10))

    def cls(a, b):
        return and_clauses(run.eq, run.eq.all_classes,
                           [Clause(0, bool(a)), Clause(1, bool(b))])

    def skipped(t1, t2, floor_over_best):
        floor_s = run.best_s + floor_over_best
        return run._similar_skip(t1, [(floor_s, t2)])

    a = cls(0, 0) | cls(0, 1)
    b = cls(0, 1) | cls(1, 0)
    assert skipped(a, b, 4 * per_sample)  # omega = (1 + 3)/10
    assert not skipped(a, b, 4 * per_sample - 1)
    assert skipped(a, a, 0)  # omega = 0
    c = cls(1, 1)
    assert skipped(c, a, 7 * per_sample)  # omega = (4 + 1 + 2)/10
    assert not skipped(c, a, 7 * per_sample - 1)


def test_similar_support_prunes_inside_a_fit():
    # with every default bound on, similar support never fires on small
    # data; with lookahead off it skips splits here and the fit still
    # certifies the exhaustive optimum
    r = random.Random(110)
    ds = random_dataset(r, r.randint(10, 40), r.randint(3, 6),
                        duplicate_bias=r.choice([0, 0.5]))
    lam = Fraction(1, r.randint(3, 30))
    res = fit(ds, SearchConfig(lam=lam, toggles=BoundToggles(
        lookahead=False, similar_support=True)))
    assert res.stats.similar_support_skips > 0
    assert res.certified
    assert res.objective == exhaustive_optimum(ds, lam).objective \
        == Fraction(14, 39)


def test_equivalent_points_off_reads_no_floor(monkeypatch):
    # every leaf's equivalent-points floor is counted from the index's
    # minority planes.  With the bound off nothing of a fit reads the
    # floor, similar support's rejected floors included, so zeroing the
    # planes changes no count; with it on, the same zeroing changes fits
    def outcome(res):
        counts = {k: v for k, v in vars(res.stats).items()
                  if k not in ("total_time", "time_to_optimum")}
        return counts, res.objective, res.gap

    def fit_on(index, ds, config):
        # a fit builds its own index: this one hands it ``index``
        with monkeypatch.context() as m:
            m.setattr(opttree.search, "build_equivalence_index",
                      lambda _: index)
            return fit(ds, config)

    rng = random.Random(28)
    changed_when_on = 0
    for _ in range(20):
        ds = random_dataset(rng, rng.randint(30, 80), rng.randint(5, 8),
                            duplicate_bias=0.6)
        eq = build_equivalence_index(ds)
        zeroed = replace(eq, minority_planes=(0,) * len(eq.minority_planes))
        lam = Fraction(1, rng.choice((30, 100)))
        for on in (False, True):
            toggles = BoundToggles(equivalent_points=on, similar_support=True)
            config = SearchConfig(lam=lam, toggles=toggles, max_trees=3000)
            same = outcome(fit_on(eq, ds, config)) \
                == outcome(fit_on(zeroed, ds, config))
            assert same or on
            changed_when_on += not same
    assert changed_when_on > 10
