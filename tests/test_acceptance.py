"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite's output doubles as an
acceptance report.  Criteria 8 and 9 depend on external datasets (see
README); when the files are absent, criterion 8 falls back to the
criterion-1 property suite and criterion 9 is skipped.
"""

import csv
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from opttree.bounds import BoundToggles, count_trees, symmetry_savings
from opttree.cli import main
from opttree.dataset import build_equivalence_index, from_rows, load_csv
from opttree.oracle import exhaustive_optimum
from opttree.scheduler import Policy
from opttree.search import SearchConfig, fit
from opttree.tree import N_LEAVES, as_entry, build_tree, objective
from tests.conftest import (LAMBDAS, csv_text, expand, lower_bound,
                            random_dataset)
from tests.test_tree_core import _random_tree, priced_bounds, scratch_bounds

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
COMPAS_PATH = DATA_DIR / "compas_binary.csv"
MONK1_PATH = DATA_DIR / "monk1_binary.csv"


@pytest.fixture
def report(capsys):
    """Emit one ACCEPTANCE line per criterion on the real terminal."""
    def emit(number: int, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {status}{suffix}")
        assert ok, f"criterion {number}: {detail}"
    return emit


def _instance_set(count: int = 200):
    rng = random.Random(20260826)
    for i in range(count):
        n = rng.randint(4, 40)
        m = rng.randint(2, 5)
        bias = rng.choice([0.0, 0.3, 0.6])
        ds = random_dataset(rng, n, m, duplicate_bias=bias)
        lam = LAMBDAS[i % len(LAMBDAS)]
        yield ds, lam


def test_criterion_1_oracle_equivalence(report):
    start = time.perf_counter()
    failures = 0
    total = 0
    for ds, lam in _instance_set(200):
        total += 1
        res = fit(ds, SearchConfig(lam=lam))
        ref = exhaustive_optimum(ds, lam)
        if not res.certified or res.objective != ref.objective:
            failures += 1
    elapsed = time.perf_counter() - start
    report(1, failures == 0 and elapsed < 300,
            f"{total} instances, {failures} mismatches, {elapsed:.1f}s")


def test_criterion_2_ablation_and_policy_soundness(report):
    fields = ("lookahead", "node_support", "incremental_accuracy",
              "leaf_accuracy", "equivalent_points", "permutation_cache")
    # similar support skips nothing here under the default bounds; with
    # lookahead off, and equivalent points too, it skips splits
    similar = [BoundToggles(similar_support=True),
               BoundToggles(similar_support=True, lookahead=False),
               BoundToggles(similar_support=True, lookahead=False,
                            equivalent_points=False)]
    divergences = 0
    runs = 0
    skips = 0
    for ds, lam in _instance_set(200):
        ref = exhaustive_optimum(ds, lam).objective
        variants = [SearchConfig(
            lam=lam, toggles=BoundToggles(**{field: False}))
            for field in fields]
        variants += [SearchConfig(lam=lam, policy=policy)
                     for policy in Policy]
        variants += [SearchConfig(lam=lam, toggles=toggles)
                     for toggles in similar]
        for cfg in variants:
            runs += 1
            res = fit(ds, cfg)
            skips += res.stats.similar_support_skips
            if not res.certified or res.objective != ref:
                divergences += 1
    report(2, divergences == 0 and skips > 0,
           f"{runs} ablation/policy runs, {divergences} divergences, "
           f"{skips} similar-support skips")


def _ablation_instance():
    rng = random.Random(2026)
    m, n = 10, 500
    pool = [[rng.randint(0, 1) for _ in range(m)] for _ in range(12)]
    rows, labels = [], []
    for _ in range(n):
        row = list(rng.choice(pool))
        target = row[0] ^ (row[1] & row[2])
        rows.append(row)
        labels.append(target ^ (rng.random() < 0.04))
    return from_rows([f"f{j}" for j in range(m)], rows, labels)


def test_criterion_3_ablation_direction(report):
    ds = _ablation_instance()
    lam = Fraction(1, 100)
    base = fit(ds, SearchConfig(lam=lam))
    no_la = fit(ds, SearchConfig(
        lam=lam, toggles=BoundToggles(lookahead=False)))
    no_eq = fit(ds, SearchConfig(
        lam=lam, toggles=BoundToggles(equivalent_points=False)))
    ok = (base.certified and no_la.certified and no_eq.certified
          and base.objective == no_la.objective == no_eq.objective
          and no_la.stats.trees_evaluated > base.stats.trees_evaluated
          and no_eq.stats.trees_evaluated > base.stats.trees_evaluated)
    report(3, ok,
            f"evaluated all-bounds={base.stats.trees_evaluated}, "
            f"no-lookahead={no_la.stats.trees_evaluated} "
            f"(x{no_la.stats.trees_evaluated / base.stats.trees_evaluated:.2f}), "
            f"no-equiv-points={no_eq.stats.trees_evaluated} "
            f"(x{no_eq.stats.trees_evaluated / base.stats.trees_evaluated:.2f})")


def test_criterion_4_search_space_counting(capsys, report):
    start = time.perf_counter()
    outputs = {}
    for p, d in ((10, 1), (10, 2), (20, 2), (10, 3)):
        assert main(["count", "--features", str(p), "--depth", str(d)]) == 0
        outputs[(p, d)] = capsys.readouterr().out.strip()
    elapsed = time.perf_counter() - start
    ok = (outputs[(10, 1)] == "10" and outputs[(10, 2)] == "1000"
          and outputs[(20, 2)] == "8000"
          and outputs[(10, 3)] == "5329000" and elapsed < 1.0)
    report(4, ok, f"counts {outputs}, {elapsed:.3f}s")


def test_criterion_5_incremental_equals_scratch(report):
    """The bounds the search prices each child at, kept in its queue entry,
    equal a from-scratch sum over the child's leaves; so does every
    incumbent's objective."""
    rng = random.Random(99)
    lam = Fraction(1, 20)
    mismatches = 0
    checked = 0
    while checked < 1000:
        ds = random_dataset(rng, rng.randint(4, 30), rng.randint(2, 4))
        eq = build_equivalence_index(ds)
        parent = _random_tree(ds, eq, rng)
        best = Fraction(rng.randint(1, 20), 20)
        for entry in expand(parent, ds, SearchConfig(lam=lam), best):
            child = build_tree(entry)
            priced = priced_bounds(entry, ds.n_samples, lam)
            if priced != scratch_bounds(child, lam) \
                    or entry[:N_LEAVES + 1] \
                    != as_entry(child, lam)[:N_LEAVES + 1] \
                    or priced[0] < lower_bound(parent, lam):
                mismatches += 1
            checked += 1
    fits = 0
    for ds, fit_lam in _instance_set(50):
        res = fit(ds, SearchConfig(lam=fit_lam))
        fits += 1
        if res.objective != objective(res.best_tree, fit_lam):
            mismatches += 1
    report(5, mismatches == 0,
           f"{checked} children, {fits} incumbents, {mismatches} mismatches")


def test_criterion_6_remaining_bound_soundness(report):
    rng = random.Random(66)
    violations = 0
    records = 0
    for _ in range(5):
        ds = random_dataset(rng, 30, 4, duplicate_bias=0.3)
        res = fit(ds, SearchConfig(lam=Fraction(1, 30), trace_interval=3))
        final = res.stats.trees_evaluated
        for rec in res.trace:
            records += 1
            if final - rec.trees_evaluated > rec.remaining_bound:
                violations += 1
    report(6, violations == 0,
            f"{records} trace records, {violations} violations")


def test_criterion_7_symmetry_counting(report):
    exact = symmetry_savings(10, 5)
    big = symmetry_savings(20, 10)
    leading = round(big / 10 ** (len(str(big)) - 6))
    ok = exact == 35463 and leading == 736891
    report(7, ok, f"(10,5)={exact}, (20,10)={big:.6g}")


def test_criterion_8_compas_reproduction(report):
    if not COMPAS_PATH.exists():
        # documented fallback: the criterion-1 property suite stands in
        rng = random.Random(8)
        failures = 0
        for _ in range(25):
            ds = random_dataset(rng, rng.randint(10, 40), 5,
                                duplicate_bias=0.4)
            lam = Fraction(1, 100)
            res = fit(ds, SearchConfig(lam=lam))
            if not res.certified or res.objective \
                    != exhaustive_optimum(ds, lam).objective:
                failures += 1
        report(8, failures == 0,
                "dataset unavailable; replaced by criterion-1 property "
                f"suite, {failures} failures")
        return
    with open(COMPAS_PATH, newline="", encoding="utf-8") as fh:
        ds = load_csv(fh, "recidivate-within-two-years:1")
    start = time.perf_counter()
    res = fit(ds, SearchConfig(lam=Fraction(1, 200), time_limit=600))
    elapsed = time.perf_counter() - start
    acc = sum(l.n_correct for l in res.best_tree.leaves) / ds.n_samples
    ok = res.certified and abs(acc - 0.6690) <= 0.005 and elapsed < 600
    report(8, ok, f"accuracy={acc:.4f}, certified={res.certified}, "
                   f"{elapsed:.1f}s")


def test_criterion_9_monk1_exact_fit(capsys, report):
    if not MONK1_PATH.exists():
        with capsys.disabled():
            print("ACCEPTANCE 9 SKIP (conditional: dataset unavailable)")
        pytest.skip("monk1 binary dataset not present")
    with open(MONK1_PATH, newline="", encoding="utf-8") as fh:
        ds = load_csv(fh, "class")
    res = fit(ds, SearchConfig(lam=Fraction(1, 400), time_limit=600))
    acc = sum(l.n_correct for l in res.best_tree.leaves) / ds.n_samples
    report(9, acc == 1.0, f"training accuracy={acc:.4f}")


def test_criterion_10_determinism(tmp_path, report):
    data = tmp_path / "d.csv"
    rng = random.Random(10)
    ds = random_dataset(rng, 30, 4, duplicate_bias=0.3)
    data.write_text(csv_text(ds))
    models = []
    stats = []
    for i in range(2):
        out = tmp_path / f"m{i}.json"
        code = main(["fit", "--data", str(data), "--label", "y",
                     "--lambda", "1/30", "--out", str(out)])
        assert code == 0
        models.append(out.read_bytes())
        res = fit(ds, SearchConfig(lam=Fraction(1, 30)))
        stats.append((res.stats.trees_evaluated, res.stats.trees_to_optimum,
                      res.stats.max_queue_size, res.stats.duplicates_skipped,
                      res.stats.leaf_cache_size, res.stats.tree_cache_size))
    ok = models[0] == models[1] and stats[0] == stats[1]
    report(10, ok, "byte-identical model JSON and identical stats")
