"""Seconds-scale smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny size, untraced and traced, and checks the
output contract, the correctness checks, determinism across two runs of
one seed, the span accounting, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import END_TO_END, unit_of  # noqa: E402
from tracing import Tracer, fit_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


def run_json(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_deterministic(workload):
    first, text1 = run_json(workload, 7, 0)
    second, text2 = run_json(workload, 7, 0)
    for out in (first, second):
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert out["attempted"] >= 3
        assert set(out["metrics"]) == set(END_TO_END)
        for name, metric in out["metrics"].items():
            assert metric["unit"] == END_TO_END[name]
            assert metric["value"] > 0, name
    line = [ln for ln in text1.splitlines() if "determinism:" in ln]
    assert line and line == [ln for ln in text2.splitlines()
                             if "determinism:" in ln]
    assert "failed_frac" in text1 and "gap_at_budget" in text1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    out, _ = run_json(workload, 3, 1)
    assert out["correct"] is True
    names = set(out["metrics"])
    spec = declared()
    if spec:
        assert {m["name"] for m in spec["per_layer"]} == names
    for name in ("search.self_s", "trace.overhead_s", "cli.predict_s",
                 "caches.leaf_hit_ratio", "scheduler.useful_pop_ratio"):
        assert name in names


def test_benchmark_json_matches_the_runner():
    spec = declared()
    if not spec:
        pytest.skip("no BENCHMARK.json next to the benchmark")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END[m["name"]]
        assert m["bound"] <= spec["end_to_end"][0]["bound"]  # setup_s
    assert spec["end_to_end"][0]["name"] == "setup_s"
    for m in spec["per_layer"]:
        assert m["unit"] == unit_of(m["name"]), m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "certify-planted", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_account_for_the_traced_fit(tmp_path):
    from opttree import SearchConfig, fit, load_csv
    import opttree.search as search

    wl = Workload("t", n_train=150, n_holdout=10, n_features=6,
                  lam=Fraction(1, 40), instances=1)
    inst = generate(wl, 5, tmp_path)[0]
    with open(inst.train, newline="") as fh:
        ds = load_csv(fh, "y")
    plain = fit(ds, SearchConfig(lam=wl.lam))
    tracer = Tracer()
    original = search.make_child_leaf
    with tracer.patched():
        result = tracer.root("search.fit", fit)(ds, SearchConfig(lam=wl.lam))
    assert search.make_child_leaf is original
    assert checks.signature(result) == checks.signature(plain)
    m = fit_metrics(tracer, 0, result)
    fit_s, _, busy = tracer.breakdown(0)
    assert fit_s == pytest.approx(sum(busy.values()), rel=1e-9)
    layers = fit_s - m["search.self_s"]
    assert layers == pytest.approx(
        sum(s for name, s in busy.items()
            if not name.startswith("search.")), rel=1e-9)
    assert m["search.trees_evaluated"] == result.stats.trees_evaluated
    assert m["caches.leaf_intern_calls"] == (result.stats.leaf_cache_hits
                                             + result.stats.leaf_cache_size)
    assert m["search.expansions"] > 0
    assert 0 < m["caches.leaf_hit_ratio"] < 1


def test_predict_reference_catches_a_wrong_count(tmp_path):
    with pytest.raises(checks.CheckFailed):
        checks.check_predict(0, "samples: 10\nmistakes: 2\n"
                             "accuracy: 0.800000\n", (10, 3))
    checks.check_predict(0, "samples: 10\nmistakes: 3\n"
                         "accuracy: 0.700000\n", (10, 3))


def test_fit_checks_reject_a_wrong_objective(tmp_path):
    import dataclasses
    from opttree import SearchConfig, fit, load_csv

    wl = WORKLOADS["certify-planted"].tiny()
    inst = generate(wl, 2, tmp_path)[0]
    with open(inst.train, newline="") as fh:
        result = fit(load_csv(fh, "y"), SearchConfig(lam=wl.lam))
    checks.check_fit(result, wl.lam, certifies=True, max_trees=None)
    wrong = dataclasses.replace(result,
                                objective=result.objective + Fraction(1, 7))
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(wrong, wl.lam, certifies=True, max_trees=None)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(result, wl.lam, certifies=False, max_trees=10)


def test_timed_scales_by_the_probe_and_restores_the_handler():
    import signal
    import time

    import speed

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    result, wall, scaled = speed.timed(busy, 0.35)
    elapsed = time.perf_counter() - t0
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is handler
    # the in-operation probes ran and their time was taken out
    assert 0.3 < wall < 0.35 < elapsed
    assert scaled > 0
    _, wall, _ = speed.timed(busy, 0.05, sample=False)
    assert wall >= 0.05
