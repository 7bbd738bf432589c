#!/usr/bin/env python3
"""opttree benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload certify-planted --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each run writes its seeded inputs under perfbench/.work/, times the
library's public entry points on them (``load_csv``, ``fit`` and
``cli.main(["predict", ...])``) in a single process and thread, checks
every output against an independent reference, prints every metric by
name with its unit, and ends with one JSON line.  ``--trace 1`` adds a
traced pass and reports per-layer metrics instead (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
from workloads import LABEL, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

# Every round of the measurement also repeats the set-up (loading each
# instance's training CSV) for at least this long, so that set-up samples
# are spread over the run like the other operations.
SETUP_ROUND_SECONDS = 0.5

# peak_rss_mb is the median peak memory of `opttree fit` processes, one
# for each of this many instances
MEMORY_INSTANCES = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "fit_s": "s",
    "trees_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_program():
    if not (SRC / "opttree" / "__init__.py").is_file():
        raise SystemExit(f"error: opttree sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import opttree
    import opttree.cli
    return opttree, opttree.cli


class Ops:
    """Attempted operations (each fit and each predict) and failures."""

    def __init__(self) -> None:
        self.ok: list[bool] = []
        self.by_instance: dict[int, list[int]] = {}

    def record(self, ok: bool, instance=None) -> None:
        if instance is not None:
            self.by_instance.setdefault(instance, []).append(len(self.ok))
        self.ok.append(ok)

    def fail_instance(self, instance: int, message: str) -> None:
        for i in self.by_instance.get(instance, []):
            self.ok[i] = False
        self.error(message)

    @staticmethod
    def error(message: str) -> None:
        print(f"FAILED: {message}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def quiet_call(fn, argv):
    """Run a CLI entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(argv)
    return code, out.getvalue()


class Bench:
    def __init__(self, wl, seed: int, ops: Ops):
        self.wl = wl
        self.ops = ops
        self.opttree, self.cli = import_program()
        self.config = self.opttree.SearchConfig(lam=wl.lam,
                                                max_trees=wl.max_trees)
        self.dir = WORK / wl.name / str(seed)
        self.instances = generate(wl, seed, self.dir)
        self.datasets: dict = {}
        self.first: dict = {}  # instance -> (signature, first result)
        self.expected: dict = {}  # instance -> reference (samples, mistakes)
        self.timed = speed.timed

    def model_path(self, inst) -> Path:
        return self.dir / f"i{inst.index}-model.json"

    # -- set-up: CSV file to Dataset -----------------------------------------

    def setup(self, load) -> list[tuple[float, float]]:
        """Load every instance at least once and for at least
        SETUP_ROUND_SECONDS; returns each load's seconds, as measured and
        scaled to the reference host."""
        def load_file(path):
            with open(path, newline="", encoding="utf-8") as fh:
                return load(fh, LABEL)

        times = []
        t_start = time.perf_counter()
        while len(times) < len(self.instances) \
                or time.perf_counter() - t_start < SETUP_ROUND_SECONDS:
            inst = self.instances[len(times) % len(self.instances)]
            gc.collect()
            ds, wall, scaled = self.timed(load_file, inst.train)
            times.append((wall, scaled))
            self.datasets[inst.index] = ds
        self.check_datasets()
        return times

    def check_datasets(self) -> None:
        for inst in self.instances:
            try:
                checks.check_dataset(self.datasets[inst.index], inst.train,
                                     self.wl.n_features)
            except checks.CheckFailed as exc:
                # counted as one failed operation: every fit on it is moot
                self.ops.error(f"instance {inst.index}: {exc}")
                self.ops.record(False)

    # -- timed operations ----------------------------------------------------

    def fit_once(self, inst, fit):
        gc.collect()
        try:
            result, wall, scaled = self.timed(fit, self.datasets[inst.index],
                                               self.config)
        except Exception:
            self.ops.error(f"fit on instance {inst.index} raised:\n"
                           + traceback.format_exc())
            self.ops.record(False, inst.index)
            return None, 0.0, 0.0
        try:
            sig = checks.signature(result)
            if inst.index not in self.first:
                checks.check_fit(result, self.wl.lam, self.wl.certifies,
                                 self.wl.max_trees)
                self.first[inst.index] = (sig, result)
                self.prepare_predict(inst, result)
            checks.require(sig == self.first[inst.index][0],
                           f"instance {inst.index}: a repeated fit differs")
            ok = True
        except AssertionError as exc:  # includes checks.CheckFailed
            self.ops.error(f"instance {inst.index}: {exc}")
            ok = False
        self.ops.record(ok, inst.index)
        return result, wall, scaled

    def prepare_predict(self, inst, result) -> None:
        """Write the fitted model for predict and recount its mistakes on
        the held-out file with the reference scorer (untimed)."""
        path = self.model_path(inst)
        checks.write_model(path, result, self.datasets[inst.index],
                           self.wl.lam)
        self.expected[inst.index] = checks.reference_mistakes(
            path, inst.holdout, LABEL)

    def predict_once(self, inst, main) -> tuple[float, float]:
        """(wall seconds, scaled seconds) of one predict."""
        argv = ["predict", "--model", str(self.model_path(inst)), "--data",
                str(inst.holdout), "--label", LABEL]
        gc.collect()
        try:
            (code, out), wall, scaled = self.timed(quiet_call, main, argv)
        except Exception:
            self.ops.error("predict raised:\n" + traceback.format_exc())
            self.ops.record(False)
            return 0.0, 0.0
        try:
            checks.check_predict(code, out, self.expected[inst.index])
            ok = True
        except checks.CheckFailed as exc:
            self.ops.error(f"instance {inst.index}: {exc}")
            ok = False
        self.ops.record(ok)
        return wall, scaled

    def measure(self, seconds: float, fit, main, load) -> tuple:
        """Rounds that fit and predict every instance and repeat the
        set-up, until `seconds` have passed.  Returns per-instance fit
        records (result, wall, scaled) and predict times (wall, scaled),
        and every set-up load's time (wall, scaled)."""
        fits = {inst.index: [] for inst in self.instances}
        predicts = {inst.index: [] for inst in self.instances}
        setups = []
        t_start = time.perf_counter()
        while True:
            for inst in self.instances:
                result, wall, scaled = self.fit_once(inst, fit)
                if result is not None:
                    fits[inst.index].append((result, wall, scaled))
                if inst.index in self.expected:
                    predicts[inst.index].append(self.predict_once(inst,
                                                                  main))
            setups.extend(self.setup(load))
            if time.perf_counter() - t_start >= seconds:
                return fits, predicts, setups

    # -- untimed checks after the measurement --------------------------------

    def check_cli_fits(self) -> tuple[bytes, list[float]]:
        """Fit the first MEMORY_INSTANCES instances with ``opttree fit``,
        each in a fresh process: its model must match the library's
        result.  Returns instance 0's model bytes for the determinism
        report and the peak resident memory in MB of each process that
        ran to its end."""
        lam = self.wl.lam
        model_bytes, peaks = b"", []
        for inst in self.instances[:MEMORY_INSTANCES]:
            if inst.index not in self.first:
                continue
            out = self.dir / f"i{inst.index}-cli-model.json"
            peak_file = self.dir / f"i{inst.index}-cli-peak.txt"
            peak_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_peak.py"), str(peak_file),
                    "fit", "--data", str(inst.train), "--label", LABEL,
                    "--lambda", f"{lam.numerator}/{lam.denominator}",
                    "--out", str(out)]
            if self.wl.max_trees is not None:
                argv += ["--max-trees", str(self.wl.max_trees)]
            try:
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=120, check=False)
                code = proc.returncode
                checks.require(code == (0 if self.wl.certifies else 3),
                               f"opttree fit exited {code}: {proc.stderr}")
                checks.check_model(out, self.model_path(inst))
                ok = True
            except (checks.CheckFailed, subprocess.TimeoutExpired,
                    OSError, ValueError) as exc:
                self.ops.error(f"instance {inst.index}: opttree fit: {exc}")
                ok = False
            self.ops.record(ok, inst.index)
            if peak_file.is_file():  # the command ran to its end
                peaks.append(int(peak_file.read_text()) / 1024)
            if ok and inst.index == 0:
                model_bytes = out.read_bytes()
        return model_bytes, peaks

    def check_oracle(self) -> None:
        from opttree.oracle import OracleResourceError
        for inst in self.instances:
            if inst.index not in self.first:
                continue
            result = self.first[inst.index][1]
            try:
                best = checks.oracle_objective(
                    self.datasets[inst.index], self.wl.lam, inst.digest(),
                    WORK / "oracle")
            except OracleResourceError as exc:
                self.ops.fail_instance(inst.index, f"oracle: {exc}")
                continue
            if best != result.objective:
                self.ops.fail_instance(
                    inst.index, f"instance {inst.index}: certified "
                    f"objective {result.objective} != oracle {best}")


def require_measurements(fits, predicts) -> None:
    if not any(fits.values()) or not any(predicts.values()):
        raise SystemExit("error: no fit or no predict succeeded; "
                         "nothing to measure")


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest value, given at least five."""
    if len(values) >= 5:
        values = sorted(values)[1:-1]
    return statistics.fmean(values)


def end_to_end(fits, predicts, setup_times, rows) -> tuple[dict, dict]:
    """(bounded metrics, reported-only metrics) of an untraced run.  The
    bounded timings are scaled to the reference host (speed.py); the
    reported-only ones are as measured.  Each instance contributes its
    median over rounds; fit_s is their mean without the fastest and the
    slowest instance, so that one unusually hard dataset (about one in
    twenty needs 40% more trees) does not decide it."""
    def summary(k):  # k = 1: wall, k = 2: scaled
        fit_s, predict_s = [], []
        for index, records in fits.items():
            if records and predicts[index]:
                fit_s.append(statistics.median(r[k] for r in records))
                predict_s.append(statistics.median(p[k - 1]
                                                   for p in predicts[index]))
        return (statistics.median(s[k - 1] for s in setup_times),
                fit_s, rows * len(predict_s) / sum(predict_s))

    trees, ttos = [], []
    for index, records in fits.items():
        if records and predicts[index]:
            trees.append(records[0][0].stats.trees_evaluated)
            # from the fit call to the final incumbent, so that index
            # building and the warm start count as they do for a caller
            ttos.append(statistics.median(
                w - r.stats.total_time + r.stats.time_to_optimum
                for r, w, _ in records))
    setup_s, fit_s, predict_rps = summary(2)
    wall_setup_s, wall_fit_s, wall_predict_rps = summary(1)
    return {
        "setup_s": setup_s,
        "fit_s": trimmed_mean(fit_s),
        "trees_per_s": sum(trees) / sum(fit_s),
        "predict_rows_per_s": predict_rps,
    }, {"time_to_optimum_s": statistics.fmean(ttos),
        "wall.setup_s": wall_setup_s,
        "wall.fit_s": trimmed_mean(wall_fit_s),
        "wall.predict_rows_per_s": wall_predict_rps}


def traced_run(bench, seconds) -> dict[str, float]:
    """Untraced rounds, then traced rounds; per-layer metrics come from
    the traced ones.  Each instance contributes its median traced fit
    (the lower one of an even count), so that the layers add up to that
    fit's time; values are averaged over instances.  The tracing overhead
    compares the same instances' median fits with and without tracing."""
    from tracing import Tracer, fit_metrics, predict_metrics

    opttree, cli = bench.opttree, bench.cli
    plain, _, _ = bench.measure(seconds / 2, opttree.fit, cli.main,
                               opttree.load_csv)

    tracer = Tracer()
    fit_request: dict[int, int] = {}  # id(result) -> request
    predict_requests: list[int] = []
    root_fit = tracer.root("search.fit", opttree.fit)
    root_main = tracer.root("cli.main", cli.main)

    def fit(ds, config):
        result = root_fit(ds, config)
        fit_request[id(result)] = tracer.request
        return result

    def main(argv):
        try:
            return root_main(argv)
        finally:
            predict_requests.append(tracer.request)

    # no host probes inside traced calls: their time would land in spans
    bench.timed = functools.partial(speed.timed, sample=False)
    with tracer.patched():
        traced, traced_predicts, traced_setup = bench.measure(
            seconds / 2, fit, main,
            tracer.root("dataset.load_csv", opttree.load_csv))
    require_measurements(traced, traced_predicts)
    trace_path = bench.dir.parent / "spans.csv"  # the latest traced run
    tracer.dump(trace_path)

    per_fit: dict[str, list[float]] = {}
    overhead, untraced = [], []
    for i, records in traced.items():
        if not records or not plain[i]:
            continue
        rows = sorted((fit_metrics(tracer, fit_request[id(r)], r)
                       for r, _, _ in records),
                      key=lambda m: m["trace.fit_s"])
        median = rows[(len(rows) - 1) // 2]
        for key, value in median.items():
            per_fit.setdefault(key, []).append(value)
        untraced.append(statistics.median(w for _, w, _ in plain[i]))
        overhead.append(median["trace.fit_s"] - untraced[-1])
    metrics = {key: statistics.fmean(v) for key, v in per_fit.items()}
    metrics["trace.untraced_fit_s"] = statistics.fmean(untraced)
    metrics["trace.overhead_s"] = statistics.fmean(overhead)
    metrics["trace.overhead_ratio"] = (metrics["trace.overhead_s"]
                                       / metrics["trace.untraced_fit_s"])
    rows = [predict_metrics(tracer, r) for r in predict_requests]
    for key in rows[0]:
        metrics[key] = statistics.median(m[key] for m in rows)
    metrics["cli.predict_rows"] = bench.wl.n_holdout
    metrics["dataset.load_csv_s"] = statistics.median(
        wall for wall, _ in traced_setup)
    print(f"spans: {len(tracer.start)} written to {trace_path}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    wl = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    ops = Ops()
    bench = Bench(wl, seed, ops)
    print(f"workload {wl.name}: n={wl.n_train} m={wl.n_features} "
          f"lambda={wl.lam} max_trees={wl.max_trees} "
          f"instances={wl.instances} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    first_setup = bench.setup(bench.opttree.load_csv)
    extra = {}
    if trace:
        metrics = traced_run(bench, seconds)
        units = None
    else:
        fits, predicts, setups = bench.measure(
            seconds, bench.opttree.fit, bench.cli.main,
            bench.opttree.load_csv)
        require_measurements(fits, predicts)
        metrics, extra = end_to_end(fits, predicts, [*first_setup, *setups],
                                    wl.n_holdout)
        units = END_TO_END
    model_bytes, peaks = bench.check_cli_fits()
    if not trace:
        # with no peaks every `opttree fit` process failed, so the run is
        # incorrect; this process's own peak keeps the result line whole
        metrics["peak_rss_mb"] = statistics.median(peaks) if peaks else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if wl.certifies:
        bench.check_oracle()

    report_counts(bench, model_bytes)
    for key, value in metrics.items():
        unit = units[key] if units else unit_of(key)
        print(f"  {key:32s} {value:.6g} {unit}")
    for key, value in extra.items():
        unit = END_TO_END.get(key.removeprefix("wall."), unit_of(key))
        print(f"  {key:32s} {value:.6g} {unit} (reported only)")
    attempted, failed = len(ops.ok), ops.failed
    print(f"  {'failed_frac':32s} {failed / max(attempted, 1):.6g} "
          f"({failed}/{attempted} operations)")
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v,
                            "unit": units[k] if units else unit_of(k)}
                        for k, v in metrics.items()}}


def report_counts(bench, model_bytes: bytes) -> None:
    """Deterministic counts of instance 0: equal seeds must repeat them
    exactly, and the model JSON byte for byte."""
    if 0 not in bench.first:
        return
    result = bench.first[0][1]
    s = result.stats
    gaps = [r.gap for _, r in bench.first.values()]
    print(f"  determinism: trees_evaluated={s.trees_evaluated} "
          f"leaf_cache_hits={s.leaf_cache_hits} "
          f"duplicates_skipped={s.duplicates_skipped} "
          f"max_queue_size={s.max_queue_size} "
          f"gap_at_budget={result.gap} "
          f"model_sha256={hashlib.sha256(model_bytes).hexdigest()}")
    for index, (_, r) in sorted(bench.first.items()):
        print(f"  instance {index}: trees={r.stats.trees_evaluated} "
              f"trees_to_optimum={r.stats.trees_to_optimum} "
              f"leaves={len(r.best_tree.leaves)} objective={r.objective} "
              f"gap={r.gap}")
    print(f"  {'gap_at_budget':32s} "
          f"{float(sum(gaps) / len(gaps)):.6g} objective "
          f"(mean of {len(gaps)} instances)")


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith(("seed_excess", "gap_at_budget")):
        return "objective"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays separate."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
