"""Command-line surface: fit, predict, count, ablate, oracle.

Each command parses its options, calls the library and writes what it
returns: lambda and the limits are checked by the library alone, an
output file is opened only once all of the command's output is built, and
``fit`` removes the files it wrote when a later one cannot be written.

Exit codes: 0 success/certified, 3 uncertified result emitted, 1 usage or
data-format error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .bounds import BoundToggles, count_trees
from .dataset import DataFormatError, Dataset, load_csv
from .oracle import OracleResourceError, exhaustive_optimum
from .scheduler import Policy
from .search import SearchConfig, SearchResult, TraceRecord, fit
from .tree import Clause, and_clauses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_UNCERTIFIED = 3

ABLATION_FLAGS = {
    "no-lookahead": "lookahead",
    "no-support-bound": "node_support",
    "no-incremental-accuracy": "incremental_accuracy",
    "no-accuracy-bound": "leaf_accuracy",
    "no-equiv-points": "equivalent_points",
    "no-permutation-cache": "permutation_cache",
}


class _Parser(argparse.ArgumentParser):
    # no prefix of an option (`ablate --trace`) passes for the option
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DataFormatError(f"invalid --lambda value {text!r}: {exc}")


def _load(path: str, label: str) -> Dataset:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first column's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return load_csv(fh, label)


def _toggles_from_args(args) -> BoundToggles:
    off = {field: False for flag, field in ABLATION_FLAGS.items()
           if getattr(args, flag.replace("-", "_"))}
    return BoundToggles(**off, similar_support=args.similar_support)


def _config_from_args(args) -> SearchConfig:
    return SearchConfig(
        lam=_parse_lambda(args.lam),
        policy=Policy(args.policy),
        toggles=_toggles_from_args(args),
        time_limit=args.time_limit,
        max_trees=args.max_trees,
        max_cache_entries=args.max_cache_entries,
        trace_interval=args.trace_interval,
    )


def _model_dict(result: SearchResult, ds: Dataset, lam_text: str) -> dict:
    tree = result.best_tree
    n_correct = sum(l.n_correct for l in tree.leaves)
    return {
        "lambda": lam_text,
        "objective": str(result.objective),
        "training_accuracy": n_correct / ds.n_samples,
        "certified": result.certified,
        "leaves": [
            {
                "clauses": [{"feature": ds.feature_names[c.feature],
                             "value": 1 if c.polarity else 0}
                            for c in leaf.clauses],
                "prediction": leaf.prediction,
                "n_captured": leaf.n_captured,
                "n_correct": leaf.n_correct,
            }
            for leaf in tree.leaves
        ],
    }


_TRACE_FIELDS = ["elapsed_s", "trees_evaluated", "best_objective",
                 "min_queue_lower_bound", "queue_size",
                 "log10_remaining_bound"]
_COUNT_STATS = ["max_queue_size", "queue_purged", "leaf_cache_size",
                "leaf_cache_hits", "tree_cache_size", "tree_cache_purged",
                "duplicates_skipped"]


def _trace_csv(trace: list[TraceRecord]) -> str:
    """The records' fields as they are: csv writes None as an empty field
    and any other value as its str."""
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(_TRACE_FIELDS)
    w.writerows([getattr(rec, name) for name in _TRACE_FIELDS]
                for rec in trace)
    return text.getvalue()


def _print_summary(result: SearchResult, accuracy: float) -> None:
    s = result.stats
    print(f"objective: {result.objective} ({float(result.objective):.6f})")
    print(f"training_accuracy: {accuracy:.6f}")
    print(f"leaves: {len(result.best_tree.leaves)}")
    print(f"certified: {str(result.certified).lower()}")
    print(f"gap: {result.gap} ({float(result.gap):.6f})")
    print(f"trees_evaluated: {s.trees_evaluated}")
    print(f"trees_to_optimum: {s.trees_to_optimum}")
    print(f"time_to_optimum_s: {s.time_to_optimum:.6f}")
    print(f"total_time_s: {s.total_time:.6f}")
    for name in _COUNT_STATS:
        print(f"{name}: {getattr(s, name)}")
    if s.limit_hit:
        print(f"limit: {s.limit_hit}")


def cmd_fit(args) -> int:
    if args.trace and os.path.realpath(args.trace) \
            == os.path.realpath(args.out):
        raise ValueError("--out and --trace name the same file")
    ds = _load(args.data, args.label)
    result = fit(ds, _config_from_args(args))
    model = _model_dict(result, ds, args.lam)
    outputs = [(args.out, json.dumps(model, indent=2) + "\n")]
    if args.trace:
        outputs.append((args.trace, _trace_csv(result.trace)))
    # an output that cannot be written takes the ones before it away
    written = []
    try:
        for path, text in outputs:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    _print_summary(result, model["training_accuracy"])
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


def _check_model(model) -> None:
    """Reject a model JSON whose shape predict cannot read."""
    if not isinstance(model, dict) or not isinstance(model.get("leaves"),
                                                     list):
        raise DataFormatError("model JSON must be an object with a "
                              "'leaves' list")
    for i, leaf in enumerate(model["leaves"]):
        if not isinstance(leaf, dict) \
                or not isinstance(leaf.get("clauses"), list) \
                or leaf.get("prediction") not in (0, 1):
            raise DataFormatError(f"model leaf {i} needs a 'clauses' list "
                                  "and a 0/1 'prediction'")
        for clause in leaf["clauses"]:
            if not isinstance(clause, dict) \
                    or not isinstance(clause.get("feature"), str) \
                    or clause.get("value") not in (0, 1):
                raise DataFormatError(f"model leaf {i} has a clause without "
                                      "a string 'feature' and a 0/1 'value'")


def cmd_predict(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        try:
            model = json.load(fh)
        except RecursionError:
            raise DataFormatError("model JSON is nested too deeply")
    _check_model(model)
    ds = _load(args.data, args.label)
    name_to_col = {name: i for i, name in enumerate(ds.feature_names)}
    # a leaf's capture is the AND of its literals; the leaves must cover
    # every sample exactly once
    everyone = ds.all_samples
    mistakes = covered = covered_twice = 0
    captures = []
    for leaf in model["leaves"]:
        clauses = []
        for c in leaf["clauses"]:
            if c["feature"] not in name_to_col:
                raise DataFormatError(
                    f"model feature {c['feature']!r} missing from data")
            clauses.append(Clause(name_to_col[c["feature"]],
                                  bool(c["value"])))
        capture = and_clauses(ds, everyone, clauses)
        ones = (capture & ds.labels).bit_count()
        mistakes += capture.bit_count() - ones if leaf["prediction"] else ones
        covered_twice |= covered & capture
        covered |= capture
        captures.append(capture)
    unmatched_or_twice = (everyone ^ covered) | covered_twice
    if unmatched_or_twice:
        # x & -x keeps only the lowest set bit of x
        first = (unmatched_or_twice & -unmatched_or_twice).bit_length() - 1
        matched = sum(c >> first & 1 for c in captures)
        print(f"internal error: sample {first} matched {matched} "
              "leaves; model leaves do not partition the data",
              file=sys.stderr)
        return EXIT_INTERNAL
    acc = (ds.n_samples - mistakes) / ds.n_samples
    print(f"samples: {ds.n_samples}")
    print(f"mistakes: {mistakes}")
    print(f"accuracy: {acc:.6f}")
    return EXIT_OK


def cmd_count(args) -> int:
    if args.features < 1 or args.depth < 1:
        raise ValueError("--features and --depth must be >= 1")
    print(count_trees(args.features, args.depth))
    return EXIT_OK


def cmd_oracle(args) -> int:
    ds = _load(args.data, args.label)
    res = exhaustive_optimum(ds, _parse_lambda(args.lam))
    print(f"objective: {res.objective} ({float(res.objective):.6f})")
    print(f"mistakes: {res.mistakes}")
    print(f"leaves: {res.n_leaves}")
    for key in res.leaf_keys:
        lits = " & ".join(
            f"{ds.feature_names[c.feature]}={1 if c.polarity else 0}"
            for c in key) or "(root)"
        print(f"  {lits}")
    return EXIT_OK


def _ablate_variants(base: SearchConfig):
    yield "all_bounds", base
    for flag, field in ABLATION_FLAGS.items():
        name = flag.replace("-", "_")
        yield name, replace(base,
                            toggles=replace(base.toggles, **{field: False}))
    for pol in Policy:
        if pol is base.policy:
            continue
        yield f"policy_{pol.value}", replace(base, policy=pol)


def cmd_ablate(args) -> int:
    ds = _load(args.data, args.label)
    base = _config_from_args(args)
    rows = [["variant", "total_time_s", "time_to_optimum_s",
             "trees_evaluated", "trees_to_optimum", "max_queue_size"]]
    objectives = {}
    for name, cfg in _ablate_variants(base):
        result = fit(ds, cfg)
        s = result.stats
        if result.certified:
            objectives[name] = result.objective
            times = [f"{s.total_time:.6f}", f"{s.time_to_optimum:.6f}"]
        else:
            # ">T" only for a stop at the time limit T; any other limit
            # leaves the time unknown
            times = [f">{args.time_limit}" if s.limit_hit == "time_limit"
                     else "censored"] * 2
        rows.append([name, *times, s.trees_evaluated, s.trees_to_optimum,
                     s.max_queue_size])
    # the table is written whole, once every variant has run
    with open(args.out, "w", newline="", encoding="utf-8") if args.out \
            else contextlib.nullcontext(sys.stdout) as out:
        csv.writer(out).writerows(rows)
    if len(set(objectives.values())) > 1:
        print("internal error: certified objectives diverge across "
              f"variants: {objectives}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _add_fit_flags(p: _Parser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="leaf penalty, decimal or fraction, > 0")
    p.add_argument("--policy", default=SearchConfig.policy.value,
                   choices=[pol.value for pol in Policy])
    p.add_argument("--time-limit", type=float)
    p.add_argument("--max-trees", type=int)
    p.add_argument("--max-cache-entries", type=int)
    p.add_argument("--trace-interval", type=int,
                   default=SearchConfig.trace_interval)
    for flag in ABLATION_FLAGS:
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--similar-support", action="store_true")


@functools.cache
def build_parser() -> _Parser:
    """The parser ``main`` uses, built on the first call and shared by every
    later one: parsing returns a fresh namespace and leaves the parser as
    it was, so callers must not change it either."""
    parser = _Parser(prog="opttree",
                     description="Certifiably optimal sparse decision trees "
                                 "over binary features")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="learn a certified-optimal tree")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--trace")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="score a model on a CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--label", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_count = sub.add_parser("count",
                             help="count distinct trees up to a depth")
    p_count.add_argument("--features", type=int, required=True)
    p_count.add_argument("--depth", type=int, required=True)
    p_count.set_defaults(func=cmd_count)

    p_abl = sub.add_parser("ablate",
                           help="compare bound ablations and policies")
    _add_fit_flags(p_abl)
    p_abl.add_argument("--out")
    p_abl.set_defaults(func=cmd_ablate)

    p_or = sub.add_parser("oracle",
                          help="exhaustive optimum for small instances")
    p_or.add_argument("--data", required=True)
    p_or.add_argument("--label", required=True)
    p_or.add_argument("--lambda", dest="lam", required=True)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (DataFormatError, OracleResourceError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
