"""Correctness checks against references that share no code with the
timed path.  Nothing here is timed.

- Certified objectives must equal ``opttree.exhaustive_optimum``; oracle
  results are cached on disk keyed by the training file's hash, so a seed
  pays for its oracle once.
- Budget-stopped results must report a nonnegative gap, an objective that
  a from-scratch recomputation reproduces, and leaves that partition the
  samples.
- ``opttree predict`` output must match mistakes recounted here from the
  model JSON and the raw held-out CSV.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction
from pathlib import Path


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def signature(result) -> tuple:
    """Everything about a fit that must repeat exactly on identical input."""
    s = result.stats
    return (s.trees_evaluated, s.leaf_cache_hits, s.duplicates_skipped,
            s.max_queue_size, s.limit_hit, result.certified,
            result.objective, result.gap,
            tuple(leaf.key for leaf in result.best_tree.leaves))


def oracle_objective(ds, lam: Fraction, digest: str, cache_dir: Path
                     ) -> Fraction:
    from opttree import exhaustive_optimum
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{digest}-{lam.numerator}-{lam.denominator}.txt"
    if path.is_file():
        return Fraction(path.read_text(encoding="utf-8").strip())
    objective = exhaustive_optimum(ds, lam).objective
    path.write_text(f"{objective}\n", encoding="utf-8")
    return objective


def check_fit(result, lam: Fraction, certifies: bool, max_trees) -> None:
    """Checks that need no oracle; run on every instance's first fit."""
    from opttree.tree import objective
    tree = result.best_tree
    require(objective(tree, lam) == result.objective,
            f"reported objective {result.objective} != recomputed "
            f"{objective(tree, lam)}")
    tree.check_partition()
    require(result.gap >= 0, f"negative gap {result.gap}")
    if certifies:
        require(result.certified and result.gap == 0,
                f"expected a certificate, got gap {result.gap} "
                f"(limit {result.stats.limit_hit})")
    else:
        require(not result.certified
                and result.stats.limit_hit == "max_trees",
                f"expected a max_trees stop, got certified="
                f"{result.certified} limit={result.stats.limit_hit}")
        require(result.stats.trees_evaluated >= max_trees,
                f"stopped after {result.stats.trees_evaluated} trees, "
                f"budget {max_trees}")


def check_dataset(ds, path: Path, n_features: int) -> None:
    """The loaded dataset must have the CSV's shape and label counts."""
    lines = path.read_text(encoding="utf-8").split()[1:]
    ones = sum(line.endswith(",1") for line in lines)
    require(ds.n_samples == len(lines) and ds.n_features == n_features
            and ds.label_one_count == ones,
            f"loaded dataset disagrees with {path.name}")


def write_model(path: Path, result, ds, lam: Fraction) -> None:
    """A fitted tree in the model JSON format ``opttree predict`` reads."""
    leaves = [{"clauses": [{"feature": ds.feature_names[c.feature],
                            "value": 1 if c.polarity else 0}
                           for c in leaf.clauses],
               "prediction": leaf.prediction}
              for leaf in result.best_tree.leaves]
    model = {"lambda": str(lam), "objective": str(result.objective),
             "certified": result.certified, "leaves": leaves}
    path.write_text(json.dumps(model, indent=2) + "\n", encoding="utf-8")


def check_model(cli_model: Path, library_model: Path) -> None:
    """``opttree fit`` must describe the tree the library call found."""
    got = json.loads(cli_model.read_text(encoding="utf-8"))
    want = json.loads(library_model.read_text(encoding="utf-8"))
    for key in ("objective", "certified"):
        require(got[key] == want[key],
                f"opttree fit {key} {got[key]} != library {want[key]}")
    got_leaves = [(leaf["clauses"], leaf["prediction"])
                  for leaf in got["leaves"]]
    require(got_leaves == [(leaf["clauses"], leaf["prediction"])
                           for leaf in want["leaves"]],
            "opttree fit leaves differ from the library's")


def reference_mistakes(model_path: Path, holdout: Path, label: str) -> tuple:
    """(samples, mistakes) of the model on the held-out file, recounted
    from the raw CSV and the model's leaves."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    with open(holdout, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        leaves = [([(col[c["feature"]], str(c["value"]))
                    for c in leaf["clauses"]], str(leaf["prediction"]))
                  for leaf in model["leaves"]]
        y = col[label]
        samples = mistakes = 0
        for row in reader:
            matched = [pred for clauses, pred in leaves
                       if all(row[i] == v for i, v in clauses)]
            require(len(matched) == 1,
                    f"held-out row {samples} matches {len(matched)} leaves")
            samples += 1
            mistakes += matched[0] != row[y]
    return samples, mistakes


_FIELD = re.compile(r"^(samples|mistakes|accuracy): (\S+)$", re.M)


def check_predict(code: int, stdout: str, expected: tuple) -> None:
    require(code == 0, f"predict exited {code}")
    fields = dict(_FIELD.findall(stdout))
    samples, mistakes = expected
    require(int(fields.get("samples", -1)) == samples
            and int(fields.get("mistakes", -1)) == mistakes,
            f"predict reported {fields}, reference samples={samples} "
            f"mistakes={mistakes}")
    accuracy = (samples - mistakes) / samples
    require(fields["accuracy"] == f"{accuracy:.6f}",
            f"predict accuracy {fields['accuracy']} != {accuracy:.6f}")
