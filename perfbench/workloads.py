"""Workload definitions and the seeded planted-tree data generator.

Nothing here is timed.  Every workload draws its datasets from one seed:
features are independent fair Bernoulli columns, the label is a depth-2
tree on three distinct random features (root feature a, then b on the
a=0 side and c on the a=1 side, each split's leaves labelled 0/1 in a
random order), and each label is flipped with probability 0.1.  A
held-out file is drawn from the same planted tree with its own rows.

The program under test only ever sees the CSV files written here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

FLIP = 0.1
LABEL = "y"


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_holdout: int
    n_features: int
    lam: Fraction
    # planted datasets per run, all derived from the run's seed; fitting
    # several averages out how hard one noise draw happens to be
    instances: int
    max_trees: Optional[int] = None
    # the certified objective is compared with the exhaustive oracle;
    # otherwise the run must stop on its tree budget
    certifies: bool = True

    def tiny(self) -> "Workload":
        """Seconds-scale variant for the smoke test."""
        return replace(self, n_train=min(self.n_train, 200),
                       n_holdout=min(self.n_holdout, 200),
                       n_features=min(self.n_features, 6 if self.certifies
                                      else 12),
                       instances=min(self.instances, 2),
                       max_trees=None if self.max_trees is None else 1000)


WORKLOADS = {w.name: w for w in (
    # Full branch-and-bound to a certificate: read-heavy leaf cache,
    # tree-cache GC on every new incumbent, heap scheduling.  m=8 keeps
    # the exhaustive oracle cheap enough to check every instance.
    Workload("certify-planted", n_train=1000, n_holdout=1000, n_features=8,
             lam=Fraction(1, 50), instances=10),
    # Many rows, few features: time goes to CSV parsing, the equivalence
    # index (quadratic in rows) and scoring with `opttree predict`; only
    # 2^8 distinct rows, so the equivalent-points bound does real work.
    Workload("wide-samples", n_train=100_000, n_holdout=100_000,
             n_features=8, lam=Fraction(1, 50), instances=1),
    # Wide fan-out (~87 children per expansion) stopped by a fixed tree
    # budget: the queue grows to ~10k entries, the leaf cache mostly
    # misses, and queue-proportional work dominates.  Never certifies.
    # Whether a 3- or 4-leaf incumbent turns up within the budget depends
    # on the seed and changes predict speed; ten instances per run average
    # that out.
    Workload("anytime-budget", n_train=2000, n_holdout=2000, n_features=30,
             lam=Fraction(1, 100), instances=10, max_trees=10_000,
             certifies=False),
)}


@dataclass(frozen=True)
class Instance:
    index: int
    train: Path
    holdout: Path

    def digest(self) -> str:
        return hashlib.sha256(self.train.read_bytes()).hexdigest()


def _write_rows(path: Path, rng: random.Random, n: int, m: int,
                planted: tuple[int, int, int],
                leaf_labels: tuple[int, int, int, int]) -> None:
    a, b, c = planted
    header = ",".join([f"f{j}" for j in range(m)] + [LABEL])
    lines = [header]
    for _ in range(n):
        bits = rng.getrandbits(m)
        if bits >> a & 1:
            y = leaf_labels[2 + (bits >> c & 1)]
        else:
            y = leaf_labels[bits >> b & 1]
        if rng.random() < FLIP:
            y ^= 1
        cells = ["1" if bits >> j & 1 else "0" for j in range(m)]
        cells.append(str(y))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: Workload, seed: int, out_dir: Path) -> list[Instance]:
    """Write every instance's training and held-out CSVs for this seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    instances = []
    for k in range(workload.instances):
        tag = f"{workload.name}/{seed}/{k}"
        rng = random.Random(f"{tag}/tree")
        planted = tuple(rng.sample(range(workload.n_features), 3))
        leaf_labels = tuple(rng.sample((0, 1), 2) + rng.sample((0, 1), 2))
        train = out_dir / f"i{k}-train.csv"
        holdout = out_dir / f"i{k}-holdout.csv"
        _write_rows(train, random.Random(f"{tag}/train"), workload.n_train,
                    workload.n_features, planted, leaf_labels)
        _write_rows(holdout, random.Random(f"{tag}/holdout"),
                    workload.n_holdout, workload.n_features, planted,
                    leaf_labels)
        instances.append(Instance(k, train, holdout))
    return instances
