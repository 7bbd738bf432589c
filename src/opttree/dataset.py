"""Binary-feature dataset loading and the equivalent-points structure.

A dataset is held column-wise: one bit-vector per feature plus the labels.
Loading, writing and indexing all work on whole columns, joining or
formatting a column's cells as one "0"/"1" string, so each costs
O(N*M) for N samples and M features; nothing reads a single sample's bit
in a loop over samples.  ``load_csv`` parses ``BLOCK_ROWS`` rows at a
time and keeps only each column's joined strings, so its memory is one
block of cells plus the columns.

Samples with identical feature vectors can never be separated by any tree,
so each duplicate group contributes its minority-label count as an
irreducible error floor.  ``build_equivalence_index`` groups the samples
in one pass over the rows of the column strings; the search consults the
result through each leaf's captured minority-indicator popcount.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from typing import NoReturn, TextIO

from .bitvec import BitVector


class DataFormatError(ValueError):
    """Raised for malformed input CSV."""


@dataclass(frozen=True)
class Dataset:
    n_samples: int
    n_features: int
    feature_names: tuple[str, ...]
    columns: tuple[BitVector, ...]
    labels: BitVector

    @property
    def label_one_count(self) -> int:
        return self.labels.count_ones()


@dataclass(frozen=True)
class EquivalenceIndex:
    """Partition of samples into identical-feature-vector classes.

    ``z`` marks exactly the minority-label members of every class; a
    capture vector ANDed with ``z`` counts the unavoidable mistakes among
    captured samples.
    """

    class_of: tuple[int, ...]
    minority_label: tuple[int, ...]
    theta: tuple[Fraction, ...]
    z: BitVector

    @property
    def n_classes(self) -> int:
        return len(self.theta)

    def total_theta(self) -> Fraction:
        return sum(self.theta, Fraction(0))


def from_rows(feature_names, rows, labels) -> Dataset:
    """Build a Dataset from row-major binary features and labels."""
    names = tuple(feature_names)
    n = len(rows)
    m = len(names)
    cols = tuple(
        BitVector.make([rows[i][j] for i in range(n)]) for j in range(m))
    return Dataset(n, m, names, cols, BitVector.make(labels))


BINARY_CELLS = frozenset(("0", "1"))
BLOCK_ROWS = 1024


def load_csv(source: TextIO | str, label_column: str) -> Dataset:
    """Parse a binary CSV with a header row; every cell must be "0" or "1"
    (surrounding whitespace is ignored, blank lines are skipped)."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty input: missing header row")
    header = [h.strip() for h in header]
    if label_column not in header:
        raise DataFormatError(f"label column {label_column!r} not in header")
    label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not feature_names:
        raise DataFormatError("no feature columns")
    if len(set(feature_names)) != len(feature_names):
        raise DataFormatError("duplicate feature names in header")
    if any(not name for name in feature_names):
        raise DataFormatError("empty feature name in header")

    # only one block of records is held at a time; each column grows by
    # one "0"/"1" string per block
    parts: list[list[str]] = [[] for _ in header]
    n_rows = 0
    first = 1  # number of the block's first record, blank lines counted
    while records := list(islice(reader, BLOCK_ROWS)):
        rows = [row for row in records if row]
        if rows:
            if set(map(len, rows)) != {len(header)}:
                _raise_first_error(header, records, first)
            for part, cells in zip(parts, zip(*rows)):
                if not BINARY_CELLS.issuperset(cells):
                    cells = [c.strip() for c in cells]
                    if not BINARY_CELLS.issuperset(cells):
                        _raise_first_error(header, records, first)
                part.append("".join(cells))
            n_rows += len(rows)
        first += len(records)
    if not n_rows:
        raise DataFormatError("no data rows")
    bits = [BitVector.from_string("".join(part)) for part in parts]
    labels = bits.pop(label_idx)
    return Dataset(n_rows, len(feature_names), feature_names,
                   tuple(bits), labels)


def _raise_first_error(header: list[str], records: list[list[str]],
                       first: int) -> NoReturn:
    """Report the first short/long row or non-binary cell of a block whose
    first record is number ``first``, in file order."""
    for rownum, row in enumerate(records, start=first):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"row {rownum}: expected {len(header)} cells, got {len(row)}")
        for colname, cell in zip(header, row):
            cell = cell.strip()
            if cell not in BINARY_CELLS:
                raise DataFormatError(
                    f"row {rownum}, column {colname!r}: "
                    f"non-binary cell {cell!r}")
    raise AssertionError("no malformed cell found")


def write_csv(ds: Dataset, label_column: str = "label") -> str:
    """Emit the dataset back to CSV text (round-trip/testing helper)."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(list(ds.feature_names) + [label_column])
    w.writerows(zip(*[c.to_string() for c in ds.columns],
                    ds.labels.to_string()))
    return out.getvalue()


def literal_column(ds: Dataset, feature: int, polarity: bool) -> BitVector:
    """Capture vector of a single clause: the column or its complement."""
    if not 0 <= feature < ds.n_features:
        raise IndexError(f"feature index {feature} out of range")
    col = ds.columns[feature]
    return col if polarity else col.invert()


def build_equivalence_index(ds: Dataset) -> EquivalenceIndex:
    """Group samples by exact feature-vector equality, in one pass.

    A sample's key is its row across the column strings, so grouping and
    the per-class label counts are linear in N*M.  Class ids follow first
    occurrence, so the result is deterministic.  A class with equally many
    0 and 1 labels takes minority label 0; theta is invariant to that
    choice.
    """
    n = ds.n_samples
    key_to_class: dict[tuple[str, ...], int] = {}
    keys = zip(*[c.to_string() for c in ds.columns]) if ds.columns \
        else [()] * n
    class_of = [key_to_class.setdefault(key, len(key_to_class))
                for key in keys]
    sizes = Counter(class_of)
    ones = Counter(compress(class_of, ds.labels.to_list()))
    minority = []
    theta = []
    for cid in range(len(key_to_class)):
        q = 1 if 2 * ones[cid] < sizes[cid] else 0
        minority.append(q)
        theta.append(Fraction(ones[cid] if q else sizes[cid] - ones[cid], n))
    # z marks the samples whose label is their class's minority label
    minority_bits = "".join(map(str, minority))
    sample_minority = BitVector.from_string(
        "".join([minority_bits[cid] for cid in class_of]))
    return EquivalenceIndex(
        class_of=tuple(class_of),
        minority_label=tuple(minority),
        theta=tuple(theta),
        z=(ds.labels ^ sample_minority).invert(),
    )
