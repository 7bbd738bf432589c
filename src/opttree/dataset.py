"""Binary-feature dataset loading and the equivalent-points structure.

A dataset is held column-wise: one non-negative int per feature plus one
for the labels, bit i for sample i; the sample count is ``n_samples``,
not the int's length.  A set of samples (a leaf's capture) is an int of
the same form, so every support count is ``int.bit_count()`` of an AND.
Loading, writing and indexing all work on whole columns, joining or
formatting a column's cells as one "0"/"1" string, so each costs
O(N*M) for N samples and M features; nothing reads a single sample's bit
in a loop over samples.  ``load_csv`` reads ``BLOCK_ROWS`` rows at a
time and keeps only each column's joined strings, so its memory is one
block of cells plus the columns.  A block of strict rows (one-character
"0"/"1" cells, "," separators, "\\n" line ends) gives each column as a
strided slice of its text, with no per-row work.  The first block that
is not strict, and the rest of the file, go through ``csv.reader``,
which takes every other valid layout (padded or quoted cells, CRLF or
lone-CR line ends, blank lines) to the same result and reports the same
errors at the same row numbers.

Samples with identical feature vectors can never be separated by any tree,
so they are always captured together.  ``build_equivalence_index`` groups
them into row classes, once per fit, and the search works on classes:
its captures are ints with one bit per class, ANDed with the class
columns, and a count over a capture is a weighted popcount of the
class-size, label-one or minority-count bit planes (``weighted_count``).
Each class's minority count is an irreducible error floor under every
tree.  The grouping packs every row into machine words with strided
writes, so no Python code runs once per row.
"""

from __future__ import annotations

import csv
import io
import struct
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import sub
from typing import NoReturn, TextIO


class DataFormatError(ValueError):
    """Raised for malformed input CSV."""


@dataclass(frozen=True)
class Dataset:
    n_samples: int
    n_features: int
    feature_names: tuple[str, ...]
    columns: tuple[int, ...]
    labels: int

    @property
    def label_one_count(self) -> int:
        return self.labels.bit_count()

    @property
    def all_samples(self) -> int:
        """The capture of every sample: bits 0 to N-1 set."""
        return (1 << self.n_samples) - 1


@dataclass(frozen=True)
class EquivalenceIndex:
    """The row classes of a dataset: its samples grouped by feature vector.

    A set of classes is an int, bit k for class k.  ``columns`` has one
    int per feature, bit k set when class k's row has that feature, so a
    literal narrows a set of classes as a sample column narrows a set of
    samples.  The three tuples are bit planes of per-class counts: bit k
    of ``size_planes[j]`` is bit j of class k's size, and likewise for its
    label-one count (``one_planes``) and its minority-label count
    (``minority_planes``).  The samples in a set S of classes number
    ``weighted_count(S, size_planes)``; ``weighted_count(all_classes,
    minority_planes) / N`` is the equivalent-points floor under every
    tree's error.  Classes are numbered by first occurrence, but nothing
    that reads the index depends on their order.
    """

    n_classes: int
    columns: tuple[int, ...]
    size_planes: tuple[int, ...]
    one_planes: tuple[int, ...]
    minority_planes: tuple[int, ...]

    @property
    def all_classes(self) -> int:
        """The set of every class: bits 0 to n_classes - 1 set."""
        return (1 << self.n_classes) - 1


def weighted_count(capture: int, planes: tuple[int, ...]) -> int:
    """The sum over the classes in ``capture`` of the count that
    ``planes`` holds: the sum of 2^j * popcount(capture & planes[j]),
    taken by Horner's rule from the top plane down."""
    total = 0
    for plane in reversed(planes):
        total = 2 * total + (capture & plane).bit_count()
    return total


def from_rows(feature_names, rows, labels) -> Dataset:
    """Build a Dataset from row-major binary features and labels."""
    names = tuple(feature_names)
    n = len(rows)
    m = len(names)
    cols = tuple(_from_cells([rows[i][j] for i in range(n)])
                 for j in range(m))
    return Dataset(n, m, names, cols, _from_cells(labels))


def _from_cells(cells) -> int:
    """The int whose bit i is set when ``cells[i]`` is truthy."""
    return _parse_bits("".join(["1" if c else "0" for c in cells]))


def _parse_bits(bits: str) -> int:
    """The int of a "0"/"1" string, bit 0 first."""
    return int(bits[::-1], 2) if bits else 0


def _format_bits(bits: int, n: int) -> str:
    """The n low bits of ``bits`` as "0"/"1" characters, bit 0 first."""
    return format(bits, f"0{n}b")[::-1] if n else ""


BINARY_CELLS = frozenset(("0", "1"))
BLOCK_ROWS = 1024


def load_csv(source: TextIO | str, label_column: str) -> Dataset:
    """Parse a binary CSV with a header row; every cell must be "0" or "1"
    (surrounding whitespace is ignored, blank lines are skipped)."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        header = next(csv.reader(source))
    except StopIteration:
        raise DataFormatError("empty input: missing header row")
    except csv.Error as exc:
        raise DataFormatError(f"header row: {exc}")
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

    # only one block is held at a time; each column grows by one "0"/"1"
    # string per block
    parts: list[list[str]] = [[] for _ in header]
    n_rows = 0
    # a strict block is rows "c,c,...,c\n" with every c "0" or "1": its
    # even characters are the cells, row by row, and its odd ones the
    # separators
    k = len(header)
    separators = ("," * (k - 1) + "\n") * BLOCK_ROWS
    while block := _read_block(source, 2 * k * BLOCK_ROWS):
        cells = block[::2]
        if len(block) % (2 * k) or block[1::2] != separators[:len(cells)] \
                or not cells.isascii() \
                or cells.encode("ascii").translate(None, b"01"):
            break
        for j, part in enumerate(parts):
            part.append(cells[j::k])
        n_rows += len(cells) // k
    # the CSV reader takes the first block that is not strict, completed
    # to the end of its line, and the rest of the stream
    reader = csv.reader(chain(
        io.StringIO(block + source.readline(), newline=""), source)) \
        if block else ()
    # number of the block's first record, blank lines counted
    first = n_rows + 1
    while records := _read_records(reader, first):
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
    bits = [_parse_bits("".join(part)) for part in parts]
    labels = bits.pop(label_idx)
    return Dataset(n_rows, len(feature_names), feature_names,
                   tuple(bits), labels)


def _read_block(source: TextIO, size: int) -> str:
    """The next ``size`` characters of ``source``, or all that are left,
    then with the final line end a file may lack."""
    block = source.read(size)
    while 0 < len(block) < size and (more := source.read(size - len(block))):
        block += more
    if 0 < len(block) < size and not block.endswith("\n"):
        block += "\n"
    return block


def _read_records(reader, first: int) -> list[list[str]]:
    """The next ``BLOCK_ROWS`` records of ``reader``, the first of them
    number ``first``.  A record the reader rejects, such as one with a
    cell longer than ``csv.field_size_limit()``, is a DataFormatError."""
    records: list[list[str]] = []
    try:
        # extend keeps the records read before the bad one, which
        # number it
        records.extend(islice(reader, BLOCK_ROWS))
    except csv.Error as exc:
        raise DataFormatError(f"row {first + len(records)}: {exc}")
    return records


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
    n = ds.n_samples
    w.writerows(zip(*[_format_bits(c, n) for c in ds.columns],
                    _format_bits(ds.labels, n)))
    return out.getvalue()


def and_literal(data: Dataset | EquivalenceIndex, capture: int,
                feature: int, polarity: bool) -> int:
    """The members of ``capture`` that satisfy one literal: those with
    ``feature`` equal to ``polarity``.  ``capture`` is a set of samples
    of a Dataset or a set of classes of an EquivalenceIndex; it is
    non-negative, so the result is too."""
    if not 0 <= feature < len(data.columns):
        raise IndexError(f"feature index {feature} out of range")
    col = data.columns[feature]
    return capture & col if polarity else capture & ~col


# translation of a column's "0"/"1" text to the bytes 0 and 1 << j
_BIT_BYTES = tuple(bytes.maketrans(b"01", bytes((0, 1 << j)))
                   for j in range(8))


def build_equivalence_index(ds: Dataset) -> EquivalenceIndex:
    """Group samples by exact feature-vector equality.

    Each row becomes a record of whole 64-bit words, bit f for feature f:
    eight columns at a time are spread to one byte per row and written
    into every record by one strided slice.  Read as machine ints (or
    tuples of them past 64 features), the records are counted by
    ``Counter``, once in all and once over the label-one rows, so the
    work per row is done in C.  The class columns and the count planes
    are read off the distinct records and counts by the same transpose.
    A class with equally many 0 and 1 labels takes minority label 0; its
    count of minority members is the same either way.
    """
    n, m = ds.n_samples, ds.n_features
    words = max(1, -(-m // 64))
    width = 8 * words
    packed = bytearray(width * n)
    for g in range(0, m, 8):
        # byte g // 8 of a record holds features g to g + 7; a column's
        # text is its bit N-1 first, so it is read big-endian
        spread = 0
        for j, col in enumerate(ds.columns[g:g + 8]):
            spread |= int.from_bytes(
                format(col, f"0{n}b").encode().translate(_BIT_BYTES[j]),
                "big")
        packed[g // 8::width] = spread.to_bytes(n, "little")
    records = memoryview(packed).cast("Q")
    keys = records if words == 1 else \
        list(zip(*[records[w::words] for w in range(words)]))
    sizes = Counter(keys)  # in order of first occurrence
    label_bits = format(ds.labels, f"0{n}b").encode().translate(
        _BIT_BYTES[0])[::-1]
    ones_of = Counter(compress(keys, label_bits))
    classes = list(sizes)
    size = list(sizes.values())
    ones = list(map(ones_of.get, classes, repeat(0)))
    minority = list(map(min, ones, map(sub, size, ones)))
    class_records = array("Q", classes if words == 1
                          else chain.from_iterable(classes)).tobytes()
    return EquivalenceIndex(
        n_classes=len(classes),
        columns=_transpose(class_records, width, m),
        size_planes=_count_planes(size),
        one_planes=_count_planes(ones),
        minority_planes=_count_planes(minority))


def _count_planes(counts: list[int]) -> tuple[int, ...]:
    """The bit planes of non-negative counts: bit k of plane j is bit j
    of ``counts[k]``; there are as many planes as the largest has bits."""
    records = struct.pack(f"<{len(counts)}Q", *counts)
    return _transpose(records, 8, max(counts, default=0).bit_length())


def _transpose(records: bytes, width: int, count: int) -> tuple[int, ...]:
    """Bits 0 to count-1 of a run of ``width``-byte records, each read as a
    little-endian int: one int per bit position b, whose bit k is bit b
    of record k."""
    if not records:
        return (0,) * count
    # the run as one int, written most significant bit first: the last
    # record comes first, and bit b of each record is character
    # 8 * width - 1 - b of its stretch of the text
    text = format(int.from_bytes(records, "little"), f"0{8 * len(records)}b")
    return tuple(int(text[8 * width - 1 - b::8 * width], 2)
                 for b in range(count))
