import csv
import io
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree import dataset
from opttree.dataset import (DataFormatError, and_literal,
                             build_equivalence_index, from_rows, load_csv,
                             weighted_count)
from tests.conftest import bits, csv_text


def test_load_csv_basic():
    ds = load_csv(io.StringIO("a,b,y\n0,1,1\n1,0,0\n0,1,1\n"), "y")
    assert ds.n_samples == 3
    assert ds.n_features == 2
    assert ds.feature_names == ("a", "b")
    assert ds.labels == bits([1, 0, 1])
    assert ds.columns[0] == bits([0, 1, 0])
    assert ds.label_one_count == 2


def test_load_csv_missing_label():
    with pytest.raises(DataFormatError, match="z"):
        load_csv(io.StringIO("a,b,y\n0,1,1\n"), "z")


def test_load_csv_rejects_a_label_named_twice():
    # the second "y" would otherwise load as a feature named like the label
    with pytest.raises(DataFormatError, match="more than once"):
        load_csv("y,a,y\n0,1,1\n1,0,0\n", "y")
    # another name repeated is the duplicate-feature error, as before
    with pytest.raises(DataFormatError, match="duplicate feature"):
        load_csv("y,a,a\n0,1,1\n", "y")


def test_load_csv_nonbinary_cell_location():
    with pytest.raises(DataFormatError) as exc:
        load_csv(io.StringIO("a,y\n2,0\n"), "y")
    assert "row 1" in str(exc.value)
    assert "'a'" in str(exc.value) or '"a"' in str(exc.value)


def test_load_csv_degenerate_shapes():
    with pytest.raises(DataFormatError):
        load_csv(io.StringIO("a,y\n"), "y")  # zero rows
    with pytest.raises(DataFormatError):
        load_csv(io.StringIO("y\n0\n"), "y")  # zero features
    with pytest.raises(DataFormatError):
        load_csv(io.StringIO("a,a,y\n0,1,1\n"), "y")  # duplicate names


def test_literal_column_partition():
    ds = from_rows(["a"], [[0], [1], [0]], [1, 0, 1])
    pos = and_literal(ds, ds.all_samples, 0, True)
    neg = and_literal(ds, ds.all_samples, 0, False)
    assert pos == bits([0, 1, 0])
    assert neg == bits([1, 0, 1])
    assert pos.bit_count() + neg.bit_count() == ds.n_samples
    # a literal only narrows a capture, and never yields a negative int
    assert and_literal(ds, bits([1, 1, 0]), 0, False) == bits([1, 0, 0])
    assert and_literal(ds, 0, 0, False) == 0
    with pytest.raises(IndexError):
        and_literal(ds, ds.all_samples, 1, True)
    with pytest.raises(IndexError):
        and_literal(ds, ds.all_samples, -1, True)


def _classes(eq, m):
    """The index as a multiset of (row, size, ones, minority): each class's
    row read back bit by bit from the class columns, and each count from
    the class's bit in every plane."""
    def count(planes, k):
        return sum((plane >> k & 1) << j for j, plane in enumerate(planes))
    return Counter(
        (tuple(eq.columns[f] >> k & 1 for f in range(m)),
         count(eq.size_planes, k), count(eq.one_planes, k),
         count(eq.minority_planes, k))
        for k in range(eq.n_classes))


def _floor(eq):
    """The number of samples in a minority of their class."""
    return weighted_count(eq.all_classes, eq.minority_planes)


def test_equivalence_index_example():
    rows = [[0, 1]] * 4 + [[1, 0]] * 2
    labels = [1, 1, 1, 1, 0, 1]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, labels))
    assert eq.n_classes == 2
    # the pure class has no minority; the other has one 0 among two
    assert _classes(eq, 2) == Counter({((0, 1), 4, 4, 0): 1,
                                       ((1, 0), 2, 1, 1): 1})
    assert _floor(eq) == 1
    assert weighted_count(eq.all_classes, eq.size_planes) == 6
    assert weighted_count(eq.all_classes, eq.one_planes) == 5


def test_equivalence_index_distinct_rows():
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, [1, 0, 0, 1]))
    assert eq.n_classes == 4
    # every class holds one sample: one support plane, no minority plane
    assert eq.size_planes == (0b1111,)
    assert eq.minority_planes == ()
    assert _classes(eq, 2) == Counter({((0, 0), 1, 1, 0): 1,
                                       ((0, 1), 1, 0, 0): 1,
                                       ((1, 0), 1, 0, 0): 1,
                                       ((1, 1), 1, 1, 0): 1})


def test_equivalence_index_tie():
    rows = [[1, 1], [1, 1]]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, [0, 1]))
    assert eq.n_classes == 1
    # tied: either label is the minority, one sample of two
    assert _classes(eq, 2) == Counter({((1, 1), 2, 1, 1): 1})
    assert _floor(eq) == 1


def test_equivalence_index_one_sample():
    eq = build_equivalence_index(from_rows(["a", "b"], [[1, 0]], [1]))
    assert eq.n_classes == 1 and eq.all_classes == 1
    assert eq.columns == (1, 0)
    assert (eq.size_planes, eq.one_planes, eq.minority_planes) \
        == ((1,), (1,), ())


def test_equivalence_index_identical_rows():
    # one class of 37 = 0b100101 samples, 20 = 0b10100 of them labelled 1
    n = 37
    eq = build_equivalence_index(
        from_rows(["a", "b", "c"], [[1, 0, 1]] * n, [1] * 20 + [0] * 17))
    assert eq.n_classes == 1
    assert eq.columns == (1, 0, 1)
    assert len(eq.size_planes) == n.bit_length()
    assert eq.size_planes == (1, 0, 1, 0, 0, 1)
    assert eq.one_planes == (0, 0, 1, 0, 1)
    assert eq.minority_planes == (1, 0, 0, 0, 1)  # 17
    assert _classes(eq, 3) == Counter({((1, 0, 1), 37, 20, 17): 1})


def test_equivalence_index_past_64_features():
    # four rows that differ in feature 3 of the first machine word, in
    # feature 66 of the second, or in both
    rng = random.Random(5)
    base = [rng.randint(0, 1) for _ in range(70)]
    pool = []
    for flips in ((), (3,), (66,), (3, 66)):
        row = list(base)
        for f in flips:
            row[f] ^= 1
        pool.append(row)
    rows = [pool[i % 4] for i in range(11)]
    labels = [rng.randint(0, 1) for _ in rows]
    eq = build_equivalence_index(
        from_rows([f"f{j}" for j in range(70)], rows, labels))
    assert eq.n_classes == 4
    assert _classes(eq, 70) == _brute_force_index(rows, labels)


rows_strategy = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@given(rows_strategy)
def test_total_theta_at_most_half(data):
    # the equivalent-points floor over N is the paper's total theta
    rows, labels = data
    eq = build_equivalence_index(from_rows(["a", "b", "c"], rows, labels))
    assert 2 * _floor(eq) <= len(rows)
    assert 1 <= eq.n_classes <= min(len(rows), 8)


@given(rows_strategy)
def test_csv_roundtrip(data):
    rows, labels = data
    ds = from_rows(["a", "b", "c"], rows, labels)
    ds2 = load_csv(io.StringIO(csv_text(ds)), "y")
    assert ds2.feature_names == ds.feature_names
    assert ds2.labels == ds.labels
    assert all(c1 == c2 for c1, c2 in zip(ds.columns, ds2.columns))


def _brute_force_index(rows, labels):
    """Per-row grouping, written independently of the library: the
    multiset of (row, size, ones, minority) over distinct rows."""
    table: dict[tuple, list[int]] = {}
    for row, y in zip(rows, labels):
        counts = table.setdefault(tuple(row), [0, 0])
        counts[0] += 1
        counts[1] += y
    return Counter((row, size, ones, min(ones, size - ones))
                   for row, (size, ones) in table.items())


# rows drawn from a small pool: duplicates, all-identical rows (pool of
# one) and tied label counts are all common
grouped_data = st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
             min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)),
             min_size=1, max_size=200),
    st.randoms(use_true_random=False)))


@given(grouped_data)
@settings(max_examples=60, deadline=None)
def test_equivalence_index_and_padded_csv_match_per_row(data):
    m, pool, picks, rnd = data
    rows = [pool[i % len(pool)] for i, _ in picks]
    labels = [y for _, y in picks]
    names = [f"f{j}" for j in range(m)]
    ds = from_rows(names, rows, labels)
    eq = build_equivalence_index(ds)
    assert _classes(eq, m) == _brute_force_index(rows, labels)
    assert eq.n_classes == len({tuple(row) for row in rows})

    def pad(cell):
        return (rnd.choice(["", " ", "  ", "\t"]) + cell
                + rnd.choice(["", " ", "\t"]))
    lines = [",".join(names + ["y"])]
    for row, y in zip(rows, labels):
        if rnd.random() < 0.1:
            lines.append("")
        lines.append(",".join(pad(str(v)) for v in row + [y]))
    assert load_csv(io.StringIO("\n".join(lines) + "\n"), "y") == ds


def _valid_rows(k):
    return "".join(f"{i % 2},{(i // 2) % 2},{(i // 3) % 2}\n"
                   for i in range(k))


def test_load_csv_short_row_deep_in_file():
    text = "a,b,y\n" + _valid_rows(140) + "1,0\n" + _valid_rows(10)
    with pytest.raises(DataFormatError,
                       match=r"^row 141: expected 3 cells, got 2$"):
        load_csv(io.StringIO(text), "y")


def test_load_csv_first_nonbinary_cell_is_reported():
    text = ("a,b,y\n" + _valid_rows(56) + "1,2,0\n" + _valid_rows(20)
            + "x,1,1\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(io.StringIO(text), "y")
    assert str(exc.value) == "row 57, column 'b': non-binary cell '2'"


def test_load_csv_accepts_padded_cells():
    ds = load_csv(io.StringIO("a,b,y\n 1 , 0 , 1 \n0,1, 0\n"), "y")
    assert ds == from_rows(["a", "b"], [[1, 0], [0, 1]], [1, 0])


@pytest.mark.parametrize("cell", [" 10 ", "", " "])
def test_load_csv_rejects_padded_or_empty_cells_that_are_not_bits(cell):
    with pytest.raises(DataFormatError,
                       match=f"^row 2, column 'b': non-binary cell "
                             f"{cell.strip()!r}$"):
        load_csv(io.StringIO(f"a,b,y\n0,1,1\n1,{cell},0\n"), "y")


def _records_with_blank_lines(k):
    """k valid records, with a blank line before every seventh."""
    lines = []
    for i in range(k):
        if i % 7 == 3:
            lines.append("")
        lines.append(f"{i % 2},{(i // 2) % 2},{(i // 3) % 2}")
    return lines


@pytest.mark.parametrize("block_rows", [1, 5, 64, 1024])
def test_load_csv_blocks_keep_rows_and_error_numbers(monkeypatch,
                                                     block_rows):
    monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
    lines = _records_with_blank_lines(150)
    rows = [[int(c) for c in line.split(",")] for line in lines if line]
    expected = from_rows(["a", "b"], [r[:2] for r in rows],
                         [r[2] for r in rows])
    assert load_csv(io.StringIO("a,b,y\n" + "\n".join(lines)), "y") \
        == expected
    # row numbers count blank lines; the first error in file order wins
    for at in (0, 4, 63, 64, 65, 150):
        short = lines[:at] + ["1,0"] + lines[at:]
        with pytest.raises(DataFormatError,
                           match=rf"^row {at + 1}: expected 3 cells, got 2$"):
            load_csv(io.StringIO("a,b,y\n" + "\n".join(short)), "y")
        bad = lines[:at] + ["1, 2 ,0"] + lines[at:] + ["x,1,1"]
        with pytest.raises(DataFormatError,
                           match=rf"^row {at + 1}, column 'b': "
                                 rf"non-binary cell '2'$"):
            load_csv(io.StringIO("a,b,y\n" + "\n".join(bad)), "y")
        huge = lines[:at] + ["0" * 200_000 + ",1,0"] + lines[at:]
        with pytest.raises(DataFormatError,
                           match=rf"^row {at + 1}: field larger than field "
                                 rf"limit \(\d+\)$"):
            load_csv(io.StringIO("a,b,y\n" + "\n".join(huge)), "y")
    with pytest.raises(DataFormatError, match="^no data rows$"):
        load_csv(io.StringIO("a,b,y\n" + "\n" * 2 * block_rows), "y")


def test_load_csv_memory_is_bounded_by_a_block(tmp_path):
    """Loading holds one block of parsed rows, not the whole file: the
    peak stays near the size of the finished columns (50 000 rows x 9
    columns of one character each, 0.45 MB)."""
    rng = random.Random(2)
    path = tmp_path / "big.csv"
    with path.open("w") as fh:
        fh.write(",".join(f"f{j}" for j in range(8)) + ",y\n")
        for _ in range(50_000):
            fh.write(",".join(rng.choice("01") for _ in range(9)) + "\n")
    tracemalloc.start()
    try:
        with path.open() as fh:
            ds = load_csv(fh, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_samples == 50_000
    # the whole file's rows as lists of cells take about 11 MB
    assert peak < 3_000_000


def _counting_csv_reader(monkeypatch):
    """Wrap ``csv.reader`` as ``load_csv`` sees it; returns the list of
    records every reader hands out."""
    real_reader = dataset.csv.reader
    records = []

    def reader(*args, **kwargs):
        for record in real_reader(*args, **kwargs):
            records.append(record)
            yield record
    monkeypatch.setattr(dataset.csv, "reader", reader)
    return records


def _load_or_error(text, newline="\n"):
    """The loaded dataset, or the message of the DataFormatError raised."""
    try:
        return load_csv(io.StringIO(text, newline=newline), "y")
    except DataFormatError as exc:
        return str(exc)


strict_tables = st.tuples(
    st.sampled_from([1, 5, 64, 1024]),
    st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.integers(0, m),
        st.lists(st.lists(st.integers(0, 1), min_size=m + 1,
                          max_size=m + 1), min_size=1, max_size=300))))


@given(strict_tables)
@settings(max_examples=60, deadline=None)
def test_strict_blocks_load_like_the_csv_reader(table):
    """A file of one-character cells, "," separators and "\\n" line ends
    loads by strided blocks without the CSV reader past its header, and
    gives what its CRLF and lone-CR copies give through the reader."""
    block_rows, (label_at, rows) = table
    header = [f"f{j}" for j in range(len(rows[0]) - 1)]
    header.insert(label_at, "y")
    expected = from_rows(
        [h for h in header if h != "y"],
        [r[:label_at] + r[label_at + 1:] for r in rows],
        [r[label_at] for r in rows])
    # bit i of every column and of the labels is row i's cell, no bit
    # lies past the last row, so the strict CSV of the dataset is the
    # rows as drawn
    features = [j for j in range(len(header)) if j != label_at]
    for i, row in enumerate(rows):
        assert [c >> i & 1 for c in expected.columns] \
            == [row[j] for j in features]
        assert expected.labels >> i & 1 == row[label_at]
    assert all(type(c) is int and 0 <= c < 1 << len(rows)
               for c in (*expected.columns, expected.labels))
    text = csv_text(expected, "y", label_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_ROWS", block_rows)
        records = _counting_csv_reader(mp)
        assert load_csv(text, "y") == expected
        assert records == [header]
        del records[:]
        # a missing final newline keeps the file strict
        assert load_csv(text[:-1], "y") == expected
        assert records == [header]
        del records[:]
        assert _load_or_error(text.replace("\n", "\r\n")) == expected
        assert len(records) == 1 + len(rows)
        del records[:]
        assert _load_or_error(text.replace("\n", "\r"), newline="") \
            == expected
        assert len(records) == 1 + len(rows)


def _short_row(lines, at):
    return lines[:at] + ["1,0"] + lines[at:]


def _non_binary_cell(lines, at):
    return lines[:at] + ["1,2,0"] + lines[at:]


def _padded_cell(lines, at):
    return lines[:at] + [" " + lines[at]] + lines[at + 1:]


def _blank_line(lines, at):
    return lines[:at] + [""] + lines[at:]


def _quoted_cell(lines, at):
    return lines[:at] + ['"' + lines[at][0] + '"' + lines[at][1:]] \
        + lines[at + 1:]


def _oversized_cell(lines, at):
    return lines[:at] + ["0" * 200_000 + ",1,0"] + lines[at:]


DEFECTS = {
    "short row": (_short_row, "row {row}: expected 3 cells, got 2"),
    "non-binary cell": (_non_binary_cell,
                        "row {row}, column 'b': non-binary cell '2'"),
    "padded cell": (_padded_cell, None),
    "blank line": (_blank_line, None),
    "quoted cell": (_quoted_cell, None),
    "oversized cell": (_oversized_cell,
                       "row {row}: field larger than field limit "
                       f"({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("block_rows", [1, 5, 64, 1024])
def test_defects_around_block_boundaries_match_the_csv_reader(
        monkeypatch, block_rows):
    """After three strict blocks, a defect in the last row of a block,
    the first row of the next or the one after loads the same rows, or
    raises the same error, as the CRLF copy, which the CSV reader reads
    from its first row."""
    monkeypatch.setattr(dataset, "BLOCK_ROWS", block_rows)
    n = 5 * block_rows + 2
    lines = [f"{i % 2},{(i // 2) % 2},{(i // 3) % 2}" for i in range(n)]
    good = from_rows(["a", "b"],
                     [[i % 2, (i // 2) % 2] for i in range(n)],
                     [(i // 3) % 2 for i in range(n)])
    for at in (3 * block_rows - 1, 3 * block_rows, 3 * block_rows + 1):
        for name, (defect, message) in DEFECTS.items():
            variant = ["a,b,y"] + defect(lines, at)
            lf = _load_or_error("\n".join(variant) + "\n")
            assert lf == _load_or_error("\r\n".join(variant) + "\r\n"), \
                (name, at)
            if message is None:
                assert lf == good, (name, at)
            else:
                assert lf == message.format(row=at + 1), (name, at)
        # a missing final newline ends the file after row `at`
        unterminated = "\n".join(["a,b,y"] + lines[:at])
        assert _load_or_error(unterminated) \
            == _load_or_error(unterminated.replace("\n", "\r\n")) \
            == from_rows(["a", "b"],
                         [[i % 2, (i // 2) % 2] for i in range(at)],
                         [(i // 3) % 2 for i in range(at)])
