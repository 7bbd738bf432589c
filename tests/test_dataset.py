import io
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opttree import dataset
from opttree.bitvec import BitVector
from opttree.dataset import (DataFormatError, EquivalenceIndex,
                             build_equivalence_index, from_rows,
                             literal_column, load_csv, write_csv)


def test_load_csv_basic():
    ds = load_csv(io.StringIO("a,b,y\n0,1,1\n1,0,0\n0,1,1\n"), "y")
    assert ds.n_samples == 3
    assert ds.n_features == 2
    assert ds.feature_names == ("a", "b")
    assert ds.labels.to_list() == [1, 0, 1]
    assert ds.columns[0].to_list() == [0, 1, 0]
    assert ds.label_one_count == 2


def test_load_csv_missing_label():
    with pytest.raises(DataFormatError, match="z"):
        load_csv(io.StringIO("a,b,y\n0,1,1\n"), "z")


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
    pos = literal_column(ds, 0, True)
    neg = literal_column(ds, 0, False)
    assert pos.to_list() == [0, 1, 0]
    assert neg.to_list() == [1, 0, 1]
    assert pos.count_ones() + neg.count_ones() == ds.n_samples
    with pytest.raises(IndexError):
        literal_column(ds, 1, True)


def test_equivalence_index_example():
    rows = [[0, 1]] * 4 + [[1, 0]] * 2
    labels = [1, 1, 1, 1, 0, 1]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, labels))
    assert eq.n_classes == 2
    assert eq.theta[eq.class_of[0]] == 0
    assert eq.theta[eq.class_of[4]] == Fraction(1, 6)
    assert eq.z.count_ones() == 1


def test_equivalence_index_distinct_rows():
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, [1, 0, 0, 1]))
    assert eq.n_classes == 4
    assert all(t == 0 for t in eq.theta)
    assert eq.z.is_zero()


def test_equivalence_index_tie():
    rows = [[1, 1], [1, 1]]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, [0, 1]))
    assert eq.theta[0] == Fraction(1, 2)  # 1/N with N=2
    assert eq.minority_label[0] == 0  # tie -> label 0


rows_strategy = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
                 min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))


@given(rows_strategy)
def test_total_theta_at_most_half(data):
    rows, labels = data
    eq = build_equivalence_index(from_rows(["a", "b", "c"], rows, labels))
    assert eq.total_theta() <= Fraction(1, 2)
    assert eq.total_theta() == Fraction(eq.z.count_ones(), len(rows))


@given(rows_strategy)
def test_csv_roundtrip(data):
    rows, labels = data
    ds = from_rows(["a", "b", "c"], rows, labels)
    ds2 = load_csv(io.StringIO(write_csv(ds, "y")), "y")
    assert ds2.feature_names == ds.feature_names
    assert ds2.labels == ds.labels
    assert all(c1 == c2 for c1, c2 in zip(ds.columns, ds2.columns))


def test_class_ids_stable_by_first_occurrence():
    rows = [[1, 0], [0, 1], [1, 0], [0, 1]]
    eq = build_equivalence_index(from_rows(["a", "b"], rows, [0, 1, 1, 0]))
    assert eq.class_of == (0, 1, 0, 1)


def _brute_force_index(rows, labels):
    """Per-row grouping, written independently of the library."""
    n = len(rows)
    class_ids: dict[tuple, int] = {}
    class_of = [class_ids.setdefault(tuple(r), len(class_ids)) for r in rows]
    ones = [0] * len(class_ids)
    sizes = [0] * len(class_ids)
    for cid, y in zip(class_of, labels):
        sizes[cid] += 1
        ones[cid] += y
    minority = [1 if ones[c] < sizes[c] - ones[c] else 0
                for c in range(len(sizes))]
    theta = [Fraction(min(ones[c], sizes[c] - ones[c]), n)
             for c in range(len(sizes))]
    z = BitVector.make([y == minority[cid]
                        for cid, y in zip(class_of, labels)])
    return EquivalenceIndex(tuple(class_of), tuple(minority), tuple(theta), z)


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
    assert build_equivalence_index(ds) == _brute_force_index(rows, labels)

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
