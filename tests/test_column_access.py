"""The data layer works on whole columns: loading, the equivalence index,
a fit and ``opttree predict`` never read one sample's bit at a time.

A loop of ``BitVector.get`` over the samples shifts an N-bit integer per
call and is quadratic in N; this test fails on any such loop on these
paths, without timing anything.
"""

import json
import random
from fractions import Fraction

import pytest

from opttree.bitvec import BitVector
from opttree.cli import main
from opttree.dataset import build_equivalence_index, load_csv
from opttree.search import SearchConfig, fit


@pytest.fixture
def no_single_bit_reads(monkeypatch):
    def forbidden(self, i):
        raise AssertionError(f"BitVector.get({i}) on a column-wise path")
    monkeypatch.setattr(BitVector, "get", forbidden)


def test_data_paths_never_read_single_bits(tmp_path, capsys,
                                           no_single_bit_reads):
    rng = random.Random(5)
    rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(60)]
    text = "a,b,c,y\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    data = tmp_path / "data.csv"
    data.write_text(text)

    ds = load_csv(text, "y")
    assert build_equivalence_index(ds).n_classes <= 8
    assert fit(ds, SearchConfig(lam=Fraction(1, 50))).certified

    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "0.02", "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--label", "y"]) == 0
    assert "mistakes: " in capsys.readouterr().out
    assert json.loads(model.read_text())["certified"] is True
