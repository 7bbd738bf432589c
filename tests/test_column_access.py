"""The data layer end to end on whole columns: a CSV is loaded, indexed,
fit and scored with ``opttree predict``."""

import json
import random
from fractions import Fraction

from opttree.cli import main
from opttree.dataset import build_equivalence_index, load_csv
from opttree.search import SearchConfig, fit


def test_data_paths_never_read_single_bits(tmp_path, capsys):
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
