import csv
import json
import random
from fractions import Fraction

import pytest

from opttree.cli import main

TOY = "a,b,y\n0,1,1\n1,0,0\n0,1,1\n1,1,0\n0,0,1\n1,0,0\n"
NOISY = ("a,b,y\n0,1,1\n1,0,0\n0,1,1\n1,1,0\n0,0,1\n1,0,0\n"
         "0,0,0\n1,1,0\n")


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY)
    return p


def _fit(tmp_path, toy_csv, *extra):
    out = tmp_path / "model.json"
    code = main(["fit", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01", "--out", str(out), *extra])
    return code, out


def test_fit_writes_certified_model(tmp_path, toy_csv, capsys):
    code, out = _fit(tmp_path, toy_csv)
    assert code == 0
    model = json.loads(out.read_text())
    assert model["certified"] is True
    assert model["lambda"] == "0.01"
    assert model["objective"] == "1/50"
    assert model["training_accuracy"] == 1.0
    assert len(model["leaves"]) == 2
    clauses = [c for leaf in model["leaves"] for c in leaf["clauses"]]
    assert all(c["feature"] in ("a", "b") for c in clauses)
    captured = capsys.readouterr().out
    assert "certified: true" in captured
    assert "objective: 1/50" in captured


def test_fit_lambda_zero_is_usage_error(tmp_path, toy_csv, capsys):
    code, _ = _fit(tmp_path, toy_csv, "--lambda")
    # missing value -> argparse usage error is also exit 1
    assert code == 1
    out = tmp_path / "model.json"
    code = main(["fit", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0", "--out", str(out)])
    assert code == 1
    assert "lambda" in capsys.readouterr().err.lower()


def test_fit_bad_csv_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n2,0\n")
    code = main(["fit", "--data", str(bad), "--label", "y",
                 "--lambda", "0.01", "--out", str(tmp_path / "m.json")])
    assert code == 1


def test_fit_time_limit_uncertified(tmp_path):
    hard = tmp_path / "hard.csv"
    rng = random.Random(1)
    rows = ["".join(str(rng.randint(0, 1)) for _ in range(9))
            for _ in range(80)]
    hard.write_text("a,b,c,d,e,f,g,h,y\n"
                    + "\n".join(",".join(r) for r in rows) + "\n")
    code = main(["fit", "--data", str(hard), "--label", "y",
                 "--lambda", "0.002", "--out", str(tmp_path / "m.json"),
                 "--time-limit", "0.01", "--trace-interval", "5"])
    assert code == 3
    model = json.loads((tmp_path / "m.json").read_text())
    assert model["certified"] is False


def test_fit_trace_csv(tmp_path, toy_csv):
    trace = tmp_path / "trace.csv"
    code, _ = _fit(tmp_path, toy_csv, "--trace", str(trace),
                   "--trace-interval", "1", "--policy", "lower_bound")
    assert code == 0
    with open(trace, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert records
    assert list(records[0]) == ["elapsed_s", "trees_evaluated",
                                "best_objective", "min_queue_lower_bound",
                                "queue_size", "log10_remaining_bound"]
    objs = [Fraction(r["best_objective"]) for r in records]
    assert objs == sorted(objs, reverse=True)
    mins = [Fraction(r["min_queue_lower_bound"]) for r in records
            if r["min_queue_lower_bound"]]
    assert mins == sorted(mins)


def test_predict_roundtrip_identity(tmp_path, toy_csv, capsys):
    code, out = _fit(tmp_path, toy_csv)
    model = json.loads(out.read_text())
    capsys.readouterr()
    code = main(["predict", "--model", str(out), "--data", str(toy_csv),
                 "--label", "y"])
    assert code == 0
    text = capsys.readouterr().out
    acc = float(text.split("accuracy: ")[1])
    lam = Fraction(model["lambda"])
    h = len(model["leaves"])
    objective = Fraction(model["objective"])
    assert acc == pytest.approx(float(1 - objective + lam * h))


def test_predict_missing_feature(tmp_path, toy_csv, capsys):
    code, out = _fit(tmp_path, toy_csv)
    other = tmp_path / "other.csv"
    other.write_text("c,y\n0,1\n1,0\n")
    code = main(["predict", "--model", str(out), "--data", str(other),
                 "--label", "y"])
    assert code == 1


def test_predict_broken_partition_is_internal_error(tmp_path, toy_csv,
                                                    capsys):
    code, out = _fit(tmp_path, toy_csv)
    model = json.loads(out.read_text())
    model["leaves"] = model["leaves"][:1]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(model))
    code = main(["predict", "--model", str(broken), "--data", str(toy_csv),
                 "--label", "y"])
    assert code == 2


def test_count(capsys):
    assert main(["count", "--features", "10", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1000"
    assert main(["count", "--features", "20", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8000"
    assert main(["count", "--features", "10", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_oracle_command(tmp_path, toy_csv, capsys):
    code = main(["oracle", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01"])
    assert code == 0
    text = capsys.readouterr().out
    assert "objective: 1/50" in text
    assert "leaves: 2" in text


def test_oracle_resource_error(tmp_path, toy_csv, capsys):
    code = main(["oracle", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01", "--max-features", "1"])
    assert code == 1


def test_ablate_table(tmp_path, capsys):
    data = tmp_path / "noisy.csv"
    data.write_text(NOISY)
    out = tmp_path / "ablate.csv"
    code = main(["ablate", "--data", str(data), "--label", "y",
                 "--lambda", "0.05", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = ["variant", "total_time_s", "time_to_optimum_s",
              "trees_evaluated", "trees_to_optimum", "max_queue_size"]
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == header
    variants = {r["variant"] for r in rows}
    assert "all_bounds" in variants
    assert "no_lookahead" in variants
    assert any(v.startswith("policy_") for v in variants)


def test_determinism_byte_identical_models(tmp_path, toy_csv):
    _, out1 = _fit(tmp_path, toy_csv)
    first = out1.read_bytes()
    _, out2 = _fit(tmp_path, toy_csv)
    assert out2.read_bytes() == first


def test_unknown_subcommand_exit_code():
    assert main(["frobnicate"]) == 1


def test_fit_with_a_remaining_bound_beyond_4300_digits(tmp_path, capsys):
    # 3^30 unused leaves and, without the warm start's incumbent, room
    # for hundreds more leaves: the remaining-evaluations bound that the
    # trace reports has thousands of digits
    rng = random.Random(11)
    names = [f"f{j}" for j in range(30)] + ["y"]
    rows = [[rng.randint(0, 1) for _ in names] for _ in range(100)]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(names) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    trace = tmp_path / "trace.csv"
    code = main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "1/1000", "--max-trees", "50",
                 "--trace-interval", "10", "--trace", str(trace),
                 "--no-warm-start",
                 "--out", str(tmp_path / "m.json")])
    assert code == 3, capsys.readouterr().err  # uncertified: max_trees
    logs = [int(r["log10_remaining_bound"])
            for r in csv.DictReader(trace.open())]
    assert max(logs) > 4300


def test_fit_reads_csv_with_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + "y,a,b\n1,0,1\n0,1,0\n1,0,1\n".encode())
    out = tmp_path / "m.json"
    code = main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "0.01", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    features = {c["feature"] for leaf in json.loads(out.read_text())["leaves"]
                for c in leaf["clauses"]}
    assert features <= {"a", "b"}


@pytest.mark.parametrize("model", [
    {"objective": "1/50"},                                   # no leaves
    [{"clauses": [], "prediction": 1}],                      # top-level list
    {"leaves": [{"clauses": [{"feature": "a"}], "prediction": 1}]},
], ids=["missing-leaves", "top-level-list", "clause-without-value"])
def test_predict_malformed_model_is_format_error(tmp_path, toy_csv, capsys,
                                                 model):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    code = main(["predict", "--model", str(path), "--data", str(toy_csv),
                 "--label", "y"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: model") and err.count("\n") == 1


def test_warm_start_has_only_the_off_switch(tmp_path, toy_csv):
    code, _ = _fit(tmp_path, toy_csv, "--no-warm-start")
    assert code == 0
    code, _ = _fit(tmp_path, toy_csv, "--warm-start")
    assert code == 1


def _random_partition(rng, features, clauses=()):
    """Leaves of a random tree over the features: they partition the data."""
    used = {c["feature"] for c in clauses}
    free = [f for f in features if f not in used]
    if not free or rng.random() < 0.3:
        return [{"clauses": list(clauses), "prediction": rng.randint(0, 1)}]
    f = rng.choice(free)
    return [leaf for v in (0, 1)
            for leaf in _random_partition(
                rng, features, clauses + ({"feature": f, "value": v},))]


def _per_row_predict(leaves, header, rows):
    """(first sample not matched exactly once, its match count) or the
    mistake count, recounted one row at a time."""
    mistakes = 0
    for i, row in enumerate(rows):
        cells = dict(zip(header, row))
        matched = [leaf for leaf in leaves
                   if all(cells[c["feature"]] == c["value"]
                          for c in leaf["clauses"])]
        if len(matched) != 1:
            return (i, len(matched))
        mistakes += matched[0]["prediction"] != cells["y"]
    return mistakes


@pytest.mark.parametrize("seed", range(6))
def test_predict_matches_per_row_recount(tmp_path, capsys, seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    features = [f"f{j}" for j in range(m)]
    header = features + ["y"]
    rows = [[rng.randint(0, 1) for _ in header]
            for _ in range(rng.randint(1, 120))]
    data = tmp_path / "data.csv"
    data.write_text(",".join(header) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    leaves = _random_partition(rng, features)
    broken = []
    if len(leaves) > 1:
        broken.append(leaves[1:])  # a leaf removed
    broken.append(leaves + [rng.choice(leaves)])  # two overlapping leaves
    broken.append(leaves + [{"clauses": [], "prediction": 0}])
    for model_leaves in [leaves] + broken:
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"leaves": model_leaves}))
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--label", "y"])
        out, err = capsys.readouterr()
        expected = _per_row_predict(model_leaves, header, rows)
        if isinstance(expected, tuple):
            sample, matched = expected
            assert code == 2
            assert err.startswith(f"internal error: sample {sample} "
                                  f"matched {matched} leaves;")
        else:
            assert code == 0, err
            assert f"mistakes: {expected}\n" in out
            assert f"samples: {len(rows)}\n" in out
    assert code == 2  # the last model always overlaps
