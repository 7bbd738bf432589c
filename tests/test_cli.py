import csv
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import opttree
import opttree.search
from opttree import cli, oracle
from opttree.cli import main
from opttree.dataset import build_equivalence_index
from opttree.search import SearchConfig, _Run
from tests.conftest import csv_text, random_dataset

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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter prints ints of any length")
def test_fit_writes_nothing_when_its_model_cannot_be_built(tmp_path, toy_csv,
                                                           capsys):
    # the fit runs, but an objective over 10^5000 has a denominator too
    # long to print: one error line, and neither output file is made
    model, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    code = main(["fit", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "1e-5000", "--out", str(model),
                 "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not model.exists() and not trace.exists()


def test_fit_removes_its_model_when_the_trace_cannot_be_written(
        tmp_path, toy_csv, capsys):
    # the model is written first; a trace path in a missing directory
    # fails after it, and the model goes too
    model = tmp_path / "model.json"
    code = main(["fit", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "1/100", "--out", str(model),
                 "--trace", str(tmp_path / "missing" / "trace.csv")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [toy_csv]


@pytest.mark.parametrize("trace", ["m.json", "./m.json", "sub/../m.json",
                                   "{tmp}/m.json"])
def test_fit_refuses_one_file_for_model_and_trace(tmp_path, toy_csv, capsys,
                                                  monkeypatch, trace):
    # the trace would overwrite the model; the two paths are compared as
    # the files they resolve to, before the data is read
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)

    def unreachable(*args):
        raise AssertionError("read or fitted before the paths were checked")
    monkeypatch.setattr(cli, "_load", unreachable)
    monkeypatch.setattr(cli, "fit", unreachable)
    code = main(["fit", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01", "--out", "m.json",
                 "--trace", trace.format(tmp=tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: --out and --trace name the same file\n"
    assert not (tmp_path / "m.json").exists()


def test_fit_rejects_a_label_column_named_twice(tmp_path, capsys):
    data = tmp_path / "twice.csv"
    data.write_text("y,a,y\n0,1,1\n1,0,0\n")
    code = main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "0.01", "--out", str(tmp_path / "m.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: label column 'y' appears more than once in header\n"
    assert not (tmp_path / "m.json").exists()


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
    capsys.readouterr()
    code = main(["predict", "--model", str(broken), "--data", str(toy_csv),
                 "--label", "y"])
    assert code == 2
    # the a=1 leaf is gone, so TOY's sample 1 is the first one uncovered
    assert capsys.readouterr().err == (
        "internal error: sample 1 matched 0 leaves; model leaves do not "
        "partition the data\n")


@pytest.mark.parametrize("picks, sample, matched", [
    # TOY's two leaves are a=0 (samples 0, 2, 4) and a=1 (1, 3, 5)
    ([1], 0, 0),        # a=0 dropped: sample 0 is uncovered
    ([0, 1, 1], 1, 2),  # a=1 twice: sample 1 is matched twice
    # both faults: the lower sample is named, whichever fault it has
    ([1, 1], 0, 0),
    ([0, 0], 0, 2),
])
def test_predict_names_the_first_sample_off_the_partition(
        tmp_path, toy_csv, capsys, picks, sample, matched):
    _, out = _fit(tmp_path, toy_csv)
    model = json.loads(out.read_text())
    assert [leaf["clauses"] for leaf in model["leaves"]] == [
        [{"feature": "a", "value": 0}], [{"feature": "a", "value": 1}]]
    model["leaves"] = [model["leaves"][i] for i in picks]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["predict", "--model", str(broken), "--data", str(toy_csv),
                 "--label", "y"]) == 2
    assert capsys.readouterr() == (
        "", f"internal error: sample {sample} matched {matched} leaves; "
            "model leaves do not partition the data\n")


def test_predict_reads_lf_and_crlf_files_alike(tmp_path, toy_csv, capsys):
    _, model = _fit(tmp_path, toy_csv)
    rng = random.Random(3)
    rows = "".join(f"{rng.randint(0, 1)},{rng.randint(0, 1)},"
                   f"{rng.randint(0, 1)}\n" for _ in range(5000))
    lf = tmp_path / "lf.csv"
    crlf = tmp_path / "crlf.csv"
    lf.write_bytes(("a,b,y\n" + rows).encode())
    crlf.write_bytes(("a,b,y\n" + rows).replace("\n", "\r\n").encode())
    capsys.readouterr()
    outputs = []
    for data in (lf, crlf):
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--label", "y"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "samples: 5000\n" in outputs[0]


def test_predict_reports_a_bad_cell_deep_in_a_strict_file(tmp_path, toy_csv,
                                                          capsys):
    _, model = _fit(tmp_path, toy_csv)
    rows = [f"{i % 2},{(i // 2) % 2},{(i // 3) % 2}" for i in range(5000)]
    rows[2999] = rows[2999][:2] + "x" + rows[2999][3:]
    data = tmp_path / "data.csv"
    data.write_text("a,b,y\n" + "\n".join(rows) + "\n")
    capsys.readouterr()
    code = main(["predict", "--model", str(model), "--data", str(data),
                 "--label", "y"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: row 3000, column 'b': non-binary cell 'x'\n"


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("text, where", [
    ("a,b,y\n0,1,1\n" + "0" * 200_000 + ",0,0\n", "row 2"),
    ("a" * 200_000 + ",b,y\n0,1,1\n", "header row"),
], ids=["body-cell", "header-cell"])
def test_oversized_csv_cell_is_format_error(tmp_path, toy_csv, capsys,
                                            command, text, where):
    _, model = _fit(tmp_path, toy_csv)
    data = tmp_path / "huge-cell.csv"
    data.write_text(text)
    args = {"fit": ["--lambda", "0.01", "--out", str(tmp_path / "m.json")],
            "predict": ["--model", str(model)]}[command]
    capsys.readouterr()
    code = main([command, "--data", str(data), "--label", "y", *args])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (f"error: {where}: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


def test_predict_deeply_nested_model_is_format_error(tmp_path, toy_csv,
                                                     capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["predict", "--model", str(path), "--data", str(toy_csv),
                 "--label", "y"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: model JSON is nested too deeply\n"


def test_bare_fit_and_ablate_parse_to_the_default_config():
    # each option's default is SearchConfig's own, not a copy of it
    for command, out in (("fit", ["--out", "m.json"]), ("ablate", [])):
        args = cli.build_parser().parse_args(
            [command, "--data", "d.csv", "--label", "y", "--lambda", "1/30",
             *out])
        assert cli._config_from_args(args) \
            == SearchConfig(lam=Fraction(1, 30)), command


def test_only_a_fit_that_writes_a_trace_records_periodically(
        tmp_path, toy_csv, monkeypatch):
    # a bare fit makes the final record only; --trace adds one every 1000
    # trees unless --trace-interval says otherwise
    intervals = []

    def recording_fit(ds, config):
        intervals.append(config.trace_interval)
        return opttree.fit(ds, config)

    monkeypatch.setattr(cli, "fit", recording_fit)
    base = ["fit", "--data", str(toy_csv), "--label", "y", "--lambda",
            "0.01", "--out", str(tmp_path / "m.json")]
    trace = ["--trace", str(tmp_path / "t.csv")]
    for extra in ([], trace, [*trace, "--trace-interval", "7"],
                  ["--trace-interval", "7"]):
        assert main(base + extra) == 0
    assert intervals == [None, 1000, 7, 7]


def test_repeated_main_calls_behave_like_fresh_ones(tmp_path, capsys):
    # y = b xor c: five trees are too few to certify the 4-leaf optimum
    rows = [f"{i % 2},{i // 2 % 2},{i // 4 % 2},{(i // 2 ^ i // 4) % 2}"
            for i in range(16)]
    data = tmp_path / "xor.csv"
    data.write_text("a,b,c,y\n" + "\n".join(rows) + "\n")
    model = tmp_path / "model.json"
    fit = ["fit", "--data", str(data), "--label", "y", "--lambda", "0.01",
           "--out", str(model)]
    predict = ["predict", "--model", str(model), "--data", str(data),
               "--label", "y"]
    cli.build_parser.cache_clear()
    capsys.readouterr()

    assert main(["fit", "--data", str(data)]) == 1
    usage = capsys.readouterr()
    assert usage.out == ""
    assert usage.err.endswith("error: the following arguments are "
                              "required: --label, --lambda, --out\n")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: opttree")
    assert main([*fit, "--max-trees", "5"]) == 3
    assert "limit: max_trees\n" in capsys.readouterr().out
    # no option value carries over from the call before
    assert main(fit) == 0
    out = capsys.readouterr().out
    assert "certified: true\n" in out and "limit:" not in out
    scores = []
    for _ in range(2):
        assert main(predict) == 0
        scores.append(capsys.readouterr())
    assert scores[0] == scores[1]
    assert scores[0].out == "samples: 16\nmistakes: 0\naccuracy: 1.000000\n"
    assert main(["count", "--features", "10", "--depth", "2"]) == 0
    assert capsys.readouterr().out == "1000\n"
    assert main(["fit", "--data", str(data)]) == 1
    assert capsys.readouterr() == usage
    assert cli.build_parser.cache_info().misses == 1


def test_count(capsys):
    assert main(["count", "--features", "10", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1000"
    assert main(["count", "--features", "20", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "8000"
    assert main(["count", "--features", "10", "--depth", "1"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert main(["count", "--features", "4", "--depth", "4"]) == 0
    assert capsys.readouterr().out.strip() == "238144"


@pytest.mark.parametrize("features, depth", [("-3", "2"), ("3", "-1"),
                                             ("0", "0")])
def test_count_names_the_options_it_rejects(capsys, features, depth):
    assert main(["count", "--features", features, "--depth", depth]) == 1
    assert capsys.readouterr() == (
        "", "error: --features and --depth must be >= 1\n")


def test_count_caps_depth_at_feature_count():
    # a root-to-leaf path uses each feature at most once, so depth 50 over
    # 3 features counts the trees of depth 3; without the cap neither call
    # returns for minutes
    code = ("from opttree.bounds import count_trees\n"
            "assert count_trees(3, 50) == 243\n"
            "from opttree.cli import main\n"
            "raise SystemExit(main(['count', '--features', '3', "
            "'--depth', '50']))\n")
    src = str(Path(opttree.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20, check=False,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "243\n"


def test_count_too_large_to_print_is_an_error():
    # the count has far more than 4300 digits: one error line, exit 1, at
    # once rather than after the whole value is built
    src = str(Path(opttree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "opttree.cli", "count", "--features", "30",
         "--depth", "30"], capture_output=True, text=True, timeout=20,
        check=False, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_oracle_command(tmp_path, toy_csv, capsys):
    code = main(["oracle", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01"])
    assert code == 0
    text = capsys.readouterr().out
    assert "objective: 1/50" in text
    assert "leaves: 2" in text


def test_oracle_past_32_leaves(tmp_path, capsys):
    # two copies of every 6-bit row, labelled by parity: one leaf per row
    rows = list(itertools.product((0, 1), repeat=6)) * 2
    data = tmp_path / "parity.csv"
    data.write_text("f0,f1,f2,f3,f4,f5,y\n" + "".join(
        ",".join(map(str, r + (sum(r) % 2,))) + "\n" for r in rows))
    code = main(["oracle", "--data", str(data), "--label", "y",
                 "--lambda", "0.001"])
    assert code == 0
    text = capsys.readouterr().out
    assert "objective: 8/125" in text
    assert "leaves: 64" in text


def test_oracle_resource_error(tmp_path, toy_csv, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_MEMO_BYTES", 1)
    code = main(["oracle", "--data", str(toy_csv), "--label", "y",
                 "--lambda", "0.01"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a memo of 1 captures of 6 samples would exceed "
                   "1 bytes\n")


def test_oracle_refuses_paths_deeper_than_the_stack(tmp_path):
    # a staircase: row i has feature j set iff j < i, so 1100 features
    # split 1101 distinct rows one at a time, 1100 splits deep
    m = 1100
    data = tmp_path / "stairs.csv"
    data.write_text("\n".join(
        [",".join([f"f{j}" for j in range(m)] + ["y"])]
        + [",".join(["1"] * i + ["0"] * (m - i) + [str(i % 2)])
           for i in range(m + 1)]) + "\n")
    src = str(Path(opttree.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "opttree.cli", "oracle", "--data", str(data),
         "--label", "y", "--lambda", "0.001"], capture_output=True,
        text=True, timeout=20, check=False,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_ablate_table(tmp_path, capsys):
    # each variant's fit builds its own index, and ablate builds none:
    # every call of the index build, by whatever name, is recorded with
    # the function that made it
    build = build_equivalence_index.__code__
    callers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is build:
            callers.append(frame.f_back.f_code)

    data = tmp_path / "noisy.csv"
    data.write_text(NOISY)
    out = tmp_path / "ablate.csv"
    sys.setprofile(profile)
    try:
        code = main(["ablate", "--data", str(data), "--label", "y",
                     "--lambda", "0.05", "--out", str(out)])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert callers == [_Run.__init__.__code__] * 13
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = ["variant", "total_time_s", "time_to_optimum_s",
              "trees_evaluated", "trees_to_optimum", "max_queue_size"]
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == header
    assert len(rows) == 13
    variants = {r["variant"] for r in rows}
    assert "all_bounds" in variants
    assert "no_lookahead" in variants
    assert any(v.startswith("policy_") for v in variants)


def test_ablate_time_limit_covers_each_index_build(tmp_path, capsys,
                                                   monkeypatch):
    # every variant builds its index inside its own fit, so a build slower
    # than the time limit stops every variant at the limit
    real = opttree.search.build_equivalence_index

    def slow_index(ds):
        time.sleep(0.03)
        return real(ds)
    monkeypatch.setattr(opttree.search, "build_equivalence_index",
                        slow_index)
    data = tmp_path / "random.csv"
    data.write_text(csv_text(random_dataset(random.Random(30), 40, 4)))
    out = tmp_path / "ablate.csv"
    code = main(["ablate", "--data", str(data), "--label", "y",
                 "--lambda", "0.05", "--time-limit", "0.01",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    assert all(r["total_time_s"] == r["time_to_optimum_s"] == ">0.01"
               for r in rows)


def test_ablate_does_not_take_a_trace(tmp_path, capsys):
    data = tmp_path / "noisy.csv"
    data.write_text(NOISY)
    trace = tmp_path / "trace.csv"
    code = main(["ablate", "--data", str(data), "--label", "y",
                 "--lambda", "0.05", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: --trace {trace}\n")
    assert not trace.exists()


def test_ablate_rejects_its_options_before_writing(tmp_path, capsys):
    data = tmp_path / "noisy.csv"
    data.write_text(NOISY)
    out = tmp_path / "ablate.csv"
    code = main(["ablate", "--data", str(data), "--label", "y",
                 "--lambda", "0.05", "--max-trees", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", "error: max_trees must be >= 0\n")
    assert not out.exists()


def test_ablate_marks_only_time_limit_stops(tmp_path, capsys):
    # 30 features and a small lam: no variant certifies within 50 trees.
    # A variant the tree budget stopped did not run out of time, so its
    # times are censored, not "> the time limit"
    rng = random.Random(11)
    names = [f"f{j}" for j in range(30)] + ["y"]
    rows = [[rng.randint(0, 1) for _ in names] for _ in range(100)]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(names) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    for limits, mark in ((["--time-limit", "100", "--max-trees", "50"],
                          "censored"),
                         (["--time-limit", "0"], ">0.0")):
        out = tmp_path / "ablate.csv"
        assert main(["ablate", "--data", str(data), "--label", "y",
                     "--lambda", "1/1000", "--out", str(out),
                     *limits]) == 0
        with open(out, newline="") as fh:
            rows_out = list(csv.DictReader(fh))
        assert len(rows_out) == 13
        for row in rows_out:
            assert row["total_time_s"] == row["time_to_optimum_s"] == mark


def test_determinism_byte_identical_models(tmp_path, toy_csv):
    _, out1 = _fit(tmp_path, toy_csv)
    first = out1.read_bytes()
    _, out2 = _fit(tmp_path, toy_csv)
    assert out2.read_bytes() == first


def test_unknown_subcommand_exit_code():
    assert main(["frobnicate"]) == 1


def test_fit_with_a_remaining_bound_beyond_4300_digits(tmp_path, capsys):
    # 3^30 unused leaves and, under the root's incumbent and with 400
    # distinct rows, room for hundreds more leaves: the
    # remaining-evaluations bound that the trace reports has thousands of
    # digits
    rng = random.Random(11)
    names = [f"f{j}" for j in range(30)] + ["y"]
    rows = [[rng.randint(0, 1) for _ in names] for _ in range(400)]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(names) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    trace = tmp_path / "trace.csv"
    code = main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "1/1000", "--max-trees", "50",
                 "--trace-interval", "10", "--trace", str(trace),
                 "--out", str(tmp_path / "m.json")])
    assert code == 3, capsys.readouterr().err  # uncertified: max_trees
    with trace.open() as fh:
        logs = [int(r["log10_remaining_bound"]) for r in csv.DictReader(fh)]
    assert max(logs) > 4300


def test_a_tiny_lambda_keeps_the_final_record_within_the_limits(tmp_path,
                                                               capsys):
    # at lam = 1/100000 each queued tree could afford thousands of leaves,
    # but no tree has more leaves than the data has distinct rows, so the
    # final record's remaining-evaluations sum stays small
    rng = random.Random(1)
    names = [f"f{j}" for j in range(10)] + ["y"]
    rows = [[rng.randint(0, 1) for _ in names] for _ in range(200)]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(names) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    start = time.perf_counter()
    code = main(["fit", "--data", str(data), "--label", "y",
                 "--lambda", "1/100000", "--max-trees", "50",
                 "--time-limit", "1", "--out", str(tmp_path / "m.json")])
    assert time.perf_counter() - start < 1
    assert code == 3, capsys.readouterr().err


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


@pytest.mark.parametrize("extra, message", [
    # the search starts from the root alone: there is no warm start to
    # switch on or off
    (["--warm-start"], "unrecognized arguments: --warm-start"),
    (["--no-warm-start"], "unrecognized arguments: --no-warm-start"),
    # NaN would compare false against the clock and never stop the fit
    (["--time-limit", "nan"], "time_limit must be >= 0 seconds"),
    (["--time-limit", "-1"], "time_limit must be >= 0 seconds"),
    (["--max-trees", "-1"], "max_trees must be >= 0"),
], ids=["warm-start", "no-warm-start", "time-limit-nan",
        "negative-time-limit", "negative-max-trees"])
def test_fit_rejects_bad_options(tmp_path, toy_csv, capsys, extra, message):
    code, out = _fit(tmp_path, toy_csv, *extra)
    err = capsys.readouterr().err
    assert code == 1
    assert not out.exists()
    # the message is one line (after argparse's usage line, if any)
    assert err.endswith(f"error: {message}\n")
    assert "Traceback" not in err


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
