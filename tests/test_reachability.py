"""Every public function of the bound, tree, search, scheduler, cache,
dataset and command-line modules is run by the program itself (a library
fit, and ``opttree fit``, ``predict``, ``oracle``, ``ablate`` and
``count`` from the command line), so tests cannot come to check a copy of
the arithmetic instead of the code that prunes, and code that only tests
call must be declared here.

A memo belongs on a private function: a cached public function's body
runs only on its first call in a process, so whether it is reached would
depend on the tests run before."""

import inspect
import random
import sys
from fractions import Fraction

import opttree.bounds
import opttree.caches
import opttree.cli
import opttree.dataset
import opttree.scheduler
import opttree.search
import opttree.tree
from opttree.cli import main
from opttree.search import SearchConfig, fit
from tests.conftest import csv_text, random_dataset

# name -> why nothing in `fit` or the `opttree` commands runs it
NOT_RUN = {
    "opttree.tree.objective":
        "from-scratch reference used by tests and the benchmark",
    "opttree.tree.TreeState.check_partition":
        "from-scratch reference used by tests and the benchmark",
    "opttree.bounds.symmetry_savings": "paper counting result",
    "opttree.bounds.total_evaluations_bound_log10": "paper counting result",
    "opttree.bounds.max_leaves_apriori":
        "paper counting result, reached only through "
        "total_evaluations_bound_log10",
    "opttree.scheduler.SearchQueue.trees":
        "the queued entries, read by tests and the benchmark's tracer",
    "opttree.scheduler.SearchQueue.min_lower_bound":
        "patched by perfbench/tracing.py until the benchmark PR "
        "(ROADMAP item 2)",
    "opttree.dataset.from_rows": "builds a dataset in memory for tests",
    "opttree.dataset.Dataset.label_one_count":
        "read by tests and the benchmark's dataset check",
}


def _public_functions(module):
    """(qualified name, code object) of each public function, method and
    property defined in the module."""
    def code_of(obj):
        if isinstance(obj, property):
            obj = obj.fget
        obj = inspect.unwrap(obj)
        return obj.__code__ if inspect.isfunction(obj) else None

    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                code = None if attr.startswith("_") else code_of(member)
                if code is not None:
                    yield f"{module.__name__}.{name}.{attr}", code
        else:
            code = code_of(obj)
            if code is not None:
                yield f"{module.__name__}.{name}", code


def test_public_bound_and_tree_functions_are_reached(capsys, tmp_path):
    # a memo hit skips the body: the parser is built once per process
    opttree.cli.build_parser.cache_clear()
    rng = random.Random(1)
    ds = random_dataset(rng, 30, 4, duplicate_bias=0.3)
    data = tmp_path / "data.csv"
    data.write_text(csv_text(ds), encoding="utf-8")
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        fit(ds, SearchConfig(lam=Fraction(1, 30), trace_interval=5))
        # a fit stopped with work left reports a gap from a lower bound
        stopped = fit(ds, SearchConfig(lam=Fraction(1, 30), max_trees=20))
        assert main(["count", "--features", "3", "--depth", "2"]) == 0
        # the model JSON lists the best tree's leaves
        model = tmp_path / "model.json"
        common = ["--data", str(data), "--label", "y"]
        assert main(["fit", *common, "--lambda", "1/30",
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), *common]) == 0
        assert main(["oracle", *common, "--lambda", "1/30"]) == 0
        assert main(["ablate", *common, "--lambda", "1/30",
                     "--out", str(tmp_path / "ablate.csv")]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert not stopped.certified and stopped.gap > 0

    functions = {}
    for module in (opttree.bounds, opttree.tree, opttree.search,
                   opttree.scheduler, opttree.caches, opttree.dataset,
                   opttree.cli):
        functions.update(_public_functions(module))
    assert set(NOT_RUN) <= set(functions), "stale allowlist entry"
    unreached = sorted(name for name, code in functions.items()
                       if code not in reached and name not in NOT_RUN)
    assert unreached == []
