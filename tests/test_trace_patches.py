"""The benchmark's span tracer patches names of the library by hand.

``perfbench/tracing.py`` replaces functions and methods of opttree's
modules and classes with timing wrappers, and puts them back when its
``Tracer().patched()`` block ends.  A refactor that renames or removes
one of those names, or changes how the search calls it, breaks the
benchmark's traced pass; this test makes it fail here too.
"""

import importlib.util
import inspect
import random
import sys
from fractions import Fraction
from pathlib import Path

import opttree.cli  # noqa: F401  imported so that its names are watched
from opttree.search import SearchConfig, fit
from tests.conftest import random_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every opttree module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "opttree" or name.startswith("opttree.")]
    classes = [c for m in modules for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    return modules + classes


def _snapshot():
    return {owner: dict(vars(owner)) for owner in _owners()}


def _changed(before):
    """The (owner, name) pairs bound to another object than in
    ``before``, or to none."""
    missing = object()
    return {(owner, attr) for owner, attrs in before.items()
            for attr in attrs.keys() | vars(owner).keys()
            if attrs.get(attr, missing) is not vars(owner).get(attr)}


def test_patched_names_exist_and_are_restored():
    tracing = _load_tracing()
    before = _snapshot()
    ds = random_dataset(random.Random(2), 40, 4)
    config = SearchConfig(lam=Fraction(1, 40))
    plain = fit(ds, config)
    tracer = tracing.Tracer()
    with tracer.patched():
        patched = _changed(before)
        # a traced fit goes through the wrappers with the calls the search
        # makes, and gives the untraced result
        traced = tracer.root("search.fit", fit)(ds, config)
    assert {attr for _, attr in patched} >= {
        "root_tree", "load_csv", "seen_or_mark", "garbage_collect", "pop",
        "min_lower_bound"}
    assert (traced.objective, traced.stats.trees_evaluated) \
        == (plain.objective, plain.stats.trees_evaluated)
    assert _changed(before) == set()
