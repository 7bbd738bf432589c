"""Certifiably optimal sparse decision trees over binary features."""

from .bounds import BoundToggles, count_trees, symmetry_savings
from .dataset import DataFormatError, Dataset, build_equivalence_index, \
    load_csv
from .greedy import GreedyParams, greedy_fit
from .oracle import OracleResult, exhaustive_optimum
from .scheduler import Policy
from .search import SearchConfig, SearchResult, fit
from .tree import Clause, Leaf, TreeState

__all__ = [
    "BoundToggles", "Clause", "DataFormatError", "Dataset", "GreedyParams",
    "Leaf", "OracleResult", "Policy", "SearchConfig", "SearchResult",
    "TreeState", "build_equivalence_index", "count_trees",
    "exhaustive_optimum", "fit", "greedy_fit", "load_csv",
    "symmetry_savings",
]

__version__ = "0.1.0"
