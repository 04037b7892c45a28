"""wildrows: compact wildcard-row enumeration of implication models, order
ideals and subtrees, plus Whitney numbers of the associated ideal lattices
by two independent methods."""

from types import ModuleType as _ModuleType

from .abrows import ab_enumerate, ab_impose, cardinality_poly, rows_poly, whitney
from .closure import Closer, close, is_model
from .core import (
    Bundle,
    GuardError,
    Implication,
    ImplicationFamily,
    InputError,
    Poset,
    RankPolynomial,
    Row012,
    RowAB,
    Tree,
    parse_row,
    render_row,
    row012_count,
    row012_list_k,
    row012_members,
    rowab_count,
    rowab_members,
)
from .engine import (
    EngineStats,
    FeasibilityOracle,
    FinalStack,
    brute_oracle,
    candidate_sons,
    enumerate_k_models,
    enumerate_models,
)
from .ideals import enumerate_k_ideals, ideal_oracle, natural_base
from .rankpoly import pick_pivot, rank_poly_recursive
from .subtrees import enumerate_k_subtrees, steiner_closure, subtree_oracle, tree_base

__version__ = "0.1.0"

# bench (instance generators, brute-force references and the method
# harness) serves only the gen and bench subcommands, so it is imported on
# first use of one of its names (PEP 562) and query calls do not load it
_BENCH_NAMES = frozenset("""BenchReport BenchRow LayeredSpec SplitMix64 brute_ideals
    brute_models brute_rank_poly brute_subtrees gen_layered_poset gen_random_tree run_bench
    subtree_count""".split())

__all__ = sorted(_BENCH_NAMES.union(
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)))


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
