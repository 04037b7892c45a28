"""wildrows: compact wildcard-row enumeration of implication models, order
ideals and subtrees, plus Whitney numbers of the associated ideal lattices
by two independent methods.

`import wildrows` loads `wildrows.core` and nothing else.  Every other
public name, and each submodule, is imported from its home module on first
use (PEP 562) and then kept as a plain attribute, so a CLI call compiles
only the modules its subcommand runs.
"""

from importlib import import_module as _import_module

from . import core

__version__ = "0.1.0"

# each home module and the public names it defines
_NAMES_BY_HOME = {
    "abrows": "ab_enumerate ab_impose cardinality_poly rows_poly whitney",
    "bench": """BenchReport BenchRow LayeredSpec SplitMix64 brute_ideals brute_models
        brute_rank_poly brute_subtrees gen_layered_poset gen_random_tree run_bench
        subtree_count""",
    "closure": "Closer close is_model",
    "core": """Bundle GuardError Implication ImplicationFamily InputError Poset
        RankPolynomial Row012 RowAB Tree parse_row render_row row012_count
        row012_members rowab_count rowab_members""",
    "engine": """EngineStats FeasibilityOracle FinalStack brute_oracle candidate_sons
        enumerate_k_models enumerate_models""",
    "ideals": "enumerate_k_ideals ideal_oracle natural_base",
    "rankpoly": "pick_pivot rank_poly_recursive",
    "subtrees": "enumerate_k_subtrees steiner_closure subtree_oracle tree_base",
}

# the one name table: every public name and every submodule, to its home
_HOME = {name: home for home, names in _NAMES_BY_HOME.items() for name in names.split()}
_HOME.update((home, home) for home in _NAMES_BY_HOME)

__all__ = sorted(name for name in _HOME if name not in _NAMES_BY_HOME)

# core comes with the package, since every subcommand and every public value
# type needs it, so its names are bound now rather than on first use
globals().update((name, getattr(core, name)) for name in _NAMES_BY_HOME["core"].split())


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
