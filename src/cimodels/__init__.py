"""Conditional-independence models over small finite variable universes.

Compute separation models of undirected graphs and d-separation models of
DAGs, restrict models to sub-universes, decide whether a model is induced by
some graph or some DAG, check semi-graphoid closure, and evaluate formulas of
a small independency logic against enumerated model families.
"""

from importlib import import_module

from .core import (
    MAX_TRIPLE_ENUM_NODES,
    MAX_UNIVERSE_SIZE,
    IndependencyModel,
    Triple,
    Universe,
    ValuationBudgetError,
    bits_of,
    enumerate_disjoint_triples,
    model_equals,
)
from .dag import MAX_DAG_ENUM_NODES, Dag, enumerate_dags
from .formats import (
    FormatError,
    format_dag,
    format_graph,
    format_model,
    load_dag,
    load_graph,
    load_model,
    parse_dag,
    parse_graph,
    parse_model,
)
from .ugraph import MAX_GRAPH_ENUM_NODES, UndirectedGraph, enumerate_undirected_graphs

# The names of these modules load on first use (PEP 562), so ``import
# cimodels`` runs only the four modules above: a command that evaluates no
# formula never builds the logic's record classes, and one that checks no class
# never loads the recognizers. Each name maps to its module, and each module's
# own name to itself, so ``cimodels.logic`` works after a bare ``import cimodels``.
_LAZY = {
    name: module
    for module, names in {
        "logic": (
            "EMPTY",
            "MAX_FORMULA_DEPTH",
            "MAX_VALUATION_CHECKS",
            "And",
            "Atom",
            "Clause",
            "Complement",
            "Empty",
            "Formula",
            "FormulaSyntaxError",
            "Intersection",
            "Not",
            "Or",
            "Term",
            "Union_",
            "Valuation",
            "Var",
            "atoms_of",
            "check_clause",
            "clause_of_formula",
            "entails",
            "format_formula",
            "format_term",
            "formula_of_clause",
            "formula_variables",
            "implies",
            "is_horn",
            "is_valid_valuation",
            "model_satisfies",
            "parse_clause",
            "parse_formula",
        ),
        "represent": (
            "AxiomViolation",
            "RepresentabilityResult",
            "check_semigraphoid",
            "dependent_always",
            "is_causal",
            "is_graph_isomorph",
            "scan_causal_witness",
        ),
        "repro": ("ReproReport", "build_counterexample_dag", "verify_counterexample"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# The names imported above, then every lazy name but the modules themselves.
__all__ = [
    "MAX_UNIVERSE_SIZE",
    "MAX_TRIPLE_ENUM_NODES",
    "MAX_DAG_ENUM_NODES",
    "MAX_GRAPH_ENUM_NODES",
    "Universe",
    "Triple",
    "IndependencyModel",
    "UndirectedGraph",
    "Dag",
    "FormatError",
    "ValuationBudgetError",
    "bits_of",
    "enumerate_disjoint_triples",
    "model_equals",
    "enumerate_dags",
    "enumerate_undirected_graphs",
    "parse_model",
    "parse_graph",
    "parse_dag",
    "format_model",
    "format_graph",
    "format_dag",
    "load_model",
    "load_graph",
    "load_dag",
    *(name for name, module in _LAZY.items() if name != module),
]
