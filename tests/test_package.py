"""The package surface: every exported name, and which modules load when."""

import subprocess
import sys
from pathlib import Path

import pytest

import cimodels
from cimodels import core, dag, formats, logic, represent, repro, ugraph

# Where each name in ``__all__`` is defined.
HOMES = {
    core: """MAX_UNIVERSE_SIZE MAX_TRIPLE_ENUM_NODES Universe Triple IndependencyModel
        ValuationBudgetError bits_of enumerate_disjoint_triples model_equals""",
    dag: "MAX_DAG_ENUM_NODES Dag enumerate_dags",
    ugraph: "MAX_GRAPH_ENUM_NODES UndirectedGraph enumerate_undirected_graphs",
    formats: """FormatError parse_model parse_graph parse_dag format_model format_graph
        format_dag load_model load_graph load_dag""",
    logic: """MAX_VALUATION_CHECKS MAX_FORMULA_DEPTH Atom Clause Formula Term Var Empty
        EMPTY Complement Union_ Intersection Not And Or implies atoms_of formula_variables
        Valuation FormulaSyntaxError parse_formula parse_clause format_formula format_term
        is_valid_valuation model_satisfies check_clause is_horn entails
        clause_of_formula formula_of_clause""",
    represent: """RepresentabilityResult AxiomViolation
        dependent_always is_graph_isomorph is_causal scan_causal_witness check_semigraphoid""",
    repro: "ReproReport build_counterexample_dag verify_counterexample",
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names.split()}
LAZY = ("cimodels.logic", "cimodels.represent", "cimodels.repro")


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh isolated interpreter with ``src`` first on its path."""
    src = str(Path(cimodels.__file__).resolve().parents[1])
    code = f"import sys\nsys.path.insert(0, {src!r})\n{code}"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_is_every_name_with_a_home():
    assert sorted(cimodels.__all__) == sorted(HOME_OF)
    assert len(cimodels.__all__) == len(set(cimodels.__all__))


@pytest.mark.parametrize("name", cimodels.__all__)
def test_each_name_is_the_object_of_its_module(name):
    assert getattr(cimodels, name) is getattr(HOME_OF[name], name)


@pytest.mark.parametrize("name", [n for n in cimodels.__all__ if HOME_OF[n].__name__ in LAZY])
def test_the_lazy_hook_returns_the_object_of_its_module(name):
    # Called directly, since an earlier lookup caches the name past the hook.
    assert cimodels.__getattr__(name) is getattr(HOME_OF[name], name)


def test_dir_lists_every_exported_name():
    assert set(dir(cimodels)) >= set(cimodels.__all__)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from cimodels import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(cimodels.__all__)
    assert all(value is getattr(cimodels, name) for name, value in namespace.items())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'cimodels' has no attribute 'no_such'$"):
        cimodels.no_such  # noqa: B018
    assert not hasattr(cimodels, "no_such")


def test_budget_error_is_one_class():
    assert core.ValuationBudgetError is logic.ValuationBudgetError is cimodels.ValuationBudgetError


def test_import_loads_neither_logic_nor_recognizers():
    out = run_fresh(
        "import cimodels\n"
        f"print(*[m for m in {LAZY!r} + ('json',) if m in sys.modules])\n"
        "print(cimodels.is_causal.__module__, 'cimodels.repro' in sys.modules)\n"
        "print(cimodels.logic.__name__, cimodels.repro.__name__)\n"
    )
    assert out == "\ncimodels.represent False\ncimodels.logic cimodels.repro\n"


def test_star_import_in_a_fresh_interpreter():
    out = run_fresh(
        "from cimodels import *\n"
        "import cimodels\n"
        "print(all(name in globals() for name in cimodels.__all__))\n"
    )
    assert out == "True\n"


@pytest.mark.parametrize(
    ("call", "args", "message"),
    [
        (cimodels.parse_model, (None,), "text must be str, not NoneType"),
        (cimodels.parse_model, (b"vars: a b",), "text must be str, not bytes"),
        (cimodels.parse_graph, (None,), "text must be str, not NoneType"),
        (cimodels.parse_dag, (5,), "text must be str, not int"),
        (
            cimodels.IndependencyModel,
            (cimodels.Universe(("a", "b", "c")), [(1, 0, 2)]),
            "triples must be Triple, not tuple",
        ),
    ],
)
def test_wrong_type_arguments_raise_type_error(call, args, message):
    # A TypeError that names the type, not an AttributeError from deep inside.
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(*args)
