"""Formula parsing, printing, evaluation, clauses, and entailment."""

import gc
import random
import re

import pytest

from cimodels.core import (
    IndependencyModel,
    Triple,
    Universe,
    enumerate_disjoint_triples,
)
from cimodels.dag import MAX_DAG_ENUM_NODES, Dag, acyclic_arc_masks, enumerate_dags
from cimodels.logic import (
    EMPTY,
    MAX_FORMULA_DEPTH,
    MAX_VALUATION_CHECKS,
    And,
    Atom,
    Clause,
    Complement,
    FormulaSyntaxError,
    Intersection,
    Not,
    Or,
    Union_,
    Valuation,
    ValuationBudgetError,
    Var,
    atoms_of,
    check_clause,
    clause_of_formula,
    entails,
    format_formula,
    format_term,
    formula_of_clause,
    formula_variables,
    implies,
    is_horn,
    is_valid_valuation,
    model_satisfies,
    parse_clause,
    parse_formula,
)
from cimodels.logic import _check_depth, _fmt, _value
from cimodels.ugraph import MAX_GRAPH_ENUM_NODES, UndirectedGraph, enumerate_undirected_graphs

from oracles import (
    check_clause_bruteforce,
    entails_by_paths,
    model_satisfies_bruteforce,
    random_atom,
    random_clause,
    random_formula,
    random_model,
    random_term,
    swapped,
    universe_of_size,
)

SYMMETRY = "I(X1, X2, X3) -> I(X3, X2, X1)"

# Past the valuation budget by two doublings: three variables over eight labels
# are (2**8)**3 = MAX_VALUATION_CHECKS valuations, times the rule's four nodes.
OVER_BUDGET = "67108864 valuation-node checks exceed the budget of 16777216"


def full_model(n):
    """Every disjoint triple on ``n`` labels: the edgeless graph separates them all."""
    return UndirectedGraph(universe_of_size(n), frozenset()).separation_model()


def singleton_model():
    u = Universe(("a", "b", "c"))
    return IndependencyModel(u, frozenset({Triple(0b001, 0, 0b010)}))


class TestParser:
    def test_implication_desugars(self):
        f = parse_formula(SYMMETRY)
        assert isinstance(f, Or)
        assert isinstance(f.left, Not)
        assert isinstance(f.left.operand, Atom)
        assert isinstance(f.right, Atom)

    def test_term_operators(self):
        f = parse_formula("I(X1 + X2, empty, ~X3)")
        assert f == Atom(Union_(Var("X1"), Var("X2")), EMPTY, Complement(Var("X3")))

    def test_intersection_binds_tighter_than_union(self):
        f = parse_formula("I(X1 + X2 * X3, empty, empty)")
        assert f.t1 == Union_(Var("X1"), Intersection(Var("X2"), Var("X3")))

    def test_complement_binds_tightest(self):
        f = parse_formula("I(~X1 * X2, empty, empty)")
        assert f.t1 == Intersection(Complement(Var("X1")), Var("X2"))

    def test_arrow_right_associative(self):
        f = parse_formula("I(a,b,c) -> I(b,c,a) -> I(c,a,b)")
        inner = implies(parse_formula("I(b,c,a)"), parse_formula("I(c,a,b)"))
        assert f == implies(parse_formula("I(a,b,c)"), inner)

    def test_and_binds_tighter_than_or(self):
        f = parse_formula("I(a,b,c) | I(b,c,a) & I(c,a,b)")
        assert isinstance(f, Or)
        assert isinstance(f.right, And)

    def test_truncated_input_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("I(X1,")
        assert err.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("I(X1, X2, X3) )")

    def test_unknown_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("I(X1 ; X2, X3)")

    def test_bare_identifier_is_not_a_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("X1")

    def test_empty_keyword_not_a_formula(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("empty")

    def test_missing_comma_between_terms(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("I(X1 X2, X3)")
        assert str(err.value) == "expected ',', found 'X2' (at offset 6)"
        assert err.value.position == 6


ATOM = "I(X1, X2, X3)"

NESTED_SHAPES = {
    "parentheses": lambda k: "(" * k + ATOM + ")" * k,
    "negations": lambda k: "!" * k + ATOM,
    "complements": lambda k: "I(" + "~" * k + "X1, X2, X3)",
    "term parentheses": lambda k: "I(" + "(" * k + "X1" + ")" * k + ", X2, X3)",
    "conjunctions": lambda k: " & ".join([ATOM] * (k + 1)),
    "arrows": lambda k: " -> ".join([ATOM] * (k + 1)),
    "unions": lambda k: "I(" + " + ".join(["X1"] * (k + 1)) + ", X2, X3)",
}


class TestDepthGate:
    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_at_the_gate(self, shape):
        f = parse_formula(NESTED_SHAPES[shape](MAX_FORMULA_DEPTH))
        assert parse_formula(format_formula(f)) == f
        assert len(atoms_of(f)) == 1
        m = singleton_model()
        assert model_satisfies(m, f) == model_satisfies_bruteforce(m, f)

    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_one_past_the_gate(self, shape):
        text = NESTED_SHAPES[shape](MAX_FORMULA_DEPTH + 1)
        with pytest.raises(FormulaSyntaxError, match="nested deeper than") as err:
            parse_formula(text)
        assert text[err.value.position - 1] in "(!~&-+"

    @pytest.mark.parametrize("shape", ["parentheses", "negations", "complements"])
    def test_far_past_the_gate(self, shape):
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula(NESTED_SHAPES[shape](5000))

    def test_depths_add_along_a_path(self):
        half = MAX_FORMULA_DEPTH // 2
        rest = MAX_FORMULA_DEPTH - half
        chain = " & ".join([ATOM] * (rest + 1))
        parse_formula("(" * half + chain + ")" * half)
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula("(" * (half + 1) + chain + ")" * (half + 1))
        deep_atom = "I(" + "~" * rest + "X1, X2, X3)"
        parse_formula(" & ".join([deep_atom] * (half + 1)))
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula(" & ".join([deep_atom] * (half + 2)))


def negations(k):
    f = parse_formula(ATOM)
    for _ in range(k):
        f = Not(f)
    return f


def complements(k):
    t = Var("X1")
    for _ in range(k):
        t = Complement(t)
    return t


def arrows(k):
    atom = parse_formula(ATOM)
    f = atom
    for _ in range(k):
        f = implies(atom, f)
    return f


def right_ors(k):
    """``k`` right-nested ``Or`` nodes over a negated atom: each inner ``Or``
    prints in parentheses, so the text nests ``2k`` levels deep."""
    atom = parse_formula(ATOM)
    f = Not(atom)
    for _ in range(k):
        f = Or(atom, f)
    return f


def depth_gated_calls(formula, term):
    """Every public entry point that recurses over a formula or term built in code."""
    m = singleton_model()
    valuation = Valuation(m.universe, {"X1": 0b001, "X2": 0b010, "X3": 0b100})
    atom = Atom(term, Var("X2"), Var("X3"))
    return {
        "model_satisfies": lambda: model_satisfies(m, formula),
        "model_satisfies term": lambda: model_satisfies(m, atom),
        "model_satisfies term second": lambda: model_satisfies(m, Atom(Var("X2"), term, Var("X3"))),
        "model_satisfies term third": lambda: model_satisfies(m, Atom(Var("X2"), Var("X3"), term)),
        "check_clause": lambda: check_clause(m, Clause((), (atom,))),
        "format_formula": lambda: format_formula(formula),
        "format_formula term": lambda: format_formula(atom),
        "format_term": lambda: format_term(term),
        "atoms_of term": lambda: atoms_of(Not(atom)),
        "formula_variables term": lambda: formula_variables(Not(atom)),
        "is_valid_valuation term": lambda: is_valid_valuation(valuation, Not(atom), m),
        "is_valid_valuation term second": lambda: is_valid_valuation(
            valuation, Atom(Var("X2"), term, Var("X3")), m
        ),
        "is_valid_valuation term third": lambda: is_valid_valuation(
            valuation, Atom(Var("X2"), Var("X3"), term), m
        ),
    }


def random_chain(rng, steps):
    """A formula grown by wrapping a random atom ``steps`` times in a random
    connective, with shallow random terms, so printed depths land near the gate."""
    f = random_atom(rng, ["X1", "X2", "X3"], 2)
    for _ in range(steps):
        other = random_atom(rng, ["X1", "X2", "X3"], 1)
        f = rng.choice([
            lambda: Not(f),
            lambda: And(f, other),
            lambda: And(other, f),
            lambda: Or(f, other),
            lambda: Or(other, f),
            lambda: implies(f, other),
            lambda: implies(other, f),
        ])()
    return f


class TestDepthGateInCode:
    """Formulas and terms built in code meet the parser's depth rule."""

    @pytest.mark.parametrize("call", sorted(depth_gated_calls(None, None)))
    def test_far_past_the_gate(self, call):
        run = depth_gated_calls(negations(3000), complements(3000))[call]
        with pytest.raises(ValueError, match=f"nested deeper than {MAX_FORMULA_DEPTH} levels"):
            run()

    @pytest.mark.parametrize("call", sorted(depth_gated_calls(None, None)))
    def test_one_past_the_gate(self, call):
        past = MAX_FORMULA_DEPTH + 1
        run = depth_gated_calls(negations(past), complements(past))[call]
        with pytest.raises(ValueError, match="nested deeper than"):
            run()

    @pytest.mark.parametrize("build", [negations, arrows])
    def test_at_the_gate(self, build):
        f = build(MAX_FORMULA_DEPTH)
        atom = Atom(complements(MAX_FORMULA_DEPTH), Var("X2"), Var("X3"))
        for results in depth_gated_calls(f, atom.t1).values():
            results()
        m = singleton_model()
        assert model_satisfies(m, f) == model_satisfies_bruteforce(m, f)
        assert model_satisfies(m, atom) == model_satisfies_bruteforce(m, atom)
        # The parser accepts the same formulas at the gate.
        assert parse_formula(format_formula(f)) == f
        assert parse_formula(format_formula(atom)) == atom

    def test_printer_counts_its_parentheses(self):
        at_gate = right_ors(MAX_FORMULA_DEPTH // 2)
        assert parse_formula(format_formula(at_gate)) == at_gate
        past = right_ors(MAX_FORMULA_DEPTH // 2 + 1)
        with pytest.raises(ValueError, match=f"formula nested deeper than {MAX_FORMULA_DEPTH}"):
            format_formula(past)
        # 52 operators deep: the evaluators still take it.
        m = singleton_model()
        assert model_satisfies(m, past) == model_satisfies_bruteforce(m, past)

    def test_printed_text_parses_iff_the_printer_gate_passes(self):
        rng = random.Random(59)
        outcomes = set()
        for _ in range(300):
            f = random_chain(rng, rng.randrange(45, 110))
            try:
                text = format_formula(f)
            except ValueError:
                text = None
            try:
                parsed = parse_formula(_fmt(f, 0))
            except FormulaSyntaxError:
                parsed = None
            assert (text is None) == (parsed is None)
            if parsed is not None:
                assert parsed == f
                # Every parsed formula passes the evaluators' gate.
                _check_depth(parsed)
            outcomes.add(text is None)
        assert outcomes == {True, False}

    def test_parsed_text_deeper_once_printed(self):
        # '!a | b | c' prints as '(a -> b) | c': one level deeper on b's path.
        deep_b = "!" * (MAX_FORMULA_DEPTH - 2) + ATOM
        f = parse_formula(f"!{ATOM} | {deep_b} | {ATOM}")
        m = singleton_model()
        assert model_satisfies(m, f) == model_satisfies_bruteforce(m, f)
        with pytest.raises(ValueError, match="nested deeper than"):
            format_formula(f)

    def test_ungated_calls_take_deep_negations(self):
        m = singleton_model()
        valuation = Valuation(m.universe, {"X1": 0b001, "X2": 0b010, "X3": 0b100})
        deep = negations(3000)
        assert atoms_of(deep) == (parse_formula(ATOM),)
        assert formula_variables(deep) == ("X1", "X2", "X3")
        assert is_valid_valuation(valuation, deep, m)
        assert clause_of_formula(deep) is None
        atom = parse_formula(ATOM)
        ors = conjunction = atom
        for _ in range(3000):
            ors, conjunction = Or(ors, atom), And(conjunction, atom)
        assert clause_of_formula(ors) == Clause((), (atom,) * 3001)
        rule = clause_of_formula(implies(conjunction, atom))
        assert rule == Clause((atom,) * 3001, (atom,))
        assert clause_of_formula(formula_of_clause(rule)) == rule


class TestPrinter:
    def test_sugar_restored(self):
        f = parse_formula(SYMMETRY)
        assert format_formula(f) == SYMMETRY

    def test_print_parse_identity_on_text(self):
        texts = [
            SYMMETRY,
            "I(X1 + X2, empty, ~X3)",
            "!I(a, b, c) & (I(a, b, c) | I(c, b, a))",
            "(I(a, b, c) -> I(c, b, a)) -> I(b, a, c)",
            "I(~(X1 + X2) * X3, empty, X1)",
            "!!I(a, b, c)",
        ]
        for text in texts:
            assert format_formula(parse_formula(text)) == text

    def test_right_nested_or_parenthesized(self):
        a, b, c = (parse_formula(f"I({x}, {x}, {x})") for x in ("a", "b", "c"))
        nested = Or(a, Or(b, c))
        printed = format_formula(nested)
        assert parse_formula(printed) == nested

    def test_roundtrip_random_asts(self):
        rng = random.Random(101)
        names = ["X1", "X2", "X3", "I"]
        for _ in range(300):
            f = random_formula(rng, names, depth=4)
            assert parse_formula(format_formula(f)) == f

    def test_term_roundtrip(self):
        t = Complement(Union_(Var("X1"), Intersection(EMPTY, Var("X2"))))
        assert t == parse_formula(f"I({format_term(t)}, empty, empty)").t1

    @pytest.mark.parametrize("name", ["empty", "1X", "X 1", "", "a|b", "X-1", "_x"])
    def test_name_that_would_not_reparse_rejected(self, name):
        # "empty" would come back as Empty(); the others do not parse at all.
        atom = Atom(Var(name), Var("X"), Var("Y"))
        message = f"^variable name {re.escape(repr(name))} does not print as an identifier$"
        with pytest.raises(ValueError, match=message):
            format_formula(atom)
        with pytest.raises(ValueError, match=message):
            format_term(Union_(Var("X"), Var(name)))
        # The evaluators take any name.
        m = IndependencyModel(Universe(("a", "b")), frozenset({Triple(0b01, 0, 0b10)}))
        assert model_satisfies(m, atom) is False
        assert _check_depth(Var(name)) == {name}

    def test_name_that_is_no_string_rejected(self):
        with pytest.raises(ValueError, match="^variable name 3 does not print as an identifier$"):
            format_term(Var(3))

    @pytest.mark.parametrize("name", ["X", "I", "empty1", "Empty", "x2y", "\u00e9t\u00e9", "X\u00b2"])
    def test_identifier_names_reparse(self, name):
        atom = Atom(Var(name), EMPTY, Var("Y"))
        assert parse_formula(format_formula(atom)) == atom


class TestEvalTerm:
    """Term values (``_value``, which ``is_valid_valuation`` and the engine use) and valuations."""

    def setup_method(self):
        self.u = Universe(("a", "b", "c"))

    def test_complement_of_empty_is_universe(self):
        assert _value(Complement(EMPTY), {}, self.u.full_mask) == self.u.full_mask

    def test_intersection(self):
        values = {"X1": 0b001, "X2": 0b011}
        assert _value(Intersection(Var("X1"), Var("X2")), values, self.u.full_mask) == 0b001

    def test_union(self):
        values = {"X1": 0b001, "X2": 0b100}
        assert _value(Union_(Var("X1"), Var("X2")), values, self.u.full_mask) == 0b101

    def test_complement_of_var(self):
        assert _value(Complement(Var("X1")), {"X1": 0b001}, self.u.full_mask) == 0b110

    def test_unbound_variable(self):
        m = IndependencyModel(self.u, frozenset())
        with pytest.raises(ValueError, match="^unbound variable 'X9'$"):
            is_valid_valuation(Valuation(self.u, {}), Atom(Var("X9"), EMPTY, EMPTY), m)

    def test_valuation_masks_validated(self):
        with pytest.raises(ValueError):
            Valuation(self.u, {"X1": 0b1000})

    def test_assignment_is_read_only(self):
        given = {"X1": 0b001}
        v = Valuation(self.u, given)
        with pytest.raises(TypeError):
            v.assignment["X1"] = 1 << 5
        given["X1"] = 1 << 5  # the valuation keeps its own copy
        assert v.assignment["X1"] == 0b001


class TestValidValuation:
    def test_disjoint_assignment_valid(self):
        m = singleton_model()
        atom = parse_formula("I(X1, X2, X3)")
        v = Valuation(m.universe, {"X1": 0b001, "X2": 0b010, "X3": 0b100})
        assert is_valid_valuation(v, atom, m)

    def test_overlapping_assignment_invalid(self):
        m = singleton_model()
        atom = parse_formula("I(X1, X2, X3)")
        v = Valuation(m.universe, {"X1": 0b001, "X2": 0b001, "X3": 0b100})
        assert not is_valid_valuation(v, atom, m)

    def test_universe_mismatch_rejected(self):
        m = singleton_model()
        v = Valuation(Universe(("x", "y", "z")), {"X1": 0b001})
        with pytest.raises(ValueError) as err:
            is_valid_valuation(v, parse_formula("I(X1, X1, X1)"), m)
        assert str(err.value) == "valuation universe does not match the model universe"

    @pytest.mark.parametrize("clash", range(3))
    def test_clash_in_any_atom_invalidates(self, clash):
        # Only the atom at ``clash`` is invalid: ``~(X2 + X3)`` is X1's set.
        m = singleton_model()
        v = Valuation(m.universe, {"X1": 0b001, "X2": 0b010, "X3": 0b100})
        atoms = [parse_formula(text) for text in ("I(X1, X2, X3)", "I(X2, X3, X1)", "I(X3, empty, X2)")]
        assert all(is_valid_valuation(v, atom, m) for atom in atoms)
        atoms[clash] = parse_formula("I(X1, ~(X2 + X3), X3)")
        assert not is_valid_valuation(v, And(atoms[0], Or(atoms[1], atoms[2])), m)

    def test_validity_monotone_in_subformulas(self):
        rng = random.Random(7)
        m = random_model(rng, universe_of_size(3), p=0.3)
        names = ["X1", "X2"]
        for _ in range(50):
            left = random_formula(rng, names, depth=2)
            right = random_formula(rng, names, depth=2)
            both = And(left, right)
            assignment = {n: rng.randrange(8) for n in names}
            v = Valuation(m.universe, assignment)
            if is_valid_valuation(v, both, m):
                assert is_valid_valuation(v, left, m)
                assert is_valid_valuation(v, right, m)


class TestModelSatisfies:
    def test_mixed_type_names(self):
        # Names sort by type name, then by name: ints before strings.
        atom = Atom(Var(3), Var("X"), Var("Y"))
        assert formula_variables(atom) == (3, "X", "Y")
        m = IndependencyModel(universe_of_size(2), frozenset({Triple(0b01, 0, 0b10)}))
        assert model_satisfies(m, atom) is False
        assert check_clause(m, Clause((), (atom,))) is False
        # Renaming the variables, here to strings alone, keeps every answer.
        u = universe_of_size(2)
        for seed in range(40):
            model = random_model(random.Random(seed), u, p=0.4)
            mixed = random_formula(random.Random(seed), [3, "X", 1], depth=2)
            plain = random_formula(random.Random(seed), ["Z", "X", "W"], depth=2)
            expected = model_satisfies_bruteforce(model, plain)
            assert model_satisfies(model, mixed) == model_satisfies(model, plain) == expected

    def test_symmetry_holds_in_induced_models(self):
        f = parse_formula(SYMMETRY)
        for n in (2, 3):
            u = universe_of_size(n)
            for d in enumerate_dags(u):
                assert model_satisfies(d.dsep_model(), f)

    def test_symmetry_fails_on_asymmetric_model(self):
        u = Universe(("a", "b"))
        m = IndependencyModel(u, frozenset({Triple(0b01, 0, 0b10)}))
        assert not model_satisfies(m, parse_formula(SYMMETRY))

    def test_vacuous_when_no_valid_valuation(self):
        u1 = Universe(("a",))
        m = IndependencyModel(u1, frozenset())
        f = parse_formula("I(~empty, ~empty, X1)")
        assert model_satisfies(m, f)
        assert model_satisfies(m, Not(f))  # still vacuous

    def test_closed_formula(self):
        u = Universe(("a", "b"))
        empty_triple = Triple(0, 0, 0)
        holds = IndependencyModel(u, frozenset({empty_triple}))
        lacks = IndependencyModel(u, frozenset())
        f = parse_formula("I(empty, empty, empty)")
        assert model_satisfies(holds, f)
        assert not model_satisfies(lacks, f)

    def test_budget_at_the_constant(self):
        # One atom over three variables on eight labels costs the budget
        # exactly; one node more, its negation, costs it twice.
        m = full_model(8)
        atom = parse_formula("I(X1, X2, X3)")
        assert (1 << 8) ** 3 == MAX_VALUATION_CHECKS
        assert model_satisfies(m, atom)
        twice = "33554432 valuation-node checks exceed the budget of 16777216"
        with pytest.raises(ValuationBudgetError, match=f"^{twice}$"):
            model_satisfies(m, Not(atom))
        with pytest.raises(ValuationBudgetError, match=f"^{OVER_BUDGET}$"):
            model_satisfies(m, parse_formula(SYMMETRY))

    def test_budget_counts_formula_nodes(self):
        # Every valuation runs one closure per node, so 64 copies of one atom
        # over two variables cost 127 times the atom: refused over nine
        # labels, where the atom alone costs 4**9 checks and answers.
        atom = parse_formula("I(X1 * X2, X1 * ~X2, ~X1 * X2)")
        copies = [atom] * 64
        while len(copies) > 1:
            copies = [And(left, right) for left, right in zip(copies[::2], copies[1::2])]
        empty9 = IndependencyModel(universe_of_size(9), frozenset())
        assert not model_satisfies(empty9, atom)
        over = f"{4**9 * 127} valuation-node checks exceed the budget of 16777216"
        with pytest.raises(ValuationBudgetError, match=f"^{over}$"):
            model_satisfies(empty9, copies[0])
        assert not model_satisfies(IndependencyModel(universe_of_size(8), frozenset()), copies[0])

    def test_conjunction_introduction(self):
        rng = random.Random(53)
        u = universe_of_size(2)
        names = ["X1", "X2"]
        for _ in range(60):
            m = random_model(rng, u, p=0.4)
            left = random_formula(rng, names, depth=2)
            right = random_formula(rng, names, depth=2)
            if model_satisfies(m, left) and model_satisfies(m, right):
                assert model_satisfies(m, And(left, right))

    def test_heredity_sampled(self):
        # Holds for the complement-free fragment: those term values do not
        # depend on the universe, so any valuation over the restricted
        # universe evaluates identically over the original one.
        rng = random.Random(59)
        names = ["X1", "X2"]
        for _ in range(30):
            n = rng.choice((2, 3))
            u = universe_of_size(n)
            m = random_model(rng, u, p=0.4, symmetric=True)
            f = random_formula(rng, names, depth=2, complement_free=True)
            if not model_satisfies(m, f):
                continue
            v_mask = rng.randrange(1, 1 << n)
            assert model_satisfies(m.restrict(v_mask), f)

    def test_heredity_fails_with_complements(self):
        # The known boundary of the property: complement re-anchors to the
        # sub-universe, so a satisfied formula can fail after restriction.
        u = Universe(("a", "b"))
        triples = frozenset(
            t for t in enumerate_disjoint_triples(u) if t != Triple(0, 0, 0b01)
        )
        m = IndependencyModel(u, triples)
        f = parse_formula("I(empty, empty, ~empty)")
        assert model_satisfies(m, f)
        assert not model_satisfies(m.restrict(0b01), f)


class TestClauses:
    def test_parse_clause_shapes(self):
        c = parse_clause("I(X1,X2,X3) & I(X1,X2,X4) -> I(X1,X2,X3+X4)")
        assert len(c.negatives) == 2 and len(c.positives) == 1
        assert is_horn(c)
        pure_neg = parse_clause("!I(X1,X2,X3) | !I(X3,X2,X1)")
        assert len(pure_neg.negatives) == 2 and not pure_neg.positives
        assert is_horn(pure_neg)
        single = parse_clause("I(X1, X2, X3)")
        assert not single.negatives and len(single.positives) == 1
        disjunctive = parse_clause("I(a,b,c) -> I(b,a,c) | I(c,a,b)")
        assert not is_horn(disjunctive)

    def test_non_clause_rejected(self):
        with pytest.raises(ValueError):
            parse_clause("I(a,b,c) & I(c,b,a)")
        assert clause_of_formula(parse_formula("I(a,b,c) & I(c,b,a)")) is None
        nested = parse_formula("!(I(a,b,c) | I(c,b,a))")
        assert clause_of_formula(nested) is None

    def test_clause_needs_a_literal(self):
        with pytest.raises(ValueError):
            Clause((), ())

    def test_roundtrip_through_formula(self):
        rng = random.Random(61)
        names = ["X1", "X2", "X3"]
        for _ in range(100):
            c = random_clause(rng, names)
            assert clause_of_formula(formula_of_clause(c)) == c

    def test_check_clause_weak_union_exhaustive(self):
        c = parse_clause("I(X1, X2, X3 + X4) -> I(X1, X2 + X4, X3)")
        u = universe_of_size(3)
        for d in enumerate_dags(u):
            assert check_clause(d.dsep_model(), c)

    def test_unconditional_single_atom_on_full_model(self):
        u = universe_of_size(2)
        full = Dag(u, frozenset()).dsep_model()
        assert check_clause(full, parse_clause("I(X1, X2, X3)"))

    def test_contraction_fails_on_handcrafted_model(self):
        u = Universe(("a", "b", "c"))
        m = IndependencyModel(
            u,
            frozenset({Triple(0b001, 0b010, 0b100), Triple(0b001, 0, 0b010)}),
        )
        contraction = parse_clause("I(X1, X2 + X3, X4) & I(X1, X2, X3) -> I(X1, X2, X3 + X4)")
        assert not check_clause(m, contraction)

    def test_check_clause_matches_model_satisfies(self):
        rng = random.Random(67)
        names = ["X1", "X2", "X3"]
        for _ in range(60):
            n = rng.choice((2, 3))
            m = random_model(rng, universe_of_size(n), p=0.35)
            c = random_clause(rng, names)
            assert check_clause(m, c) == model_satisfies(m, formula_of_clause(c))

    def test_budget_at_the_constant(self):
        assert check_clause(full_model(8), parse_clause("I(X1, X2, X3)"))

    def test_budget_counts_every_valuation_times_nodes(self):
        # The symmetry rule over eight labels has only 4**8 valid valuations,
        # yet costs all (2**8)**3 valuations times its four nodes. Over seven
        # labels it costs half the budget, and holds in the full model.
        with pytest.raises(ValuationBudgetError, match=f"^{OVER_BUDGET}$"):
            check_clause(full_model(8), parse_clause(SYMMETRY))
        assert check_clause(full_model(7), parse_clause(SYMMETRY))


class TestEngineAgainstOracle:
    """Seeded random formulas and clauses over 1 to 4 labels and 0 to 3
    variables, decided by the library and by the brute-force oracles."""

    def test_formulas_and_clauses(self):
        rng = random.Random(4242)
        outcomes = {(k, kind): set() for k in range(4) for kind in ("formula", "clause")}
        for _ in range(800):
            n = rng.randint(1, 4)
            k = rng.randint(0, 3)
            names = ["X1", "X2", "X3"][:k]
            m = random_model(rng, universe_of_size(n), p=rng.uniform(0.2, 0.7))
            f = random_formula(rng, names, depth=2)
            holds = model_satisfies(m, f)
            assert holds == model_satisfies_bruteforce(m, f), format_formula(f)
            outcomes[k, "formula"].add(holds)
            c = random_clause(rng, names)
            holds = check_clause(m, c)
            assert holds == check_clause_bruteforce(m, c), format_formula(formula_of_clause(c))
            outcomes[k, "clause"].add(holds)
        # Every variable count, zero included, decided both ways.
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_leaves_no_reference_cycles(self):
        # Garbage cycles would keep formulas alive until the cycle collector
        # runs, and an engine that allocates few containers rarely runs it.
        m = random_model(random.Random(4444), universe_of_size(3), p=0.4)
        f = parse_formula("I(X1, X2 + X3, X4) & I(X1, X2, X3) -> I(X1, X2, X3 + X4)")
        gc.collect()
        gc.disable()
        try:
            model_satisfies(m, f)
            check_clause(m, clause_of_formula(f))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_valid_valuation_is_vacuous(self):
        rng = random.Random(4343)
        for _ in range(120):
            n = rng.randint(1, 4)
            names = ["X1", "X2", "X3"][: rng.randint(0, 3)]
            m = random_model(rng, universe_of_size(n), p=rng.uniform(0.0, 1.0))
            # Two terms always overlap, so no valuation is valid.
            t = random_term(rng, names, 2)
            clash = Atom(Union_(t, Complement(t)), Complement(EMPTY), EMPTY)
            f = random_formula(rng, names, depth=2)
            for g in (And(f, clash), Not(And(clash, f)), Or(f, Not(clash))):
                assert model_satisfies(m, g)
                assert model_satisfies_bruteforce(m, g)
            c = Clause((clash,), (random_atom(rng, names, depth=1),))
            assert check_clause(m, c) and check_clause_bruteforce(m, c)


class TestEntails:
    def test_symmetry_entailed_by_causal_family(self):
        u = universe_of_size(3)
        given = Triple(0b001, 0, 0b010)
        assert entails("causal", [given], swapped(given), u)

    def test_unsupported_query_not_entailed(self):
        u = universe_of_size(3)
        assert not entails("causal", [], Triple(0b001, 0, 0b010), u)

    def test_membership_always_entailed(self):
        u = universe_of_size(3)
        t = Triple(0b001, 0b100, 0b010)
        for family in ("causal", "graph-isomorph", "all-models"):
            assert entails(family, [t], t, u)

    def test_strong_union_entailed_by_graph_family_only(self):
        u = universe_of_size(3)
        given = Triple(0b001, 0, 0b010)
        widened = Triple(0b001, 0b100, 0b010)
        assert entails("graph-isomorph", [given], widened, u)
        assert not entails("all-models", [given], widened, u)

    @pytest.mark.parametrize("family", ["causal", "graph-isomorph", "all-models"])
    def test_given_as_a_generator(self, family):
        # The given triples are read twice: once checked, once used.
        u = universe_of_size(3)
        given = [Triple(0b001, 0, 0b010), Triple(0b001, 0b100, 0b010)]
        for query in (swapped(given[0]), given[1]):
            expected = entails(family, given, query, u)
            assert entails(family, (t for t in given), query, u) == expected
            assert expected == (family != "all-models" or query in given)

    def test_agrees_with_path_oracle(self):
        rng = random.Random(61)
        outcomes = set()
        for n in (2, 3, 4):
            u = universe_of_size(n)
            triples = [t for t in enumerate_disjoint_triples(u) if t.a and t.b]
            for _ in range(8):
                given = rng.sample(triples, rng.randrange(3))
                query = rng.choice(triples)
                if given and rng.random() < 0.3:
                    query = swapped(rng.choice(given))
                for family in ("causal", "graph-isomorph"):
                    expected = entails_by_paths(family, given, query, u)
                    assert entails(family, given, query, u) == expected
                    outcomes.add((family, expected))
        assert len(outcomes) == 4

    def test_unknown_family(self):
        u = universe_of_size(2)
        with pytest.raises(ValueError):
            entails("markov", [], Triple(0b01, 0, 0b10), u)

    @pytest.mark.parametrize(
        "family, built, n, gate",
        [
            ("causal", Dag, MAX_DAG_ENUM_NODES + 1, acyclic_arc_masks),
            ("graph-isomorph", UndirectedGraph, MAX_GRAPH_ENUM_NODES + 1,
             lambda n: next(enumerate_undirected_graphs(universe_of_size(n)))),
        ],
        ids=["causal", "graph-isomorph"],
    )
    def test_gates(self, monkeypatch, family, built, n, gate):
        # One past the enumerator's gate: its message, and no member is built.
        with pytest.raises(ValueError) as raised:
            gate(n)
        t = Triple(0b01, 0, 0b10)

        def refuse(self, *args):
            raise AssertionError(f"{built.__name__} built past the gate")

        monkeypatch.setattr(built, "__init__", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
            entails(family, [t], t, universe_of_size(n))
        assert not entails("all-models", [], t, universe_of_size(n))

    @pytest.mark.parametrize(
        "family, n, given, query",
        [
            # Composition: d-separation from 1 and from 3 given 2 is from both.
            ("causal", MAX_DAG_ENUM_NODES, [(0b1, 0b100, 0b10), (0b1, 0b100, 0b1000)],
             (0b1, 0b100, 0b1010)),
            # Strong union: graph separation survives a larger separator.
            ("graph-isomorph", MAX_GRAPH_ENUM_NODES, [(0b1, 0b100, 0b10)], (0b1, 0b10100, 0b10)),
            # Intersection: separation given 2, 3 from 1 and given 1, 2 from 3.
            ("graph-isomorph", MAX_GRAPH_ENUM_NODES, [(0b1, 0b1100, 0b10), (0b1, 0b110, 0b1000)],
             (0b1, 0b100, 0b1010)),
        ],
        ids=["causal-composition", "graph-strong-union", "graph-intersection"],
    )
    def test_at_the_gates_agrees_with_path_oracle(self, family, n, given, query):
        u = universe_of_size(n)
        given, query = [Triple(*g) for g in given], Triple(*query)
        assert entails(family, given, query, u)
        assert entails_by_paths(family, given, query, u)

    def test_triples_validated_against_universe(self):
        with pytest.raises(ValueError):
            entails("causal", [], Triple(0b100, 0, 0b010), universe_of_size(2))
