"""Formula parsing, printing, evaluation, clauses, and entailment."""

import gc
import random

import pytest

from cimodels.core import (
    IndependencyModel,
    Triple,
    Universe,
    enumerate_disjoint_triples,
)
from cimodels.dag import Dag, enumerate_dags
from cimodels.logic import (
    EMPTY,
    MAX_FORMULA_DEPTH,
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
    eval_term,
    format_formula,
    format_term,
    formula_of_clause,
    implies,
    is_horn,
    is_valid_valuation,
    model_satisfies,
    parse_clause,
    parse_formula,
    satisfies,
)

from oracles import (
    check_clause_bruteforce,
    model_satisfies_bruteforce,
    random_atom,
    random_clause,
    random_formula,
    random_model,
    random_term,
    universe_of_size,
)

SYMMETRY = "I(X1, X2, X3) -> I(X3, X2, X1)"


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


class TestEvalTerm:
    def setup_method(self):
        self.u = Universe(("a", "b", "c"))

    def test_complement_of_empty_is_universe(self):
        v = Valuation(self.u, {})
        assert eval_term(Complement(EMPTY), v) == self.u.full_mask

    def test_intersection(self):
        v = Valuation(self.u, {"X1": 0b001, "X2": 0b011})
        assert eval_term(Intersection(Var("X1"), Var("X2")), v) == 0b001

    def test_complement_of_var(self):
        v = Valuation(self.u, {"X1": 0b001})
        assert eval_term(Complement(Var("X1")), v) == 0b110

    def test_unbound_variable(self):
        with pytest.raises(ValueError):
            eval_term(Var("X9"), Valuation(self.u, {}))

    def test_valuation_masks_validated(self):
        with pytest.raises(ValueError):
            Valuation(self.u, {"X1": 0b1000})


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


class TestSatisfies:
    def test_atom_membership(self):
        m = singleton_model()
        v = Valuation(m.universe, {"X1": 0b001, "X2": 0, "X3": 0b010})
        atom = parse_formula("I(X1, X2, X3)")
        assert satisfies(v, atom, m)
        assert not satisfies(v, Not(atom), m)

    def test_invalid_valuation_rejected(self):
        m = singleton_model()
        v = Valuation(m.universe, {"X1": 0b001, "X2": 0b001, "X3": 0b010})
        with pytest.raises(ValueError):
            satisfies(v, parse_formula("I(X1, X2, X3)"), m)

    def test_collider_symmetry_instance(self):
        u = Universe(("1", "2", "3"))
        m = Dag(u, frozenset({(0, 1), (2, 1)})).dsep_model()
        v = Valuation(u, {"X1": 0b001, "X2": 0, "X3": 0b100})
        assert satisfies(v, parse_formula(SYMMETRY), m)

    def test_implication_semantics(self):
        rng = random.Random(31)
        m = random_model(rng, universe_of_size(3), p=0.3)
        names = ["X1", "X2"]
        checked = 0
        while checked < 40:
            left = random_formula(rng, names, depth=2)
            right = random_formula(rng, names, depth=2)
            arrow = implies(left, right)
            v = Valuation(m.universe, {n: rng.randrange(8) for n in names})
            if not is_valid_valuation(v, arrow, m):
                continue
            expected = (not satisfies(v, left, m)) or satisfies(v, right, m)
            assert satisfies(v, arrow, m) == expected
            checked += 1


class TestModelSatisfies:
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

    def test_budget_enforced(self):
        m = random_model(random.Random(3), universe_of_size(3), p=0.2)
        f = parse_formula("I(X1, X2, X3) -> I(X3, X2, X1)")
        with pytest.raises(ValuationBudgetError):
            model_satisfies(m, f, budget=10)

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

    def test_budget_enforced(self):
        m = random_model(random.Random(71), universe_of_size(3), p=0.3)
        c = parse_clause("I(X1,X2,X3) -> I(X3,X2,X1)")
        with pytest.raises(ValuationBudgetError):
            check_clause(m, c, budget=5)

    def test_budget_counts_every_valuation_times_atoms(self):
        # (2**3)**3 valuations of three variables, two atoms: 1024 checks,
        # although only 4**3 of those valuations are valid.
        m = random_model(random.Random(73), universe_of_size(3), p=0.3, symmetric=True)
        c = parse_clause(SYMMETRY)
        assert check_clause(m, c, budget=1024)
        assert model_satisfies(m, formula_of_clause(c), budget=1024)
        with pytest.raises(ValuationBudgetError, match="1024 valuation-atom checks"):
            check_clause(m, c, budget=1023)
        with pytest.raises(ValuationBudgetError, match="1024 valuation-atom checks"):
            model_satisfies(m, formula_of_clause(c), budget=1023)


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
        assert entails("causal", [given], given.reverse(), u)

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

    def test_unknown_family(self):
        u = universe_of_size(2)
        with pytest.raises(ValueError):
            entails("markov", [], Triple(0b01, 0, 0b10), u)

    def test_gates(self):
        t = Triple(0b01, 0, 0b10)
        with pytest.raises(ValueError):
            entails("causal", [], t, universe_of_size(5))
        with pytest.raises(ValueError):
            entails("graph-isomorph", [], t, universe_of_size(6))
        assert not entails("all-models", [], t, universe_of_size(6))

    def test_triples_validated_against_universe(self):
        with pytest.raises(ValueError):
            entails("causal", [], Triple(0b100, 0, 0b010), universe_of_size(2))
