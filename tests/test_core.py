"""Universe, triple, and model basics."""

import copy
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest

from cimodels.core import (
    MAX_UNIVERSE_SIZE,
    IndependencyModel,
    Triple,
    Universe,
    bits_of,
    disjoint_keys,
    enumerate_disjoint_triples,
    key_places,
    model_equals,
    pack_key,
    unpack_keys,
)
from cimodels.dag import Dag, enumerate_dags
from cimodels.logic import (
    EMPTY,
    And,
    Atom,
    Clause,
    Complement,
    Empty,
    Intersection,
    Not,
    Or,
    Union_,
    Valuation,
    Var,
)
from cimodels.represent import AxiomViolation, RepresentabilityResult, dependent_always
from cimodels.repro import ReproReport
from cimodels.ugraph import UndirectedGraph, enumerate_undirected_graphs, reachable_mask

from oracles import ReferenceModel, random_model, swapped, universe_of_size


def is_symmetric(model):
    return ReferenceModel(model.universe, model.triples).is_symmetric()


class TestUniverse:
    def test_basic(self):
        u = Universe(("a", "b", "c"))
        assert u.n == 3
        assert u.full_mask == 0b111
        assert u.index("b") == 1
        assert u.mask_of(["a", "c"]) == 0b101
        assert u.labels_of(0b101) == ("a", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Universe(("a", "a"))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Universe(("a", ""))

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            Universe(())
        with pytest.raises(ValueError):
            Universe(tuple(str(i) for i in range(MAX_UNIVERSE_SIZE + 1)))
        Universe(tuple(str(i) for i in range(MAX_UNIVERSE_SIZE)))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Universe(("a",)).index("z")

    def test_mask_bounds(self):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError):
            u.check_mask(0b100)
        u.check_mask(0b11)

    def test_subuniverse(self):
        u = Universe(("a", "b", "c", "d"))
        assert u.subuniverse(0b1010).names == ("b", "d")
        with pytest.raises(ValueError):
            u.subuniverse(0)

    def test_n_and_full_mask_are_not_fields(self):
        u = Universe(("a", "b", "c"))
        assert repr(u) == "Universe(names=('a', 'b', 'c'))"
        assert u == Universe(["a", "b", "c"]) and hash(u) == hash(Universe(("a", "b", "c")))
        assert hash(u) == hash((u.names,))
        assert u != Universe(("a", "b")) and u != Universe(("c", "b", "a"))
        wider = Universe((*u.names, "d"))
        assert (wider.n, wider.full_mask) == (4, 0b1111)
        assert (u.n, u.full_mask) == (3, 0b111)

    def test_mask_of_names_the_first_unknown_label(self):
        u = Universe(("a", "b"))
        assert u.mask_of(iter(["b", "a"])) == 0b11
        assert u.mask_of([]) == 0
        with pytest.raises(ValueError, match=r"^unknown label 'z'$"):
            u.mask_of(["a", "z", "y"])
        with pytest.raises(ValueError, match=r"^unknown label: unhashable type: 'list'$"):
            u.mask_of(["a", ["b"]])
        with pytest.raises(ValueError, match=r"^unknown label \['b'\]$"):
            u.index(["b"])

    def test_a_bare_string_is_not_split_into_labels(self):
        u = Universe(("a", "b", "ab"))
        assert u.mask_of(["ab"]) == 0b100
        message = r"^expected a collection of labels, not the string 'ab'$"
        with pytest.raises(ValueError, match=message):
            u.mask_of("ab")
        with pytest.raises(ValueError, match=message):
            Universe("ab")


def test_bits_of():
    assert list(bits_of(0b10110)) == [1, 2, 4]
    assert list(bits_of(0)) == []


@pytest.mark.parametrize(
    "call", [lambda: list(islice(bits_of(-1), 5)), lambda: reachable_mask([0], -1, 0)]
)
def test_bits_of_rejects_a_negative_mask(call):
    # Two's complement gives -1 infinitely many set bits.
    with pytest.raises(ValueError, match="negative mask -1"):
        call()


class TestTriple:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Triple(0b11, 0b10, 0)
        with pytest.raises(ValueError):
            Triple(0b1, 0b10, 0b11)

    def test_span(self):
        assert Triple(0b001, 0b010, 0b100).span == 0b111


class TestEnumerateDisjointTriples:
    @pytest.mark.parametrize("n,expected", [(1, 4), (2, 16), (4, 256)])
    def test_counts(self, n, expected):
        triples = list(enumerate_disjoint_triples(universe_of_size(n)))
        assert len(triples) == expected
        assert len(set(triples)) == expected

    def test_order_is_base_four_placement(self):
        triples = list(enumerate_disjoint_triples(universe_of_size(2)))
        assert triples[0] == Triple(0, 0, 0)
        assert triples[1] == Triple(0b01, 0, 0)
        assert triples[2] == Triple(0, 0b01, 0)
        assert triples[3] == Triple(0, 0, 0b01)
        assert triples[4] == Triple(0b10, 0, 0)
        assert triples[5] == Triple(0b11, 0, 0)
        assert triples[7] == Triple(0b10, 0, 0b01)

    def test_all_disjoint(self):
        for t in enumerate_disjoint_triples(universe_of_size(3)):
            assert t.a & t.c == 0 and t.a & t.b == 0 and t.c & t.b == 0


class TestKeyCodec:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_codec_follows_enumeration_order(self, n):
        # Triple k places label i by base-4 digit i of k: 1 = a, 2 = c, 3 = b.
        expected = []
        for k in range(4**n):
            sets = [0, 0, 0, 0]
            for i in range(n):
                sets[k >> 2 * i & 3] |= 1 << i
            expected.append((sets[1], sets[2], sets[3]))
        keys = list(disjoint_keys(n))
        triples = enumerate_disjoint_triples(universe_of_size(n))
        assert [(t.a, t.c, t.b) for t in triples] == expected
        assert keys == [a * 4**n + c * 2**n + b for a, c, b in expected]
        assert [pack_key(n, a, c, b) for a, c, b in expected] == keys
        assert list(unpack_keys(n, keys)) == expected
        places = key_places(n)
        assert [sum(places[i][k >> 2 * i & 3] for i in range(n)) for k in range(4**n)] == keys
        # Ascending keys are (a, c, b) order.
        assert list(unpack_keys(n, sorted(keys))) == sorted(expected)


NODE_CALLS = {
    "dependent_always": lambda m, i: dependent_always(m, i, 1),
    "dependent_always second": lambda m, i: dependent_always(m, 1, i),
}


@pytest.mark.parametrize("node", [-1, -3, 3, 9])
@pytest.mark.parametrize("call", NODE_CALLS)
def test_node_index_outside_the_universe_rejected(call, node):
    # A negative index must not wrap to the last node or shift by a negative
    # count, and a large one must not run past the mask tables.
    graph = UndirectedGraph(universe_of_size(3), frozenset({(1, 2)}))
    with pytest.raises(ValueError, match=f"^node {node} outside the 3-label universe$"):
        NODE_CALLS[call](graph.separation_model(), node)


# Pair lists on 3 labels and, per bad pair, the text each constructor raises
# for it ("{}" is "edge" or "arc"). A loop is reported as a loop even when it
# also lies outside the universe.
OUTSIDE = "{} ({}, {}) outside the 3-label universe"
BAD_PAIRS = {
    "loop first": (
        [(0, 1), (2, 2), (0, 5)],
        {(2, 2): "self-loop at node 2", (0, 5): OUTSIDE.format("{}", 0, 5)},
    ),
    "range first": (
        [(1, 0), (0, 5), (2, 2)],
        {(0, 5): OUTSIDE.format("{}", 0, 5), (2, 2): "self-loop at node 2"},
    ),
    "negative": ([(2, 1), (-1, 2)], {(-1, 2): OUTSIDE.format("{}", -1, 2)}),
    "loop outside": (
        [(3, 3), (1, 3)],
        {(3, 3): "self-loop at node 3", (1, 3): OUTSIDE.format("{}", 1, 3)},
    ),
}


@pytest.mark.parametrize("case", BAD_PAIRS)
@pytest.mark.parametrize("given", [list, tuple, iter])
def test_graph_reports_the_first_bad_edge_in_the_order_given(case, given):
    pairs, messages = BAD_PAIRS[case]
    first = next(p for p in pairs if p in messages)
    with pytest.raises(ValueError, match=f"^{re.escape(messages[first].format('edge'))}$"):
        UndirectedGraph(universe_of_size(3), given(pairs))


@pytest.mark.parametrize("case", BAD_PAIRS)
def test_dag_reports_the_first_bad_arc_of_its_frozen_arcs(case):
    pairs, messages = BAD_PAIRS[case]
    first = next(p for p in frozenset(pairs) if p in messages)
    with pytest.raises(ValueError, match=f"^{re.escape(messages[first].format('arc'))}$"):
        Dag(universe_of_size(3), (p for p in pairs))


def test_graph_from_a_generator_keeps_every_edge_ordered():
    # A one-shot iterator is read once, so checking it does not use up the edges.
    g = UndirectedGraph(universe_of_size(4), ((v, u) for u, v in [(0, 1), (1, 3), (2, 3)]))
    assert g.edges == frozenset({(0, 1), (1, 3), (2, 3)})
    assert g.neighbor_masks == (0b0010, 0b1001, 0b1000, 0b0110)


class TestModel:
    def test_rejects_out_of_universe_triples(self):
        u = Universe(("a",))
        with pytest.raises(ValueError):
            IndependencyModel(u, frozenset({Triple(0b10, 0, 0)}))

    def test_membership_and_len(self):
        u = Universe(("a", "b"))
        t = Triple(0b01, 0, 0b10)
        m = IndependencyModel(u, frozenset({t}))
        assert t in m
        assert swapped(t) not in m
        assert len(m) == 1

    def test_model_equals_identity(self):
        u = universe_of_size(3)
        m = random_model(random.Random(1), u)
        assert model_equals(m, m)
        assert model_equals(m, m.restrict(u.full_mask))

    def test_model_equals_is_ordered(self):
        u = Universe(("a", "b"))
        m1 = IndependencyModel(u, frozenset({Triple(0b01, 0, 0b10)}))
        m2 = IndependencyModel(u, frozenset({Triple(0b10, 0, 0b01)}))
        assert not model_equals(m1, m2)

    def test_model_equals_universe_mismatch(self):
        m1 = IndependencyModel(Universe(("a",)), frozenset())
        m2 = IndependencyModel(Universe(("b",)), frozenset())
        with pytest.raises(ValueError):
            model_equals(m1, m2)

    def test_is_symmetric(self):
        # The checker the symmetry tests below rely on.
        u = Universe(("a", "b"))
        t = Triple(0b01, 0, 0b10)
        assert not is_symmetric(IndependencyModel(u, frozenset({t})))
        assert is_symmetric(IndependencyModel(u, frozenset({t, swapped(t)})))

    def test_induced_models_symmetric(self):
        for n in (2, 3, 4):
            u = universe_of_size(n)
            for g in enumerate_undirected_graphs(u):
                assert is_symmetric(g.separation_model())
            for d in enumerate_dags(u):
                assert is_symmetric(d.dsep_model())


class TestRestrict:
    def test_simple_filter(self):
        u = Universe(("a", "b", "c"))
        m = IndependencyModel(
            u,
            frozenset({Triple(0b001, 0, 0b010), Triple(0b001, 0b100, 0b010)}),
        )
        r = m.restrict(u.mask_of(["a", "b"]))
        assert r.universe.names == ("a", "b")
        assert r.triples == frozenset({Triple(0b01, 0, 0b10)})

    def test_identity_on_full_universe(self):
        u = universe_of_size(4)
        m = random_model(random.Random(7), u)
        assert model_equals(m.restrict(u.full_mask), m)

    def test_empty_restriction_rejected(self):
        m = IndependencyModel(Universe(("a",)), frozenset())
        with pytest.raises(ValueError):
            m.restrict(0)

    def test_composition_by_labels(self):
        rng = random.Random(13)
        u = universe_of_size(5)
        for _ in range(25):
            m = random_model(rng, u, p=0.25)
            v_mask = rng.randrange(1, 1 << u.n)
            sub_labels = u.labels_of(v_mask)
            w_labels = [lab for lab in sub_labels if rng.random() < 0.6] or [sub_labels[0]]
            once = m.restrict(u.mask_of(w_labels))
            inner = m.restrict(v_mask)
            twice = inner.restrict(inner.universe.mask_of(w_labels))
            assert model_equals(once, twice)

    def test_preserves_symmetry(self):
        rng = random.Random(29)
        u = universe_of_size(4)
        for _ in range(20):
            m = random_model(rng, u, p=0.3, symmetric=True)
            v_mask = rng.randrange(1, 1 << u.n)
            assert is_symmetric(m.restrict(v_mask))

    def test_restriction_universe_recompacts(self):
        u = Universe(("p", "q", "r", "s"))
        m = IndependencyModel(u, frozenset({Triple(0b0010, 0b1000, 0b0100)}))
        r = m.restrict(0b1110)
        assert r.universe.names == ("q", "r", "s")
        assert r.triples == frozenset({Triple(0b001, 0b100, 0b010)})


_RESTRICTIONS = {
    "subuniverse": (lambda u: u.subuniverse, "a universe needs at least one label"),
    "restrict": (
        lambda u: IndependencyModel(u, []).restrict,
        "cannot restrict to the empty set of variables",
    ),
    "marginal_graph": (
        lambda u: UndirectedGraph(u, [(0, 1), (1, 2)]).marginal_graph,
        "cannot marginalize onto the empty set of variables",
    ),
}


@pytest.mark.parametrize("mask", [0, -1, 1 << 3, 1 << 3 | 1])
@pytest.mark.parametrize("kind", list(_RESTRICTIONS))
def test_restriction_messages(kind, mask):
    """Each restriction names an empty mask in its own words, and a mask past
    the 3-label universe, negative ones included, as ``check_mask`` does."""
    restriction, empty = _RESTRICTIONS[kind]
    expected = empty if mask == 0 else f"mask {mask:#x} has bits outside the 3-label universe"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        restriction(Universe(("a", "b", "c")))(mask)


def _records():
    """One value of each of the library's 19 record types: its builder, its
    field names in order, and its exact ``repr``. A builder given a subclass
    of the type builds the same value as that subclass."""

    def u(kind=Universe):
        return kind(("a", "b"))

    def atom(kind=Atom):
        return kind(Var("X"), EMPTY, Var("Y"))

    two = "Universe(names=('a', 'b'))"
    x, y = "Var(name='X')", "Var(name='Y')"
    atom_text = f"Atom(t1={x}, t2=Empty(), t3={y})"
    dag = f"Dag(universe={two}, arcs=frozenset({{(0, 1)}}))"
    return {
        "Universe": (u, ("names",), two),
        "Triple": (lambda kind=Triple: kind(1, 2, 4), ("a", "c", "b"), "Triple(a=1, c=2, b=4)"),
        "IndependencyModel": (
            lambda kind=IndependencyModel: kind(u(), [Triple(1, 0, 2)]),
            ("universe", "keys"),
            f"IndependencyModel(universe={two}, keys=frozenset({{{pack_key(2, 1, 0, 2)}}}))",
        ),
        "Dag": (lambda kind=Dag: kind(u(), {(0, 1)}), ("universe", "arcs"), dag),
        "UndirectedGraph": (
            lambda kind=UndirectedGraph: kind(u(), {(1, 0)}),
            ("universe", "edges"),
            f"UndirectedGraph(universe={two}, edges=frozenset({{(0, 1)}}))",
        ),
        "Var": (lambda kind=Var: kind("X"), ("name",), x),
        "Empty": (lambda kind=Empty: kind(), (), "Empty()"),
        "Complement": (
            lambda kind=Complement: kind(Var("X")), ("operand",), f"Complement(operand={x})"
        ),
        "Union_": (
            lambda kind=Union_: kind(Var("X"), EMPTY),
            ("left", "right"),
            f"Union_(left={x}, right=Empty())",
        ),
        "Intersection": (
            lambda kind=Intersection: kind(EMPTY, Var("Y")),
            ("left", "right"),
            f"Intersection(left=Empty(), right={y})",
        ),
        "Atom": (atom, ("t1", "t2", "t3"), atom_text),
        "Not": (lambda kind=Not: kind(atom()), ("operand",), f"Not(operand={atom_text})"),
        "And": (
            lambda kind=And: kind(atom(), Not(atom())),
            ("left", "right"),
            f"And(left={atom_text}, right=Not(operand={atom_text}))",
        ),
        "Or": (
            lambda kind=Or: kind(Not(atom()), atom()),
            ("left", "right"),
            f"Or(left=Not(operand={atom_text}), right={atom_text})",
        ),
        "Clause": (
            lambda kind=Clause: kind([atom()], ()),
            ("negatives", "positives"),
            f"Clause(negatives=({atom_text},), positives=())",
        ),
        "Valuation": (
            lambda kind=Valuation: kind(u(), {"X": 1}),
            ("universe", "assignment"),
            f"Valuation(universe={two}, assignment=mappingproxy({{'X': 1}}))",
        ),
        "RepresentabilityResult": (
            lambda kind=RepresentabilityResult: kind(True, Dag(u(), {(0, 1)}), None),
            ("representable", "witness", "first_discrepancy"),
            f"RepresentabilityResult(representable=True, witness={dag}, first_discrepancy=None)",
        ),
        "AxiomViolation": (
            lambda kind=AxiomViolation: kind("symmetry", (Triple(1, 0, 2),), Triple(2, 0, 1)),
            ("axiom", "premises", "conclusion"),
            "AxiomViolation(axiom='symmetry', premises=(Triple(a=1, c=0, b=2),),"
            " conclusion=Triple(a=2, c=0, b=1))",
        ),
        "ReproReport": (
            lambda kind=ReproReport: kind(
                statements_checked=(("s", True),),
                dag_count_scanned=543,
                causal_witness_found=False,
                semigraphoid_ok=True,
            ),
            ("statements_checked", "dag_count_scanned", "causal_witness_found", "semigraphoid_ok"),
            "ReproReport(statements_checked=(('s', True),), dag_count_scanned=543,"
            " causal_witness_found=False, semigraphoid_ok=True)",
        ),
    }


# Per type that validates its arguments, a builder of a refused value and the
# start of the message it raises.
REFUSED = {
    "Universe": (lambda kind: kind(("a", "a")), "labels must be pairwise distinct"),
    "Triple": (lambda kind: kind(1, 1, 2), "triple sets must be pairwise disjoint"),
    "IndependencyModel": (
        lambda kind: kind(universe_of_size(1), [Triple(1, 0, 2)]),
        "triple Triple",
    ),
    "Dag": (lambda kind: kind(universe_of_size(2), {(0, 1), (1, 0)}), "arcs contain a directed"),
    "UndirectedGraph": (lambda kind: kind(universe_of_size(2), {(1, 1)}), "self-loop at node 1"),
    "Clause": (lambda kind: kind((), ()), "a clause needs at least one literal"),
    "Valuation": (lambda kind: kind(universe_of_size(1), {"X": 2}), "mask 0x2 has bits outside"),
}


def _positional(value, arity):
    """What a class pattern with ``arity`` positional sub-patterns binds in ``value``."""
    kind = type(value)
    match arity, value:
        case 0, kind():
            return ()
        case 1, kind(p):
            return (p,)
        case 2, kind(p, q):
            return (p, q)
        case 3, kind(p, q, r):
            return (p, q, r)
        case 4, kind(p, q, r, s):
            return (p, q, r, s)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a Valuation's read-only mapping is unhashable
        return str(exc)


@pytest.mark.parametrize("name", list(_records()))
def test_record_contract(name):
    # What a frozen dataclass gave each type: == and hash over the field tuple,
    # Name(field=value, ...), positional match patterns, refused writes, pickle
    # and deepcopy round trips, and subclasses that keep all of it.
    build, fields, shown = _records()[name]
    value, twin = build(), build()
    values = tuple(getattr(value, f) for f in fields)
    assert type(value).__name__ == name
    assert value == twin and not value != twin and value is not twin
    assert value != values and value.__eq__(values) is NotImplemented
    assert _hash_or_error(value) == _hash_or_error(twin) == _hash_or_error(values)
    assert repr(value) == shown
    assert type(value).__match_args__ == fields and _positional(value, len(fields)) == values
    assert issubclass(FrozenInstanceError, AttributeError)
    field = fields[0] if fields else "name"
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert tuple(getattr(value, f) for f in fields) == values
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value) and copied == value and repr(copied) == shown
        assert _hash_or_error(copied) == _hash_or_error(value)
    # A subclass's own annotation makes no field, as with an undecorated subclass
    # of a dataclass: it inherits the fields, the constructor and its checks.
    sub = type("Sub", (type(value),), {"__annotations__": {"tag": str}})
    child = build(sub)
    assert type(child) is sub and sub.__match_args__ == fields
    assert _positional(child, len(fields)) == values
    assert child == build(sub) and child != value and not child == value
    assert _hash_or_error(child) == _hash_or_error(value)
    assert repr(child) == "Sub" + shown[len(name) :]
    copied = copy.deepcopy(child)
    assert type(copied) is sub and copied == child
    if name in REFUSED:
        refused, message = REFUSED[name]
        for kind in (type(value), sub):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                refused(kind)
