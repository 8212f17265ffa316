"""Property tests on random triple sets over 1-5 labels, symmetric and not:
``check_semigraphoid`` returns exactly ``oracles.check_semigraphoid_reference``'s
list, and a model survives ``format_model`` then ``parse_model``. Random
formulas and terms, nested up to ``MAX_FORMULA_DEPTH``, survive
``format_formula`` then ``parse_formula``. Random files and formula text
through the CLI end with an answer or one located diagnostic.
"""

import io
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, reject, settings, target
from hypothesis import strategies as st

from cimodels.cli import main
from cimodels.core import IndependencyModel
from cimodels.formats import format_model, parse_model
from cimodels.logic import (
    MAX_FORMULA_DEPTH,
    And,
    Atom,
    Complement,
    Intersection,
    Not,
    Or,
    Union_,
    format_formula,
    implies,
    parse_formula,
)
from cimodels.represent import check_semigraphoid

from oracles import (
    all_triples,
    check_semigraphoid_reference,
    random_formula,
    random_term,
    swapped,
    universe_of_size,
)


@st.composite
def random_models(draw):
    """A model of a random set of triples, closed under swapping the related
    sets in about half the draws."""
    n = draw(st.integers(1, 5))
    chosen = draw(st.sets(st.sampled_from(all_triples(n)), max_size=150))
    if draw(st.booleans()):
        chosen |= {swapped(t) for t in chosen}
    return IndependencyModel(universe_of_size(n), chosen)


@settings(max_examples=300, deadline=None)
@given(random_models())
def test_random_models_check_and_round_trip(model):
    assert check_semigraphoid(model) == check_semigraphoid_reference(model)
    assert parse_model(format_model(model)) == model


# print then parse, on formulas and terms nested up to the depth gate: a random
# formula or term from the oracles' generators is wrapped in a chain of up to
# MAX_FORMULA_DEPTH operators, each joined with another small random piece.

NAMES = ["X1", "X2", "X3"]
FORMULA_WRAPS = [
    lambda f, g: Not(f),
    lambda f, g: And(f, g),
    lambda f, g: And(g, f),
    lambda f, g: Or(f, g),
    lambda f, g: Or(g, f),
    lambda f, g: implies(f, g),
    lambda f, g: implies(g, f),
]
TERM_WRAPS = [
    lambda t, u: Complement(t),
    lambda t, u: Union_(t, u),
    lambda t, u: Union_(u, t),
    lambda t, u: Intersection(t, u),
    lambda t, u: Intersection(u, t),
]


@st.composite
def deep_formulas(draw):
    """A formula whose deepest path runs through a chain of ``levels``
    operators, around a random formula (or an atom holding a random term
    with such a chain); returns the formula and ``levels``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    levels = draw(st.integers(0, MAX_FORMULA_DEPTH))
    if draw(st.booleans()):
        term = random_term(rng, NAMES, depth=2)
        for _ in range(levels):
            term = rng.choice(TERM_WRAPS)(term, random_term(rng, NAMES, depth=1))
        pieces = [term, random_term(rng, NAMES, 1), random_term(rng, NAMES, 1)]
        rng.shuffle(pieces)
        return Atom(*pieces), levels
    formula = random_formula(rng, NAMES, depth=3)
    for _ in range(levels):
        formula = rng.choice(FORMULA_WRAPS)(formula, random_formula(rng, NAMES, depth=1))
    return formula, levels


@settings(max_examples=300, deadline=None)
@given(deep_formulas())
def test_print_then_parse_is_the_identity(drawn):
    formula, levels = drawn
    try:
        text = format_formula(formula)
    except ValueError as exc:
        # The printer refuses only text that would nest past the parser's gate,
        # and a level adds at most an operator and a pair of parentheses.
        assert f"nested deeper than {MAX_FORMULA_DEPTH} levels" in str(exc)
        assert levels > MAX_FORMULA_DEPTH // 3
        reject()
    target(float(levels))
    assert parse_formula(text) == formula
    assert format_formula(parse_formula(text)) == text


# Random model, graph and DAG files, and random formula text, through the CLI:
# every run ends with an answer (exit 0 or 1) or with exit 2, no output and one
# diagnostic line naming the file, and the line when there is one.

HEADERS = [
    "vars: a b c",
    "vars: a b c d e",
    "vars: a",
    "vars: é b c",
    "vars:",
    "vars: a a",
    "vars: a - b",
    "vars: a|b c",
    "vars: x->y",
    "vars: a--b",
    "vars: a,b",
    "vars: a #b",
    "VARS: a b",
]
BODY_LINES = [
    # model lines: good, overlapping, wrong arity, unknown label, malformed
    "I a | - | b",
    "I b | - | a",
    "I a | c | b",
    "I a,b | c | d,e",
    "I - | - | -",
    "I é | - | b",
    "I a | a | b",
    "I a | -",
    "I a | - | b | c",
    "I z | - | a",
    "I",
    "J a | - | b",
    # graph lines: duplicates both ways, self-loops, unknown labels
    "a -- b",
    "b -- a",
    "a -- a",
    "c -- d",
    "a -- z",
    "a -- b -- c",
    "é -- c",
    # DAG lines: reversed arcs, cycles, self-loops
    "a -> b",
    "b -> a",
    "b -> c",
    "c -> a",
    "a -> a",
    "z -> a",
    "a -> b -> c",
    # ignored lines
    "# a comment",
    "",
    "   ",
]
COMMANDS = [
    ["model", "check", "--class", "semigraphoid", "--model"],
    ["graph", "model", "--graph"],
    ["dag", "model", "--dag"],
]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def file_bytes(draw):
    """A file's bytes: a header or none, then lines from every file kind,
    sometimes with an undecodable byte."""
    lines = [draw(st.sampled_from(HEADERS))] if draw(st.integers(0, 9)) else []
    lines = draw(st.lists(st.sampled_from(["# lead", ""]), max_size=2)) + lines
    lines += draw(st.lists(st.sampled_from(BODY_LINES), max_size=8))
    data = "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n"]))
    if draw(st.integers(0, 9)) == 0:
        data += b"I a | - | \xff\n"
    return data


@settings(max_examples=200, deadline=None)
@given(file_bytes(), st.sampled_from(COMMANDS))
def test_random_files_answer_or_locate_the_error(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_bytes(data)
        code, out, err = run_cli([*command, str(path)])
    if code in (0, 1):
        assert err == ""
        return
    assert code == 2 and out == ""
    match = re.fullmatch(rf"error: {re.escape(str(path))}:(?:(\d+):)? [^\n]+\n", err)
    assert match is not None, err
    if match[1] is not None:
        assert 1 <= int(match[1]) <= len(data.splitlines())


FORMULA_TOKENS = [
    "I(", "(", ")", ",", "X1", "X2", "Y", "empty", "~", "+", "*", "!", "&", "|",
    "->", "-", " ", "é", "3", "#", "I",
]


TOKEN_TEXT = st.lists(st.sampled_from(FORMULA_TOKENS), max_size=14).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(TOKEN_TEXT, st.text(max_size=20)))
def test_random_formula_text_answers_or_fails_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text("vars: a\nI a | - | -\n")
        code, out, err = run_cli(["formula", "eval", "--model", str(path), f"--formula={text}"])
    if code in (0, 1):
        assert err == "" and out in ("SATISFIED\n", "NOT SATISFIED\n")
        return
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
