"""Text format round-trips and diagnostics."""

import inspect
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cimodels.core import IndependencyModel, Triple, Universe
from cimodels.dag import Dag
from cimodels.formats import (
    FormatError,
    format_dag,
    format_graph,
    format_model,
    format_set,
    format_triple,
    load_dag,
    load_graph,
    load_model,
    parse_dag,
    parse_graph,
    parse_model,
    parse_set,
    parse_triple,
)
from cimodels.ugraph import UndirectedGraph

from oracles import all_triples, random_model, read_model_text, universe_of_size

MODEL_TEXT = """\
vars: 1 2 3 4
I 1 | - | 3
I 2 | 1 | 4
"""

GRAPH_TEXT = """\
vars: a b c
a -- b
b -- c
"""

DAG_TEXT = """\
vars: 0 1 2 3 4
0 -> 2
0 -> 3
1 -> 2
4 -> 3
"""


class TestSets:
    def test_parse_set_variants(self):
        u = Universe(("a", "b", "c"))
        assert parse_set(u, "a,c") == 0b101
        assert parse_set(u, "-") == 0
        assert parse_set(u, "") == 0
        assert parse_set(u, " b ") == 0b010

    def test_parse_set_unknown_label(self):
        with pytest.raises(FormatError):
            parse_set(Universe(("a",)), "z")

    def test_format_set(self):
        u = Universe(("a", "b", "c"))
        assert format_set(u, 0b101) == "a,c"
        assert format_set(u, 0) == "-"

    def test_triple_roundtrip(self):
        u = Universe(("a", "b", "c"))
        t = Triple(0b001, 0b010, 0b100)
        assert parse_triple(u, format_triple(u, t)) == t

    def test_triple_arity_checked(self):
        with pytest.raises(FormatError):
            parse_triple(Universe(("a",)), "a | -")

    def test_triple_disjointness_checked(self):
        with pytest.raises(FormatError):
            parse_triple(Universe(("a", "b")), "a | a | b")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_set, "a,z", "unknown label 'z'"),
            (parse_triple, "a | -", "expected '<set> | <set> | <set>', found 'a | -'"),
            (parse_triple, "a | a | b", "triple sets must be pairwise disjoint: 0x1, 0x1, 0x2"),
            (parse_triple, "a | - | z", "unknown label 'z'"),
        ],
    )
    def test_errors_carry_no_location(self, parse, text, message):
        with pytest.raises(FormatError) as err:
            parse(Universe(("a", "b")), text)
        assert str(err.value) == message
        assert (err.value.source, err.value.line) == (None, None)

    @pytest.mark.parametrize("parse", [parse_set, parse_triple])
    def test_takes_universe_and_text_only(self, parse):
        assert list(inspect.signature(parse).parameters) == ["universe", "text"]


class TestModelFormat:
    def test_parse(self):
        m = parse_model(MODEL_TEXT)
        assert m.universe.names == ("1", "2", "3", "4")
        assert Triple(0b0001, 0, 0b0100) in m
        assert Triple(0b0010, 0b0001, 0b1000) in m
        assert len(m) == 2

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\nvars: a b\n# mid comment\nI a | - | b\n\n"
        assert len(parse_model(text)) == 1
        # CRLF line ends, comments, blank lines, indents, trailing blanks and
        # bars without spaces.
        plain = "vars: a b c\nI a | - | b\nI b | - | a\nI a | c | b\nI b | c | a\nI a,b | - | c\n"
        laid_out = (
            "# layout\r\n\r\nvars: a b c\r\n  I a|-|b\r\n# note\r\n\r\nI b | - | a  \r\n"
            "\tI a|c|b\r\nI b |c| a\r\nI a,b|-|c\r\n"
        )
        assert parse_model(laid_out) == parse_model(plain)

    def test_order_insensitive(self):
        swapped = "vars: 1 2 3 4\nI 2 | 1 | 4\nI 1 | - | 3\n"
        assert parse_model(MODEL_TEXT).triples == parse_model(swapped).triples

    def test_duplicate_rejected_with_line(self):
        text = "vars: a b\nI a | - | b\nI a | - | b\n"
        with pytest.raises(FormatError) as err:
            parse_model(text, source="m.txt")
        assert err.value.line == 3
        assert "m.txt:3" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_model("I a | - | b\n")

    def test_junk_line_reported(self):
        with pytest.raises(FormatError) as err:
            parse_model("vars: a b\nJ a | - | b\n")
        assert err.value.line == 2

    def test_roundtrip_canonical(self):
        m = parse_model(MODEL_TEXT)
        text = format_model(m)
        assert parse_model(text).triples == m.triples
        assert format_model(parse_model(text)) == text

    def test_writer_rejects_reserved_labels(self):
        u = Universe(("a|b",))
        m = IndependencyModel(u, frozenset())
        with pytest.raises(FormatError):
            format_model(m)


# Lines 2-4 parse every set text the malformed lines below reuse, so a
# per-call memo of set texts has seen them all before the bad line.
SEEDED = """\
vars: a b c
I a | - | b
I b | c | a
I a | c | b

# a comment, then a blank line above
"""


class TestModelCodecErrors:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("I a | - | b | c", "expected '<set> | <set> | <set>', found ' a | - | b | c'"),
            ("I a | -", "expected '<set> | <set> | <set>', found ' a | -'"),
            ("I a | a | b", "triple sets must be pairwise disjoint: 0x1, 0x1, 0x2"),
            ("I b | a | b", "triple sets must be pairwise disjoint: 0x2, 0x1, 0x2"),
            ("I a | - | z", "unknown label 'z'"),
            ("I a,z | - | b", "unknown label 'z'"),
            ("I\ta | - | b", "expected 'I <set> | <set> | <set>', found 'I\\ta | - | b'"),
            ("I", "expected '<set> | <set> | <set>', found ''"),
            ("Ia | - | b", "expected 'I <set> | <set> | <set>', found 'Ia | - | b'"),
            ("I a | - | b", "duplicate triple 'I a | - | b'"),
            ("I  a|-|b", "duplicate triple 'I a | - | b'"),
            ("I a | c | b", "duplicate triple 'I a | c | b'"),
        ],
    )
    def test_error_after_seen_sets(self, line, message):
        with pytest.raises(FormatError) as err:
            parse_model(SEEDED + line + "\n", source="m.txt")
        assert str(err.value) == f"m.txt:7: {message}"
        assert (err.value.source, err.value.line) == ("m.txt", 7)

    def test_seen_sets_in_new_triples_and_spacing(self):
        text = SEEDED + "I b | - | a\nI  a|c|b\t\n  I c | a,b | -\n# end\n"
        with pytest.raises(FormatError, match="^m.txt:8: duplicate triple 'I a | c | b'$"):
            parse_model(text, source="m.txt")
        m = parse_model(SEEDED + "I b | - | a\nI c | a,b | -\n")
        assert m.triples == {
            Triple(0b001, 0, 0b010),
            Triple(0b010, 0b100, 0b001),
            Triple(0b001, 0b100, 0b010),
            Triple(0b010, 0, 0b001),
            Triple(0b100, 0b011, 0),
        }

    def test_seeded_round_trip(self):
        rng = random.Random(53)
        universes = [universe_of_size(n) for n in range(1, 6)]
        universes.append(Universe(("x1", "y22", "z", "w_4", "v")))
        for u in universes:
            for _ in range(8):
                m = random_model(rng, u, p=rng.uniform(0.02, 0.6), symmetric=rng.random() < 0.5)
                text = format_model(m)
                again = parse_model(text)
                assert again == m
                assert format_model(again) == text


LABEL_LISTS = [["0", "1", "2", "3"], ["a", "bb", "x_1", "y"], ["α", "I", "ß_2", "ω"]]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"]


def _mutate(draw, names: list[str], lines: list[str]) -> None:
    """Apply one drawn mutation to the triple lines, in place."""
    kind = draw(
        st.sampled_from(
            [
                "bar",
                "moved bar",
                "break",
                "prefix",
                "duplicate",
                "overlap",
                "label",
                "filler",
                "indent",
                "char",
            ]
        )
    )
    at = draw(st.integers(0, len(lines)))
    line = lines[at] if at < len(lines) else "I " + names[0] + " | - | -"
    bars = [i for i, ch in enumerate(line) if ch == "|"]
    if kind == "bar" and bars:
        cut = draw(st.sampled_from(bars))
        lines[at:at + 1] = [line[:cut] + line[cut + 1:]]
    elif kind == "moved bar" and bars and at + 1 < len(lines):
        # The bar count stays right; only the line holding each bar is wrong.
        cut = draw(st.sampled_from(bars))
        lines[at] = line[:cut] + line[cut + 1:]
        later = draw(st.integers(at + 1, len(lines) - 1))
        put = draw(st.integers(0, len(lines[later])))
        lines[later] = lines[later][:put] + "|" + lines[later][put:]
    elif kind == "break" and bars:
        # A line break in place of a bar: the columns stay in step.
        cut = draw(st.sampled_from(bars))
        lines[at:at + 1] = [line[:cut], line[cut + 1:]]
    elif kind == "prefix":
        lines[at:at + 1] = [draw(st.sampled_from(["J ", "i ", "I\t", "I", "", "II "])) + line[2:]]
    elif kind == "duplicate" and lines:
        lines.insert(at, draw(st.sampled_from(lines)))
    elif kind == "overlap":
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        overlaps = [f"I {x} | {x} | -", f"I {x},{y} | - | {y}", f"I - | {x} | {x}"]
        lines.insert(at, draw(st.sampled_from(overlaps)))
    elif kind == "label":
        x = draw(st.sampled_from(names))
        bad = [f"I zz | - | {x}", f"I {x},, | - | -", "I , | - | -", f"I {x} | - | -,{x}"]
        lines.insert(at, draw(st.sampled_from(bad)))
    elif kind == "filler":
        lines.insert(at, draw(st.sampled_from(["", "   ", "# note", "  # indented note", "\t"])))
    elif kind == "indent":
        before = draw(st.sampled_from([" ", "\t", "  "]))
        lines[at:at + 1] = [before + line + draw(st.sampled_from(["", " ", "\t"]))]
    elif kind == "char":
        cut = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(list("I |,-#\t") + names))
        lines[at:at + 1] = [line[:cut] + char + line[cut:]]


@st.composite
def mutated_model_texts(draw):
    """A valid model text with up to four mutations of its triple lines,
    joined by one drawn line break."""
    n = draw(st.integers(1, 4))
    names = draw(st.sampled_from(LABEL_LISTS))[:n]

    def set_text(mask: int) -> str:
        labels = [names[i] for i in range(n) if mask >> i & 1]
        return ",".join(labels) if labels else draw(st.sampled_from(["-", "", " - "]))

    triples = draw(st.lists(st.sampled_from(all_triples(n)), unique=True, max_size=10))
    bar = draw(st.sampled_from([" | ", "|", " |  "]))
    lines = ["I " + bar.join(set_text(m) for m in (t.a, t.c, t.b)) for t in triples]
    for _ in range(draw(st.integers(0, 4))):
        _mutate(draw, names, lines)
    header = draw(st.sampled_from(["", "# head\n", "\n  \n"])) + "vars: " + " ".join(names)
    return draw(st.sampled_from(LINE_BREAKS)).join([header, *lines]) + "\n"


@seed(2008)
@settings(max_examples=500, deadline=None)
@given(mutated_model_texts())
def test_parse_model_agrees_with_the_line_reader(text):
    """The column pass accepts exactly the texts an independent line-by-line
    reader accepts, with the same keys, and otherwise names its first bad line."""
    expected = read_model_text(text)
    if isinstance(expected, int):
        with pytest.raises(FormatError) as err:
            parse_model(text, source="m.txt")
        assert (err.value.source, err.value.line) == ("m.txt", expected)
    else:
        assert parse_model(text).keys == expected


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "vars: a b\nI a | - | b\nI a | - | b\nI b | - | a\n\n# c\nJ a | - | b\n",
            "duplicate triple 'I a | - | b'",
        ),
        (
            "vars: a b\nI a | - | b\nJ a | - | b\nI b | - | a\n\n# c\nI a | - | b\n",
            "expected 'I <set> | <set> | <set>', found 'J a | - | b'",
        ),
    ],
)
def test_first_bad_line_wins_whatever_its_fault(text, message):
    # A duplicate on line 3 beats junk on line 7, and junk on line 3 beats a
    # duplicate on line 7.
    assert read_model_text(text) == 3
    with pytest.raises(FormatError) as err:
        parse_model(text, source="m.txt")
    assert str(err.value) == f"m.txt:3: {message}"


@pytest.mark.parametrize(
    "text, line, found",
    [
        # Three parts per triple, every third one a line head, yet line 2
        # holds one bar and line 3 none: only the line count rejects it.
        ("vars: a b\nI a | -\nb\nI b | - | a\n", 2, "' a | -'"),
        ("vars: a b I\nI a | b\nI\nI b | - | a\n", 2, "' a | b'"),
        # One bar moved to a later line.
        ("vars: a b\nI a | - b\nI b | - | | a\n", 2, "' a | - b'"),
        # Line 5 holds one bar and line 6 three, after a comment and a
        # blank line, with CRLF line ends.
        (
            "vars: a b c\r\n# note\r\n\r\nI a | - | b\r\nI a | b\r\nI - | a | b | c\r\n",
            5,
            "' a | b'",
        ),
    ],
)
def test_bars_on_the_wrong_lines(text, line, found):
    assert read_model_text(text) == line
    with pytest.raises(FormatError) as err:
        parse_model(text, source="m.txt")
    assert str(err.value) == f"m.txt:{line}: expected '<set> | <set> | <set>', found {found}"


SEVENTEEN = " ".join(f"v{i}" for i in range(17))


class TestHeaderErrors:
    """The header reader locates its own faults, the same for every file kind."""

    @pytest.mark.parametrize("parse", [parse_model, parse_graph, parse_dag])
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", None, "missing 'vars:' header"),
            ("# only a comment\n\n  \n", None, "missing 'vars:' header"),
            ("vars:\n", 1, "universe must have between 1 and 16 labels, got 0"),
            ("vars: a a\n", 1, "labels must be pairwise distinct"),
            (f"vars: {SEVENTEEN}\n", 1, "universe must have between 1 and 16 labels, got 17"),
            ("# c\n\nI a | - | b\n", 3, "first line must be a 'vars:' header"),
            ("\nvars: a - b\n", 2, "label '-' is reserved or malformed"),
            ("vars: a a->b\n", 1, "label 'a->b' is reserved or malformed"),
        ],
    )
    def test_header_fault(self, parse, text, line, message):
        with pytest.raises(FormatError) as err:
            parse(text, source="m.txt")
        where = "m.txt:" if line is None else f"m.txt:{line}:"
        assert str(err.value) == f"{where} {message}"
        assert (err.value.source, err.value.line) == ("m.txt", line)

    def test_without_a_source(self):
        with pytest.raises(FormatError) as err:
            parse_model("vars: a a\n")
        assert str(err.value) == "1: labels must be pairwise distinct"
        with pytest.raises(FormatError) as err:
            parse_model("")
        assert str(err.value) == "missing 'vars:' header"


class TestLoad:
    @pytest.mark.parametrize("load", [load_model, load_graph, load_dag])
    def test_undecodable_file_names_the_file(self, tmp_path, load):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"vars: a b\n\xff\n")
        with pytest.raises(FormatError) as err:
            load(path)
        message = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
        assert str(err.value) == f"{path}: {message}"
        assert (err.value.source, err.value.line) == (str(path), None)

    @pytest.mark.parametrize("load", [load_model, load_graph, load_dag])
    def test_undecodable_byte_after_a_bom_at_its_file_offset(self, tmp_path, load):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xef\xbb\xbfvars: a b\n\xff\n")
        with pytest.raises(FormatError) as err:
            load(path)
        message = "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"
        assert str(err.value) == f"{path}: {message}"

    def test_leading_bom_is_not_read(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(MODEL_TEXT, encoding="utf-8")
        bom.write_text("\ufeff" + MODEL_TEXT, encoding="utf-8")
        assert load_model(bom) == load_model(plain)

    def test_located_error_names_the_path_given(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("vars: a b\nI a | - | z\n")
        with pytest.raises(FormatError) as err:
            load_model(str(path))
        assert str(err.value) == f"{path}:2: unknown label 'z'"


class TestGraphFormat:
    def test_parse(self):
        g = parse_graph(GRAPH_TEXT)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError, match="^g.txt:3: duplicate edge b -- a$") as err:
            parse_graph("vars: a b\na -- b\nb -- a\n", source="g.txt")
        assert err.value.line == 3
        # A malformed line is reported first, wherever it is.
        with pytest.raises(FormatError, match="^g.txt:4: expected"):
            parse_graph("vars: a b\na -- b\nb -- a\na b\n", source="g.txt")

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(FormatError) as err:
            parse_graph("vars: a b\na -- a\n", source="g.txt")
        assert err.value.line == 2

    def test_roundtrip(self):
        g = parse_graph(GRAPH_TEXT)
        assert parse_graph(format_graph(g)).edges == g.edges
        assert format_graph(parse_graph(format_graph(g))) == format_graph(g)


class TestDagFormat:
    def test_parse(self):
        d = parse_dag(DAG_TEXT)
        assert d.arcs == frozenset({(0, 2), (0, 3), (1, 2), (4, 3)})

    def test_cycle_rejected(self):
        # The reverse arc is another pair, not a duplicate.
        with pytest.raises(FormatError, match="directed cycle"):
            parse_dag("vars: a b\na -> b\nb -> a\n")

    def test_duplicate_arc_rejected(self):
        with pytest.raises(FormatError, match="^d.txt:3: duplicate arc a -> b$") as err:
            parse_dag("vars: a b\na -> b\na -> b\n", source="d.txt")
        assert err.value.line == 3

    def test_first_duplicate_keeps_its_line(self):
        text = "vars: a b c\na -> b\na -> b\nb -> c\nb -> c\n# end\n"
        with pytest.raises(FormatError, match="^d.txt:3: duplicate arc a -> b$") as err:
            parse_dag(text, source="d.txt")
        assert err.value.line == 3

    def test_unknown_label_with_position(self):
        with pytest.raises(FormatError) as err:
            parse_dag("vars: a b\na -> z\n", source="d.txt")
        assert err.value.source == "d.txt"
        assert err.value.line == 2

    def test_roundtrip(self):
        d = parse_dag(DAG_TEXT)
        assert parse_dag(format_dag(d)).arcs == d.arcs
        assert format_dag(parse_dag(format_dag(d))) == format_dag(d)

    def test_malformed_arc_line(self):
        with pytest.raises(FormatError):
            parse_dag("vars: a b c\na -> b -> c\n")


def test_model_dump_of_induced_model_parses_back():
    u = Universe(("a", "b", "c"))
    g = UndirectedGraph(u, frozenset({(0, 1)}))
    m = g.separation_model()
    again = parse_model(format_model(m))
    assert again.triples == m.triples

    d = Dag(u, frozenset({(0, 1), (1, 2)}))
    dm = d.dsep_model()
    assert parse_model(format_model(dm)).triples == dm.triples
