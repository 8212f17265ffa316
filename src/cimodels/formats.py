"""Line-oriented text formats for models, undirected graphs, and DAGs.

Every file starts with a ``vars:`` header naming the universe. Lines starting
with ``#`` and blank lines are ignored. Sets are written as comma-separated
labels without spaces, with ``-`` for the empty set.

Model file::

    vars: 1 2 3 4
    I 1 | - | 3
    I 2 | 1 | 4

Graph file::

    vars: a b c
    a -- b

DAG file::

    vars: 0 1 2
    0 -> 2
    1 -> 2
"""

from __future__ import annotations

from operator import and_
from pathlib import Path
from typing import Iterator, NoReturn

from .core import IndependencyModel, Triple, Universe, pack_keys, unpack_keys
from .dag import Dag
from .ugraph import UndirectedGraph

_RESERVED_IN_LABELS = set(",|#")


class FormatError(ValueError):
    """A malformed input file; carries the source name and line number."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = f"{source}:"
        if line is not None:
            prefix += f"{line}:"
        if prefix:
            prefix += " "
        super().__init__(prefix + message)


def _check_label(label: str) -> None:
    bad = (
        label == "-"
        or "--" in label
        or "->" in label
        or any(ch in _RESERVED_IN_LABELS or ch.isspace() for ch in label)
    )
    if bad:
        raise FormatError(f"label {label!r} is reserved or malformed")


def _vars_line(universe: Universe) -> str:
    """The ``vars:`` header of ``universe``; labels a file could not hold raise."""
    for label in universe.names:
        _check_label(label)
    return "vars: " + " ".join(universe.names)


def _check_text(text: str) -> None:
    """Refuse text that is not a ``str``, naming its type, once per parse."""
    if not isinstance(text, str):
        raise TypeError(f"text must be str, not {type(text).__name__}")


def _header_and_lines(text: str, *, source: str | None) -> tuple[Universe, Iterator[tuple[int, str]]]:
    """The universe of ``text``'s ``vars:`` header and its remaining content
    lines, each stripped and numbered from 1 as in the file."""
    lines = ((i, s) for i, s in enumerate(map(str.strip, text.splitlines()), 1) if s and s[0] != "#")
    try:
        lineno, content = next(lines)
    except StopIteration:
        raise FormatError("missing 'vars:' header", source=source) from None
    try:
        return _header_universe(content), lines
    except ValueError as exc:
        raise FormatError(str(exc), source=source, line=lineno) from None


def _header_universe(content: str) -> Universe:
    """The universe of a ``vars:`` header line. Raises ``ValueError``
    without a location: the caller adds it."""
    if not content.startswith("vars:"):
        raise ValueError("first line must be a 'vars:' header")
    labels = content[len("vars:"):].split()
    for label in labels:
        _check_label(label)
    return Universe(tuple(labels))


def parse_set(universe: Universe, text: str) -> int:
    """A set written as comma-separated labels; ``-`` or empty text is the empty set."""
    text = text.strip()
    if text in ("", "-"):
        return 0
    try:
        return universe.mask_of(map(str.strip, text.split(",")))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_set(universe: Universe, mask: int) -> str:
    labels = universe.labels_of(mask)
    return ",".join(labels) if labels else "-"


def parse_triple(universe: Universe, text: str) -> Triple:
    """A triple written ``<set> | <set> | <set>``; errors carry no location."""
    parts = text.split("|")
    try:
        if len(parts) != 3:
            raise ValueError(f"expected '<set> | <set> | <set>', found {text!r}")
        return Triple(*(parse_set(universe, part) for part in parts))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_triple(universe: Universe, triple: Triple) -> str:
    return (
        f"{format_set(universe, triple.a)} | "
        f"{format_set(universe, triple.c)} | "
        f"{format_set(universe, triple.b)}"
    )


def parse_model(text: str, *, source: str | None = None) -> IndependencyModel:
    """Read a model file.

    The text is split into lines once, and the header and the triple lines
    are read from that list, the triple lines by column (``_column_keys``).
    A text that fails a check there goes to ``_raise_first_fault``, which
    reads it again line by line only to name the first bad line, the header
    included; it never returns.
    """
    _check_text(text)
    read = _column_keys(text)
    if read is None:
        _raise_first_fault(text, source=source)
    return IndependencyModel._from_keys(*read)


def _column_keys(text: str) -> tuple[Universe, frozenset[int]] | None:
    """The universe of a model text's header and the packed keys
    (``core.pack_key``) of its triple lines, or ``None`` if some line is bad.

    The header is the first content line. The triple lines are joined after
    an empty entry with ``"|\\n"`` and split at the bars. No line holds a line
    break, so every line holds two bars iff there are ``3 * lines + 1`` parts
    and parts 1, 4, 7, ... all start with ``"\\n"``: the head (``\\nI <a> ``),
    ``c`` and ``b`` columns. Each distinct head is checked for its ``I `` and
    each distinct set text parsed once per call; the disjointness checks are
    ``map``s over the mask columns, ``core.pack_keys`` packs them, and a
    repeated triple leaves fewer keys than lines.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if "#" in text:
        lines = [s for s in lines if s[0] != "#"]
    try:
        universe = _header_universe(lines[0])
    except (IndexError, ValueError):  # IndexError: no content line at all
        return None
    count = len(lines) - 1
    lines[0] = ""
    joined = "|\n".join(lines)
    del lines  # each text is held once at a time: lines, joined, then parts
    parts = joined.split("|")
    del joined
    if len(parts) != 3 * count + 1:
        return None
    heads, cs, bs = parts[1::3], parts[2::3], parts[3::3]
    del parts
    head_texts = set(heads)
    if not all(head.startswith("\nI ") for head in head_texts):
        return None
    try:
        set_texts = set(cs).union(bs, [head[2:] for head in head_texts])
        masks = {part: parse_set(universe, part) for part in set_texts}
    except ValueError:
        return None
    head_masks = {head: masks[head[2:]] for head in head_texts}
    a = list(map(head_masks.__getitem__, heads))
    c = list(map(masks.__getitem__, cs))
    b = list(map(masks.__getitem__, bs))
    del heads, cs, bs
    if any(map(and_, a, c)) or any(map(and_, a, b)) or any(map(and_, c, b)):
        return None
    keys = frozenset(pack_keys(universe.n, a, c, b))
    return (universe, keys) if len(keys) == len(a) else None


def _raise_first_fault(text: str, *, source: str | None) -> NoReturn:
    """Raise the ``FormatError`` of the first bad line of a model text,
    header included, reading one line at a time.

    ``parse_model`` calls this only for a text its column pass rejected, so
    some line is bad.
    """
    universe, lines = _header_and_lines(text, source=source)
    seen: set[Triple] = set()
    try:  # around the loop, not in it: one location for every line's error
        for lineno, content in lines:
            if not content.startswith("I ") and content != "I":
                raise ValueError(f"expected 'I <set> | <set> | <set>', found {content!r}")
            triple = parse_triple(universe, content[1:])
            if triple in seen:
                raise ValueError(f"duplicate triple 'I {format_triple(universe, triple)}'")
            seen.add(triple)
    except ValueError as exc:
        raise FormatError(str(exc), source=source, line=lineno) from None
    raise AssertionError("the column pass rejected a model text with no bad line")


def format_model(model: IndependencyModel) -> str:
    """Write a model file, triples in ascending key order, i.e. ``(a, c, b)`` order.

    Each distinct set is written once per call, through a dict from mask to
    text that is not kept between calls.
    """
    u = model.universe
    sets = list(unpack_keys(u.n, sorted(model.keys)))
    text = {m: format_set(u, m) for m in set().union(*sets)}
    lines = [_vars_line(u)] + [f"I {text[a]} | {text[c]} | {text[b]}" for a, c, b in sets]
    return "\n".join(lines) + "\n"


def _parse_pair_lines(
    text: str, separator: str, *, source: str | None
) -> tuple[Universe, set[tuple[int, int]]]:
    """The universe and the pairs of a graph (``--``, unordered pairs) or DAG
    (``->``, ordered pairs) file.

    The first repeated pair is an error at its line, raised once every line
    has parsed, so a malformed line anywhere in the file is reported first.
    """
    _check_text(text)
    universe, lines = _header_and_lines(text, source=source)
    pairs: set[tuple[int, int]] = set()
    duplicate = None
    try:  # around the loop, not in it: one location for every line's error
        for lineno, content in lines:
            parts = content.split(separator)
            if len(parts) != 2:
                raise ValueError(f"expected '<label> {separator} <label>', found {content!r}")
            u = universe.index(parts[0].strip())
            v = universe.index(parts[1].strip())
            if u == v:
                raise ValueError(f"self-loop at {parts[0].strip()!r}")
            pair = (v, u) if separator == "--" and v < u else (u, v)
            if pair in pairs and duplicate is None:
                kind = "edge" if separator == "--" else "arc"
                duplicate = FormatError(
                    f"duplicate {kind} {universe.names[u]} {separator} {universe.names[v]}",
                    source=source,
                    line=lineno,
                )
            pairs.add(pair)
    except ValueError as exc:
        raise FormatError(str(exc), source=source, line=lineno) from None
    if duplicate is not None:
        raise duplicate
    return universe, pairs


def _format_pairs(universe: Universe, pairs: frozenset[tuple[int, int]], separator: str) -> str:
    lines = [_vars_line(universe)]
    for i, j in sorted(pairs):
        lines.append(f"{universe.names[i]} {separator} {universe.names[j]}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str, *, source: str | None = None) -> UndirectedGraph:
    universe, edges = _parse_pair_lines(text, "--", source=source)
    return UndirectedGraph(universe, frozenset(edges))


def format_graph(graph: UndirectedGraph) -> str:
    return _format_pairs(graph.universe, graph.edges, "--")


def parse_dag(text: str, *, source: str | None = None) -> Dag:
    universe, arcs = _parse_pair_lines(text, "->", source=source)
    try:
        return Dag(universe, frozenset(arcs))
    except ValueError as exc:
        raise FormatError(str(exc), source=source) from None


def format_dag(dag: Dag) -> str:
    return _format_pairs(dag.universe, dag.arcs, "->")


def read_text(path: str | Path) -> str:
    """``path``'s text less a leading BOM; undecodable bytes raise ``FormatError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(str(exc), source=str(Path(path))) from None


def load_model(path: str | Path) -> IndependencyModel:
    return parse_model(read_text(path), source=str(Path(path)))


def load_graph(path: str | Path) -> UndirectedGraph:
    return parse_graph(read_text(path), source=str(Path(path)))


def load_dag(path: str | Path) -> Dag:
    return parse_dag(read_text(path), source=str(Path(path)))
