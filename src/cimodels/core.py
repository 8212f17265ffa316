"""Finite variable universes, variable sets as bitmasks, independence triples,
and extensional independency models.

Variable sets are plain ``int`` bitmasks: bit ``i`` stands for the ``i``-th
label of the owning :class:`Universe`. All types are immutable after
construction and every operation is pure, so values may be shared freely
across threads.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import product, repeat, starmap
from operator import lshift, or_
from typing import Callable, Iterable, Iterator

MAX_UNIVERSE_SIZE = 16
# Largest universe whose 4**n triples are enumerated; the edgeless graph keeps
# all of them (n=10: 1,048,576 triples).
MAX_TRIPLE_ENUM_NODES = 10


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask``, from ``mask`` itself down to 0."""
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of subsets")
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


_set = object.__setattr__  # past Record.__setattr__, into the compact inline values


class Record:
    """Base of the library's immutable value types, in place of a frozen dataclass.

    A direct subclass's annotations are its fields, kept in ``__match_args__``.
    As a dataclass does, it generates ``==`` and ``hash`` over the field tuple,
    and an ``__init__`` that sets the fields with ``_set`` unless the class
    writes its own; ``repr`` shows the fields, and every write is refused.
    Deeper subclasses inherit all of these, as undecorated dataclass subclasses do.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if Record not in cls.__bases__:
            return
        fields = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        mine = "".join(f"self.{f}," for f in fields)
        code = [
            "def __eq__(self, other):",
            "    if other.__class__ is not self.__class__: return NotImplemented",
            f"    return ({mine}) == ({mine.replace('self.', 'other.')})",
            f"def __hash__(self): return hash(({mine}))",
        ]
        if fields and "__init__" not in vars(cls):
            code += [f"def __init__(self, {', '.join(fields)}):"]
            code += [f"    _set(self, {f!r}, {f})" for f in fields]
        exec("\n".join(code), {"_set": _set}, made := {})
        for name, method in made.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded only when a write is refused
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Universe(Record):
    """An ordered list of distinct variable labels.

    The position of a label is its bit index in every mask interpreted
    against this universe. ``n`` and ``full_mask``, read on every reach, are
    plain attributes set once from ``names``; only ``names`` is a field.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]) -> None:
        if isinstance(names, str):
            raise ValueError(f"expected a collection of labels, not the string {names!r}")
        names = tuple(names)
        if not 1 <= len(names) <= MAX_UNIVERSE_SIZE:
            raise ValueError(
                f"universe must have between 1 and {MAX_UNIVERSE_SIZE} labels, got {len(names)}"
            )
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("labels must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError("labels must be pairwise distinct")
        _set(self, "names", names)
        _set(self, "n", len(names))
        _set(self, "full_mask", (1 << len(names)) - 1)

    @cached_property
    def _bits(self) -> dict[str, int]:
        """Each label's one-bit mask, built on first use: the one label lookup."""
        return {label: 1 << i for i, label in enumerate(self.names)}

    def index(self, label: str) -> int:
        try:
            return self._bits[label].bit_length() - 1
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"unknown label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        if isinstance(labels, str):
            raise ValueError(f"expected a collection of labels, not the string {labels!r}")
        try:
            return reduce(or_, map(self._bits.__getitem__, labels), 0)
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r}") from None
        except TypeError as exc:  # an unhashable label, not named by the lookup
            raise ValueError(f"unknown label: {exc}") from None

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.names[i] for i in bits_of(mask))

    def check_mask(self, mask: int) -> None:
        """Raise unless ``mask`` only uses bits below this universe's size."""
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#x} has bits outside the {self.n}-label universe")

    def check_nodes(self, *nodes: int) -> None:
        """Raise ``ValueError`` unless each of ``nodes`` is a node index of this universe."""
        for i in nodes:
            if not 0 <= i < self.n:
                raise ValueError(f"node {i} outside the {self.n}-label universe")

    def subuniverse(self, mask: int) -> "Universe":
        """The universe of the labels selected by ``mask``, order preserved."""
        if mask == 0:
            raise ValueError("a universe needs at least one label")
        return Universe(self.labels_of(mask))


def check_disjoint(a: int, c: int, b: int) -> None:
    """Raise unless the three sets of a triple are pairwise disjoint."""
    if a & c or a & b or c & b:
        raise ValueError(f"triple sets must be pairwise disjoint: {a:#x}, {c:#x}, {b:#x}")


class Triple(Record):
    """One independence statement: an ordered triple of pairwise-disjoint sets.

    ``a`` and ``b`` are the two related sets, ``c`` the conditioning set.
    """

    __slots__ = ("a", "c", "b")
    a: int
    c: int
    b: int

    def __init__(self, a: int, c: int, b: int) -> None:
        check_disjoint(a, c, b)
        _set(self, "a", a)
        _set(self, "c", c)
        _set(self, "b", b)

    def __reduce__(self) -> tuple:
        return type(self), (self.a, self.c, self.b)  # the default sets slots through __setattr__

    @property
    def span(self) -> int:
        """Union of the three member sets."""
        return self.a | self.c | self.b


def pack_key(n: int, a: int, c: int, b: int) -> int:
    """The packed key of the triple ``(a, c, b)`` over ``n`` labels: ``a << 2n | c << n | b``."""
    return a << 2 * n | c << n | b


def pack_keys(n: int, a: Iterable[int], c: Iterable[int], b: Iterable[int]) -> Iterator[int]:
    """``pack_key`` over three mask columns, one ``map`` per step and no call per key."""
    ac = map(or_, map(lshift, a, repeat(2 * n)), map(lshift, c, repeat(n)))
    return map(or_, ac, b)


def unpack_keys(n: int, keys: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The ``(a, c, b)`` sets of each ``n``-label packed key, in the order given."""
    mask = (1 << n) - 1
    return ((k >> 2 * n, k >> n & mask, k & mask) for k in keys)


def key_places(n: int) -> list[tuple[int, int, int, int]]:
    """Per label ``i``, what it adds to a key when unused, in ``a``, in ``c`` or in ``b``."""
    bits = [1 << i for i in range(n)]
    return [(0, pack_key(n, x, 0, 0), pack_key(n, 0, x, 0), pack_key(n, 0, 0, x)) for x in bits]


@cache
def _submask_table(n: int) -> tuple[tuple[int, ...], ...]:
    """``tuple(submasks(m))`` for every ``m < 2**n``: ``3**n`` entries in all."""
    ints = list(range(1 << n))  # one int object per mask, shared by every row
    return tuple(tuple(map(ints.__getitem__, submasks(m))) for m in ints)


def _check_triple_gate(n: int) -> None:
    """Raise unless the ``4**n`` triples of ``n`` labels may be enumerated."""
    if n > MAX_TRIPLE_ENUM_NODES:
        raise ValueError(
            f"refusing to enumerate the 4**{n} triples of {n} > {MAX_TRIPLE_ENUM_NODES} labels"
        )


class ValuationBudgetError(RuntimeError):
    """Raised when exhaustive valuation enumeration would exceed the budget.

    The budget is ``logic.MAX_VALUATION_CHECKS``; the class lives here, with
    the other gates, so that catching it loads no formula code.
    """


def disjoint_keys(n: int) -> Iterator[int]:
    """The keys of the ``4**n`` disjoint triples, in ``enumerate_disjoint_triples`` order.

    Gated at ``MAX_TRIPLE_ENUM_NODES`` when called, before any key is made.
    """
    _check_triple_gate(n)
    return map(sum, product(*reversed(key_places(n))))


def enumerate_disjoint_triples(universe: Universe) -> Iterator[Triple]:
    """Yield every ordered triple of pairwise-disjoint sets exactly once.

    Order: triple ``k`` (for ``k`` in ``0 .. 4**n - 1``) places variable ``i``
    according to base-4 digit ``i`` of ``k``: 0 = unused, 1 = first set,
    2 = conditioning set, 3 = second set. There are exactly ``4**n`` triples.
    """
    return starmap(Triple, unpack_keys(universe.n, disjoint_keys(universe.n)))


def separated_keys(universe: Universe, reach: Callable[[int, int], int]) -> Iterator[int]:
    """Yield, once each, the keys of the disjoint triples a separation oracle separates.

    ``reach(a, c)`` is the set of nodes reachable from a nonempty ``a`` along
    paths that ``c`` leaves open, and must be the union of ``reach({i}, c)``
    over the members ``i`` of ``a``, as any search from a set of start states
    is. ``(a, c, b)`` is separated exactly when ``b`` misses that set, and
    vacuously when ``a`` or ``b`` is empty, so every submask of what the
    reach leaves free is a separated ``b``. ``reach`` runs only on singletons,
    ``n * 2**(n-1)`` times: ``a`` ascends, so the reach of a larger ``a`` is
    the union of two rows already tabled, its lowest member's and the rest's.
    The table grows with the keys yielded; no rest holds label 0, so the row
    of an ``a`` holding label 0 and more is dropped after its ``c`` loop. The
    empty ``a`` comes last. The ``c`` and ``b`` loops walk the cached
    ``_submask_table``, built after the gate at ``MAX_TRIPLE_ENUM_NODES``.
    """
    _check_triple_gate(universe.n)
    full, n = universe.full_mask, universe.n
    subs = _submask_table(n)
    rows: list[dict[int, int]] = [{} for _ in range(full + 1)]  # rows[a][c]: reach(a, c)
    for a in (*range(1, full + 1), 0):
        rest, low = full & ~a, a & -a
        row = {} if a & 1 and a != low else rows[a]
        upper, lower = rows[a ^ low], rows[low]
        for c in subs[rest]:
            free = rest & ~c
            if a:
                row[c] = reached = reach(a, c) if a == low else upper[c] | lower[c]
                free &= ~reached
            head = a << 2 * n | c << n  # pack_key inlined: a call here cost 5 % of causal-scan
            for b in subs[free]:
                yield head | b


def separated(universe: Universe, reach: Callable[[int, int], int], a: int, c: int, b: int) -> bool:
    """Decide ``(a, c, b)`` as ``separated_keys`` does, once its three sets are
    checked to be pairwise disjoint and inside ``universe``."""
    check_disjoint(a, c, b)
    universe.check_mask(a | c | b)
    return not (a and b and reach(a, c) & b)


def semigraphoid_closed(n: int, keys: frozenset[int]) -> bool:
    """True iff the packed keys of ``n`` labels violate no instance of the four
    semi-graphoid schemata as ``represent.check_semigraphoid`` lists them.

    Only one-step instances are tested: the keys are symmetric; a triple
    ``(a, c, b)`` with ``x`` in ``b`` brings ``(a, c, b-x)`` and
    ``(a, c+x, b-x)``; and with ``x`` in ``c``, ``(a, c-x, {x})`` and
    ``(a, c, b)`` bring ``(a, c-x, b+x)``. Each is an instance of symmetry,
    decomposition, weak union or contraction, so a closed set passes.
    Conversely, chains of the first steps give every decomposition and weak
    union. Contraction, from ``(a, c, b)`` and ``(a, c+b, d)`` to
    ``(a, c, b+d)``, goes by induction on ``|b|``. An empty ``b`` concludes
    the second premise. Else take ``x`` in ``b``: weak union gives
    ``(a, c+x, b-x)``, which with ``(a, c+x+(b-x), d)`` gives
    ``(a, c+x, b-x+d)`` by induction, and that with ``(a, c, {x})``, a
    decomposition, gives ``(a, c, b+d)`` in one step.

    A triple with ``a`` empty brings only triples with ``a`` empty; one with
    ``b`` empty brings back only its own premise ``(a, c-x, {x})``; each
    swaps to one with the other side empty. So when the keys hold all
    ``2 * 3**n - 2**n`` triples with an empty side, as every induced model
    does, only the others are tested. Time ``O(|keys| * n)``.
    """
    low, top = (1 << n) - 1, 2 * n
    inner = [k for k in keys if k >> top and k & low]
    tested = inner if len(keys) - len(inner) == 2 * 3**n - (1 << n) else keys
    held = keys.issuperset
    if not held((k & low) << top | k & low << n | k >> top for k in tested):
        return False
    for i in range(n):
        x = 1 << i
        move = x | x << n  # the bits that move x between c and b
        in_b = [k for k in tested if k & x]
        if not (
            held(k ^ x for k in in_b)
            and held(k ^ move for k in in_b)
            # x in c: the premise (a, c-x, {x}) is the same move made on (a, c, -).
            and held(k ^ move for k in tested if k & x << n and (k >> n << n) ^ move in keys)
        ):
            return False
    return True


class IndependencyModel(Record):
    """An extensional set of independence triples over a universe.

    No symmetry or axiom closure is applied: the model holds exactly the
    triples it was given. Membership of ``(A, C, B)`` does not imply
    membership of ``(B, C, A)`` unless both were added.

    Stored as ``keys``, one int ``a << 2n | c << n | b`` per triple (``n`` labels):
    ascending keys are in ``(a, c, b)`` order; ``triples`` decodes on first use.
    """

    universe: Universe
    keys: frozenset[int]

    def __init__(self, universe: Universe, triples: Iterable[Triple]) -> None:
        triples, n = frozenset(triples), universe.n
        try:  # around the loop, not in it: only a non-Triple lacks ``span``
            for t in triples:
                if t.span >> n:
                    raise ValueError(f"triple {t} uses bits outside the universe")
        except AttributeError:
            bad = next(t for t in triples if not isinstance(t, Triple))
            raise TypeError(f"triples must be Triple, not {type(bad).__name__}") from None
        keys = frozenset(pack_key(n, t.a, t.c, t.b) for t in triples)
        vars(self).update(universe=universe, keys=keys, triples=triples)

    @classmethod
    def _from_keys(cls, universe: Universe, keys: Iterable[int]) -> "IndependencyModel":
        """The model of ``keys``, taken as valid packed keys of ``universe``."""
        model = object.__new__(cls)
        vars(model).update(universe=universe, keys=frozenset(keys))
        return model

    @cached_property
    def triples(self) -> frozenset[Triple]:
        """The triples as ``Triple`` values; stored once wholly decoded."""
        return frozenset(starmap(Triple, unpack_keys(self.universe.n, self.keys)))

    def __contains__(self, triple: object) -> bool:
        n = self.universe.n
        fits = isinstance(triple, Triple) and not triple.span >> n
        return fits and pack_key(n, triple.a, triple.c, triple.b) in self.keys

    def __len__(self) -> int:
        return len(self.keys)

    def restrict(self, v_mask: int) -> "IndependencyModel":
        """The sub-model of the triples whose three sets all lie inside ``v_mask``.

        The result lives on the sub-universe selected by ``v_mask``; labels are
        preserved and bit indices are recompacted, so cross-universe
        comparisons go by label.
        """
        if v_mask == 0:
            raise ValueError("cannot restrict to the empty set of variables")
        sub = self.universe.subuniverse(v_mask)
        n, m = self.universe.n, sub.n
        inside = pack_key(n, v_mask, v_mask, v_mask)
        # Re-indexing keeps order, and submasks come in descending order.
        compact = dict(zip(submasks(v_mask), reversed(range(1 << m))))
        kept = unpack_keys(n, [k for k in self.keys if not k & ~inside])
        keys = [pack_key(m, compact[a], compact[c], compact[b]) for a, c, b in kept]
        return IndependencyModel._from_keys(sub, keys)


def model_equals(first: IndependencyModel, second: IndependencyModel) -> bool:
    """True iff the two models have identical triple sets.

    The models must share the same label list; comparing models over
    different universes is an error rather than ``False``.
    """
    if first.universe.names != second.universe.names:
        raise ValueError(
            f"universe mismatch: {first.universe.names} vs {second.universe.names}"
        )
    return first.keys == second.keys
