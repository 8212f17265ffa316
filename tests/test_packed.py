"""The packed-key model checked against ``oracles.ReferenceModel``, which
keeps the same triples as a plain set of ``Triple`` values.

The battery is every graph and DAG model on up to four labels, with the
reference built from the path-enumeration oracles, plus seeded random
models, symmetric and not.
"""

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest

from cimodels.core import IndependencyModel, Triple, model_equals
from cimodels.dag import enumerate_dags
from cimodels.formats import format_model, parse_model
from cimodels.represent import check_semigraphoid
from cimodels.ugraph import enumerate_undirected_graphs

from oracles import (
    ReferenceModel,
    all_triples,
    check_semigraphoid_reference,
    d_separates_by_paths,
    random_model,
    separates_by_paths,
    universe_of_size,
)


def battery(n):
    """(library model, reference model) pairs on ``n`` labels, one pair per
    distinct model (Markov-equivalent DAGs induce the same one)."""
    u = universe_of_size(n)
    triples = all_triples(n)
    pairs = {}
    structures = [(g, g.separation_model(), separates_by_paths) for g in enumerate_undirected_graphs(u)]
    structures += [(d, d.dsep_model(), d_separates_by_paths) for d in enumerate_dags(u)]
    for structure, model, decides in structures:
        if model not in pairs:
            kept = [t for t in triples if decides(structure, t.a, t.c, t.b)]
            pairs[model] = ReferenceModel(u, kept)
    rng = random.Random(n)
    for k in range(20):
        model = random_model(rng, u, rng.uniform(0.05, 0.6), symmetric=k % 2 == 0)
        pairs[model] = ReferenceModel(u, model.triples)
    return list(pairs.items())


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def pairs(request):
    return request.param, battery(request.param)


def test_three_constructions_agree(pairs):
    _, models = pairs
    for model, ref in models:
        built = IndependencyModel(ref.universe, ref.triples)
        reread = parse_model(format_model(model))
        assert built == model and reread == model and model_equals(built, reread)
        assert hash(built) == hash(model) == hash(reread)


def test_queries_agree_with_the_reference(pairs):
    n, models = pairs
    # Triples with a bit past the universe, and values that are not
    # triples, are in no model.
    outside = [Triple(1 << n, 0, 0), Triple(0, 1 << n, 0), Triple(0, 0, 1 << n), (0, 0, 0), None]
    for model, ref in models:
        assert model.triples == ref.triples
        assert len(model) == len(ref)
        assert all((t in model) == (t in ref) for t in all_triples(n) + outside)
        assert check_semigraphoid(model) == check_semigraphoid_reference(ref)


def test_restrict_agrees_with_the_reference(pairs):
    n, models = pairs
    for model, ref in models:
        for v_mask in range(1, 1 << n):
            sub, sub_ref = model.restrict(v_mask), ref.restrict(v_mask)
            assert sub.universe == sub_ref.universe
            assert sub.triples == sub_ref.triples
            assert sub == IndependencyModel(sub_ref.universe, sub_ref.triples)


def test_keys_are_in_triple_order():
    # Ascending keys list the triples in (a, c, b) order.
    u = universe_of_size(3)
    model = IndependencyModel(u, all_triples(3))
    decoded = sorted(model.triples, key=lambda t: (t.a, t.c, t.b))
    assert [(k >> 6, (k >> 3) & 7, k & 7) for k in sorted(model.keys)] == [
        (t.a, t.c, t.b) for t in decoded
    ]


def test_model_is_immutable():
    model = random_model(random.Random(1), universe_of_size(3))
    model.triples  # decoded and stored
    for name in ("keys", "triples", "universe"):
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, frozenset())


def test_bits_outside_the_universe_rejected():
    with pytest.raises(ValueError, match="uses bits outside the universe"):
        IndependencyModel(universe_of_size(2), [Triple(0, 0, 0b100)])


def test_lazy_triples_shared_across_threads():
    # Threads that read .triples of a fresh model all see the whole set.
    for dag in list(enumerate_dags(universe_of_size(5)))[::5000]:
        model = dag.dsep_model()
        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(lambda _: model.triples, range(8)))
        expected = {t for t in all_triples(5) if d_separates_by_paths(dag, t.a, t.c, t.b)}
        assert all(s == expected for s in seen)
        assert model.triples is model.triples
