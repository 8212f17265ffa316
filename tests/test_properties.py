"""Property tests on random triple sets over 1-5 labels, symmetric and not:
``check_semigraphoid`` returns exactly ``oracles.check_semigraphoid_reference``'s
list, and a model survives ``format_model`` then ``parse_model``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cimodels.core import IndependencyModel
from cimodels.formats import format_model, parse_model
from cimodels.represent import check_semigraphoid

from oracles import all_triples, check_semigraphoid_reference, universe_of_size


@st.composite
def random_models(draw):
    """A model of a random set of triples, closed under swapping the related
    sets in about half the draws."""
    n = draw(st.integers(1, 5))
    chosen = draw(st.sets(st.sampled_from(all_triples(n)), max_size=150))
    if draw(st.booleans()):
        chosen |= {t.reverse() for t in chosen}
    return IndependencyModel(universe_of_size(n), chosen)


@settings(max_examples=300, deadline=None)
@given(random_models())
def test_random_models_check_and_round_trip(model):
    assert check_semigraphoid(model) == check_semigraphoid_reference(model)
    assert parse_model(format_model(model)) == model
