"""Read-only concurrency: immutable values shared across threads give the
same answers as serial use, and enumerations partition by index range.
"""

from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

from cimodels.core import enumerate_disjoint_triples, model_equals
from cimodels.dag import Dag, enumerate_dags
from cimodels.represent import is_causal

from oracles import universe_of_size


def test_concurrent_queries_match_serial():
    u = universe_of_size(4)
    dag = Dag(u, frozenset({(0, 1), (2, 1), (1, 3)}))
    triples = list(enumerate_disjoint_triples(u))
    serial = [dag.d_separates(t.a, t.c, t.b) for t in triples]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda t: dag.d_separates(t.a, t.c, t.b), triples))
    assert threaded == serial


def test_partitioned_scan_agrees_with_is_causal():
    u = universe_of_size(3)
    model = Dag(u, frozenset({(0, 1), (1, 2)})).dsep_model()
    dags = list(enumerate_dags(u))
    quarters = [dags[i::4] for i in range(4)]

    def first_match(chunk):
        for d in chunk:
            if model_equals(d.dsep_model(), model):
                return d
        return None

    with ThreadPoolExecutor(max_workers=4) as pool:
        hits = [d for d in pool.map(first_match, quarters) if d is not None]
    witness = is_causal(model).witness
    assert witness.arcs in {d.arcs for d in hits}


def test_enumeration_is_lazy_at_the_gate_size():
    u = universe_of_size(5)
    first = list(islice(enumerate_dags(u), 3))
    assert first[0].arcs == frozenset()
    assert len(first) == 3


def test_cli_help_exits_zero(capsys):
    from cimodels.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "repro" in capsys.readouterr().out
