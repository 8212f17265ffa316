"""A bundled five-node DAG whose induced model, restricted to four of the
labels, is not inducible by any DAG on those four labels.

The restriction keeps four pairwise statements dependent under every
conditioning set while granting four specific independencies; any DAG
honoring all seven would need two opposite arcs between the same two nodes.
``verify_counterexample`` re-derives all of this mechanically and reports
the outcome.
"""

from __future__ import annotations

from typing import Any

from .core import Record, Triple, Universe
from .dag import Dag
from .represent import check_semigraphoid, dependent_always, scan_causal_witness

COUNTEREXAMPLE_LABELS = ("0", "1", "2", "3", "4")

# Arc list is a repository constant with its verification test adjacent, so a
# corrected drawing only needs this tuple swapped and the statement check rerun.
COUNTEREXAMPLE_ARCS = ((1, 2), (0, 2), (0, 3), (4, 3))

RESTRICTION_LABELS = ("1", "2", "3", "4")

DAGS_ON_FOUR_NODES = 543


class ReproReport(Record):
    """Outcome of the counterexample verification run."""

    statements_checked: tuple[tuple[str, bool], ...]
    dag_count_scanned: int
    causal_witness_found: bool
    semigraphoid_ok: bool

    @property
    def succeeded(self) -> bool:
        return (
            all(holds for _, holds in self.statements_checked)
            and self.dag_count_scanned == DAGS_ON_FOUR_NODES
            and not self.causal_witness_found
            and self.semigraphoid_ok
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "statements": [
                {"statement": name, "holds": holds}
                for name, holds in self.statements_checked
            ],
            "dags_scanned": self.dag_count_scanned,
            "causal_witness": self.causal_witness_found,
            "semigraphoid_ok": self.semigraphoid_ok,
            "succeeded": self.succeeded,
        }


def build_counterexample_dag() -> Dag:
    """The five-node DAG whose restricted model defeats every four-node DAG."""
    return Dag(Universe(COUNTEREXAMPLE_LABELS), frozenset(COUNTEREXAMPLE_ARCS))


def verify_counterexample() -> ReproReport:
    """Recompute the restricted model and check everything it must satisfy.

    Checks the seven statements the restriction is built around, scans every
    DAG on the four remaining labels for an inducing witness (expecting
    none), and confirms the restriction still passes the semi-graphoid
    closure check, so the failure is about DAG structure rather than a
    degenerate triple set. Failures are reported, not raised.
    """
    dag = build_counterexample_dag()
    model = dag.dsep_model()
    v_mask = dag.universe.mask_of(RESTRICTION_LABELS)
    restricted = model.restrict(v_mask)
    sub = restricted.universe

    def single(label: str) -> int:
        return 1 << sub.index(label)

    statements: list[tuple[str, bool]] = []
    for x, cond, y in (("1", (), "3"), ("1", ("4",), "3"), ("2", (), "4"), ("2", ("1",), "4")):
        triple = Triple(single(x), sub.mask_of(cond), single(y))
        name = f"I({x}, {','.join(cond) or '-'}, {y})"
        statements.append((name, triple in restricted))
    for x, y in (("1", "2"), ("3", "4"), ("2", "3")):
        holds = dependent_always(restricted, sub.index(x), sub.index(y))
        statements.append((f"dependent_always({x}, {y})", holds))

    witness, scanned = scan_causal_witness(restricted)
    violations = check_semigraphoid(restricted)
    return ReproReport(
        statements_checked=tuple(statements),
        dag_count_scanned=scanned,
        causal_witness_found=witness is not None,
        semigraphoid_ok=not violations,
    )
