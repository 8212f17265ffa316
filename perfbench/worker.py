"""One workload in one fresh process: build inputs, warm up, measure, check.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED`` and ``src`` on
``PYTHONPATH``; prints one JSON object on its last stdout line. Modes:

- measured run (``--trace 0``): passes over the workload's stream back to
  back for ``--seconds``, with set-up timed in fresh interpreters between
  them. Each distinct operation's latency and CPU time is the least of its
  runs. End-to-end metrics come from this run alone.
- traced run (``--trace 1``): every distinct operation once untraced and
  once traced, then the workload's probes traced. Per-layer metrics come from
  the traced spans; the ratio of the two wall times is
  ``trace_overhead_ratio``.
- ``--probe``: every probe of every workload, timed alone (ROADMAP table).
- ``--record``: every operation once, digests written as the goldens.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

from setup_time import setup_time
from spans import NullTracer, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, cycle_scan_probe, digest

HERE = os.path.dirname(os.path.abspath(__file__))
# The reference recomputation is slower than the library, so a run verifies
# the first stream operations and the probes; panel operations are covered by
# goldens at every seed, and --record verifies everything.
VERIFIED_STREAM_OPS = 100
REPORTED_FAILURES = 5
MIN_PASSES = 3
SETUP_RUNS = 16


class Ledger:
    """Digests and check payloads per operation key, and the failures found.

    The first run of a key is compared with its golden (when one exists) and
    later runs with the first, so every run of an operation is checked.
    """

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.first: dict[str, tuple[str | None, object]] = {}
        self.runs: dict[str, int] = {}
        self.ops: dict[str, object] = {}
        self.bad_runs = 0
        self.bad_keys: dict[str, str] = {}

    def record(self, op, result, error: str | None) -> None:
        key = op.key
        self.runs[key] = self.runs.get(key, 0) + 1
        value = None if error else digest(result[0])
        if key not in self.first:
            self.first[key] = (value, None if error else result[1])
            self.ops[key] = op
            if error:
                self.bad_keys[key] = error
            elif key in self.expected and self.expected[key] != value:
                self.bad_keys[key] = f"digest {value} differs from golden {self.expected[key]}"
        elif value != self.first[key][0] and key not in self.bad_keys:
            self.bad_runs += 1

    def run_checks(self, verify_keys) -> None:
        """The seed-independent checks of every operation that ran, and the
        reference recomputation of those in ``verify_keys``."""
        for key, (value, payload) in self.first.items():
            op = self.ops[key]
            checks = [op.check, op.verify if key in verify_keys else None]
            for check in filter(None, checks):
                if key in self.bad_keys:
                    break
                try:
                    problem = check(payload)
                except Exception as exc:  # a check that crashes is a failed check
                    problem = f"check raised {exc!r}"
                if problem:
                    self.bad_keys[key] = problem

    @property
    def failed(self) -> int:
        return self.bad_runs + sum(self.runs[k] for k in self.bad_keys)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())


def execute(op, tracer, ledger: Ledger) -> tuple[float, float]:
    """Run one operation and record its outcome; return its wall and CPU time."""
    cpu, start = process_time(), perf_counter()
    try:
        result = tracer.call("op." + op.kind, op.run, tracer)
        error = None
    except Exception as exc:  # one failing operation must not end the run
        result, error = None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"
    latency, cpu = perf_counter() - start, process_time() - cpu
    ledger.record(op, result, error)
    return latency, cpu


def warm_up(workload, tracer, ledger: Ledger) -> None:
    """One operation of each stream kind, so lazy fills happen before timing."""
    seen = set()
    for op in workload.stream:
        if op.kind not in seen:
            seen.add(op.kind)
            execute(op, tracer, ledger)


def measured_run(workload, seconds: float, ledger: Ledger) -> dict:
    """Passes over the stream until ``seconds`` of them have run (at least
    ``MIN_PASSES`` whole ones), with the set-up samples spread between the
    passes.

    Every distinct operation keeps the least wall and CPU time of its runs.
    The machine this is made for is shared: over 10-second windows, the
    summed least times of the same operations varied by half, while their
    least times over the whole measurement moved little. So the measured run
    repeats only the stream, whose operations take milliseconds, and not the
    panel, whose operations take seconds and could run only once or twice.
    Set-up is sampled in fresh interpreters between passes for the same
    reason: samples taken at one moment all share that moment's speed.
    """
    tracer = NullTracer()
    warm_up(workload, tracer, ledger)
    setup_time()  # warm-up: the first interpreter also writes the bytecode caches
    setups: list[float] = []
    best: dict[str, list[float]] = {}
    passes = runs = 0
    measured = 0.0  # seconds spent in passes, not in set-up samples
    while passes < MIN_PASSES or measured < seconds:
        while len(setups) < SETUP_RUNS * min(1.0, measured / seconds):
            setups.append(setup_time())
        start = perf_counter()
        for op in workload.stream:
            wall, cpu = execute(op, tracer, ledger)
            least = best.setdefault(op.key, [wall, cpu])
            least[0], least[1] = min(least[0], wall), min(least[1], cpu)
            runs += 1
            # Once every operation has its runs, stop at ``seconds`` even in mid-pass.
            if passes >= MIN_PASSES and measured + perf_counter() - start >= seconds:
                break
        measured += perf_counter() - start
        passes += 1
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time())
    latencies = [w for w, _ in best.values()]
    ops = len(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "metrics": {
            "throughput_ops_s": (ops / sum(latencies), "ops/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_p90_ms": (deciles[8] * 1000, "ms"),
            "cpu_ms_per_op": (sum(c for _, c in best.values()) / ops * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "samples": {"ops": ops, "runs": runs, "passes": passes, "wall_s": measured, "setup_runs": len(setups)},
    }


def traced_run(workload, ledger: Ledger, trace_path: str, meta: dict) -> dict:
    """Every distinct operation untraced, then traced, then the probes traced."""
    ops = workload.distinct()
    null = NullTracer()
    warm_up(workload, null, ledger)
    start = perf_counter()
    for op in ops:
        execute(op, null, ledger)
    untraced = perf_counter() - start

    tracer = Tracer()
    start = perf_counter()
    for index, op in enumerate(ops):
        tracer.op = index
        execute(op, tracer, ledger)
    traced = perf_counter() - start
    for index, op in enumerate(workload.probes, start=len(ops)):
        tracer.op = index
        execute(op, tracer, ledger)
    tracer.write(trace_path, dict(meta, ops=[op.key for op in ops + workload.probes]))
    return {"metrics": layer_metrics(tracer, traced / untraced), "samples": {"ops": len(ops), "spans": len(tracer.spans)}}


# A traced run reports every per-layer metric for every workload, so that
# the same names can be compared across workloads: a function the workload
# never calls reports 0 calls and 0 s. Only the end-to-end metrics, which
# carry bounds relative to a previous run, must never be 0.
LAYER_FUNCTIONS = (
    "core.enumerate_disjoint_triples",
    "core.model_equals",
    "core.IndependencyModel.restrict",
    "ugraph.UndirectedGraph",
    "ugraph.UndirectedGraph.separation_model",
    "ugraph.UndirectedGraph.separates",
    "ugraph.UndirectedGraph.marginal_graph",
    "dag.Dag",
    "dag.Dag.dsep_model",
    "dag.Dag.d_separates",
    "dag.Dag.d_separates_moral",
    "dag.enumerate_dags",
    "represent.is_graph_isomorph",
    "represent.scan_causal_witness",
    "represent.check_semigraphoid",
    "logic.parse_formula",
    "logic.format_formula",
    "logic.model_satisfies",
    "logic.parse_clause",
    "logic.check_clause",
    "logic.entails",
    "formats.parse_model",
    "formats.format_model",
    "cli.main",
    "repro.verify_counterexample",
)


def layer_metrics(tracer, overhead: float) -> dict:
    totals = tracer.layer_totals()
    c = tracer.counters
    metrics = {}
    for name in LAYER_FUNCTIONS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    scanned = c["represent.scan_causal_witness.dags_scanned"]
    metrics.update(
        {
            "represent.scan_causal_witness.dags_scanned": (scanned, "count"),
            "represent.scan_causal_witness.hit_ratio": (c["represent.scan_causal_witness.witnesses"] / scanned if scanned else 0.0, "ratio"),
            "represent.check_semigraphoid.violations": (c["represent.check_semigraphoid.violations"], "count"),
            "dag.enumerate_dags.dags": (c["dag.enumerate_dags.dags"], "count"),
            "core.triples_enumerated": (c["core.triples_enumerated"], "count"),
            "logic.valuations_total": (c["logic.valuations_total"], "count"),
            "logic.valid_valuation_ratio": (
                c["logic.valuations_valid"] / c["logic.valuations_total"] if c["logic.valuations_total"] else 0.0,
                "ratio",
            ),
            "formats.format_model.bytes": (c["formats.format_model.bytes"], "bytes"),
            "op.glue_s": (sum(v["self_s"] for k, v in totals.items() if k.startswith("op.")), "s"),
            "trace_overhead_ratio": (overhead, "ratio"),
        }
    )
    return metrics


def probe_run(workdir: str, seed: int) -> dict:
    """Time every probe of every workload alone: median of three runs, one if slow."""
    null = NullTracer()
    ledger = Ledger(load_goldens(None))
    rows = {}
    ops = [cycle_scan_probe()]
    for build in WORKLOADS.values():
        ops += build(seed, workdir).probes
    for op in ops:
        times = [execute(op, null, ledger)[0]]
        if times[0] < 1.0:
            times += [execute(op, null, ledger)[0] for _ in range(2)]
        rows[op.key] = (statistics.median(times), len(times))
    ledger.run_checks({op.key for op in ops})
    return {"probes": rows, "attempted": ledger.attempted, "failed": ledger.failed, "failures": failures(ledger)}


def load_goldens(name: str | None, seed: int | None = None) -> dict[str, str]:
    """Panel and probe goldens hold for every seed, stream goldens for one.

    With no workload name, the probe goldens of every workload.
    """
    expected = {}
    for workload in WORKLOADS if name is None else (name,):
        path = os.path.join(HERE, "goldens", f"{workload}.json")
        with open(path) as fh:
            data = json.load(fh)
        expected.update(data["probes"])
        if name is None:
            continue
        expected.update(data["panel"])
        if seed == DEFAULT_SEED == data["seed"]:
            expected.update(data["stream"])
    return expected


def record_goldens(name: str, workload, seed: int) -> dict:
    ledger = Ledger({})
    null = NullTracer()
    ops = workload.stream + workload.panel + workload.probes
    for op in ops:
        execute(op, null, ledger)
    ledger.run_checks({op.key for op in ops})
    if ledger.failed:
        return {"attempted": ledger.attempted, "failed": ledger.failed, "failures": failures(ledger)}
    digests = {key: value for key, (value, _) in ledger.first.items()}
    data = {
        "seed": seed,
        "stream": {op.key: digests[op.key] for op in workload.stream},
        "panel": {op.key: digests[op.key] for op in workload.panel},
        "probes": {op.key: digests[op.key] for op in workload.probes},
    }
    with open(os.path.join(HERE, "goldens", f"{name}.json"), "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return {"attempted": ledger.attempted, "failed": 0, "failures": []}


def failures(ledger: Ledger) -> list[str]:
    return [f"{key}: {why}" for key, why in list(ledger.bad_keys.items())[:REPORTED_FAILURES]]


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("run", "probe", "record"), default="run")
    parser.add_argument("--corrupt", help="flip the golden of this key (self-test only)")
    args = parser.parse_args()

    if args.mode == "probe":
        print(json.dumps(dict(probe_run(args.workdir, args.seed), machine=machine())))
        return 0
    build_start = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    inputs_s = perf_counter() - build_start
    # The prebuilt inputs are the benchmark's, not the library's: keep the
    # collector from rescanning them during every operation that allocates.
    gc.collect()
    gc.freeze()
    if args.mode == "record":
        if args.seed != DEFAULT_SEED:
            parser.error(f"goldens are recorded at the default seed {DEFAULT_SEED}")
        print(json.dumps(record_goldens(args.workload, workload, args.seed)))
        return 0

    expected = load_goldens(args.workload, args.seed)
    if args.corrupt:
        expected[args.corrupt] = "0" * 16
    ledger = Ledger(expected)
    meta = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    if args.trace:
        path = os.path.join(args.workdir, f"trace-{args.workload}-{args.seed}.json")
        result = traced_run(workload, ledger, path, meta)
        result["trace_file"] = path
    else:
        result = measured_run(workload, args.seconds, ledger)
    ledger.run_checks({op.key for op in workload.stream[:VERIFIED_STREAM_OPS] + workload.probes})
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=failures(ledger),
        inputs_s=inputs_s,
        machine=meta["machine"],
        golden_keys=sum(1 for k in ledger.first if k in expected),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
