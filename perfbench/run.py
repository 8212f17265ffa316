"""cimodels benchmark: one command that measures a workload and checks its outputs.

    python3 perfbench/run.py --workload causal-scan --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh single-threaded process (``worker.py``) with a
fixed ``PYTHONHASHSEED``; the worker also times set-up in fresh processes of
its own (``setup_time.py``).
Prints one line per metric with its unit and sample count, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. Other modes:

    --workload all   every workload in turn, a table of every end-to-end metric
    --probe          time the single calls of the ROADMAP baseline table
    --selftest       check every named metric is emitted and that a corrupted
                     golden digest is counted as a failure
    --record         rewrite the golden digests from the current library

Exit code 0 only when the run finished; ``correct`` says whether every output
matched. See ``NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from setup_time import ROOT, SRC, run_child, setup_time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(ROOT, ".bench_out")
PROBE_SETUP_RUNS = 12
MAINTENANCE_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_timeout(seconds: float) -> float:
    """Room for building inputs, set-up samples, the warm-up, the last pass
    past ``seconds`` and the checks."""
    return 2 * seconds + 110


def run_worker(workload: str, seed: int, seconds: float, trace: int, mode: str = "run", corrupt: str | None = None) -> dict:
    argv = [
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", WORKDIR,
        "--mode", mode,
    ]
    if corrupt:
        argv += ["--corrupt", corrupt]
    # --probe and --record run every expensive operation once, unbounded by --seconds.
    timeout = worker_timeout(seconds) if mode == "run" else MAINTENANCE_TIMEOUT_S
    return json.loads(run_child(argv, timeout).strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of the workload in a fresh worker process."""
    result = run_worker(workload, seed, seconds, trace)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    m = result["machine"]
    samples = result["samples"]
    print(f"# {workload} seed={seed} trace={trace} python={m['python']} nproc={m['nproc']} "
          f"cpus={m['cpu_count']} machine={m['machine']} ({m['system']})")
    print(f"# inputs built in {result['inputs_s']:.2f} s; {result['golden_keys']} operations had goldens; "
          f"samples: {json.dumps(samples)}")
    for name, entry in result["metrics"].items():
        count = samples.get("setup_runs" if name == "setup_s" else "ops")
        print(f"{workload}  {name:<48} {entry['value']:>14.6g} {entry['unit']:<6} (n={count})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}  {'failed_ratio':<48} {failed / attempted:>14.6g} ratio  (n={attempted})")
    for line in result["failures"]:
        print(f"# FAILED {line}", file=sys.stderr)


def final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def selftest(spec: dict, seed: int) -> int:
    """Every named metric comes out with its unit, and a bad golden is caught."""
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            result = measure(workload, seed, 2, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ: {sorted(set(got) ^ set(want))}")
            if result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed: {result['failures']}")
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_worker(workload, seed, 2, 0, corrupt="s0")
        if not result["failed"] > 0:
            problems.append(f"{workload}: a corrupted golden digest was not counted as a failure")
    for line in problems:
        print(f"SELFTEST FAIL {line}")
    print("SELFTEST " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


PROBE_ROWS = (
    ("enumerate_disjoint_triples n=5 / n=6", ("q-enumerate_disjoint_triples-5", "q-enumerate_disjoint_triples-6")),
    ("dsep_model n=5 / n=6", ("q-dsep_model-5", "q-dsep_model-6")),
    ("enumerate_dags n=5 (29,281)", ("q-enumerate_dags-5",)),
    ("verify_counterexample (543 DAGs, no witness)", ("q-verify_counterexample",)),
    ("scan_causal_witness n=5, no witness (5-cycle separation model)", ("q-scan_causal_witness-5-cycle",)),
    ("model_satisfies weak_union / contraction, n=4", ("q-model_satisfies-weak_union-4", "q-model_satisfies-contraction-4")),
    ("CLI formula eval weak_union, n=5 model (in process)", ("q-cli-formula-eval-weak_union-5",)),
    ("CLI repro counterexample --json (in process)", ("q-repro-json",)),
)


def probe(seed: int) -> int:
    result = run_worker("causal-scan", seed, 0, 0, mode="probe")
    setup_time()  # warm-up: the first interpreter also writes the bytecode caches
    times = [setup_time() for _ in range(PROBE_SETUP_RUNS)]
    setup, runs = statistics.median(times), len(times)
    rows = result["probes"]
    m = result["machine"]
    print(f"Python {m['python']}, {m['nproc']} CPUs, {m['machine']} ({m['system']})\n")
    print("| layer / command | time |\n|---|---|")
    for label, keys in PROBE_ROWS:
        times = " / ".join(f"{rows[k][0] * 1000:.1f} ms" for k in keys)
        print(f"| `{label}` | {times} |")
    print(f"| set-up: import + CLI parser + 4-node DAG fill (median of {runs}) | {setup * 1000:.1f} ms |")
    for line in result["failures"]:
        print(f"# FAILED {line}", file=sys.stderr)
    return 0 if result["failed"] == 0 else 1


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="cimodels benchmark")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "cimodels", "__init__.py")):
        print(f"error: the cimodels sources are missing under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.probe:
            return probe(args.seed)
        if args.selftest:
            return selftest(spec, args.seed)
        if args.record:
            for name in names if args.workload == "all" else [args.workload]:
                result = run_worker(name, args.seed, 0, 0, mode="record")
                print(f"{name}: recorded {result['attempted']} digests, {result['failed']} failed {result['failures']}")
                if result["failed"]:
                    return 1
            return 0
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.trace, results[name])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(final_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
