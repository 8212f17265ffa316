"""Set-up time: what every CLI invocation pays before its first answer.

One sample runs in a fresh interpreter and times importing the package and
the CLI, building the argument parser and filling the 4-node DAG list
(``enum dags --n 4 --count``). Interpreter start-up is not included.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_TIMEOUT_S = 60

SETUP_CODE = """
import contextlib, io, time
start = time.perf_counter()
import cimodels, cimodels.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cimodels.cli.main(["enum", "dags", "--n", "4", "--count"])
elapsed = time.perf_counter() - start
if code != 0:
    raise SystemExit(code)
print(repr(elapsed))
"""


def child_env() -> dict:
    """The environment of every child interpreter: a fixed hash seed, ``src`` importable."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child interpreter to completion and return its stdout.

    Raises ``RuntimeError`` when it fails, times out, or prints nothing.
    """
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{argv[:2]} timed out after {timeout:g} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_time() -> float:
    """The set-up time of one fresh interpreter, in seconds."""
    return float(run_child(["-c", SETUP_CODE], SETUP_TIMEOUT_S).strip())
