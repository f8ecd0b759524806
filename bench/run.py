"""The repository benchmark: end-to-end and per-layer metrics of six workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the repository root, needs no installation (it puts ``src``
on the workers' ``PYTHONPATH``), and prints, per workload, one line of
host information and then one JSON result line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  Without ``--workload`` every
workload runs in turn.  Exit code 0 when every output check passed, 1
when one failed, 2 when a run could not complete.

Each run is a fresh worker process (``worker.py``) started with every
``REPRO_*`` variable removed; BLAS/OpenMP thread variables are passed
through as found and reported.  ``setup_s`` is the median over
several fresh processes, because the package import is part of set-up.
A fixed NumPy FFT loop is timed before and after each workload; the
ratio, ``host.ref_drift``, shows how much the host itself changed speed
meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work"

#: Set-up is measured in fresh processes, the measuring worker's own
#: included: at least SETUP_MIN_SAMPLES of them, more while they have
#: taken under SETUP_BUDGET_S, so that a cheap, noisy set-up (a 0.2 s
#: import) gets a steadier median than three samples would give.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 2.0

#: Wall-clock cap on all the worker processes of one workload.
WORKLOAD_TIMEOUT_S = 150.0

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out, or printed no result."""


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv, "--workdir", str(WORKDIR)],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"timed out: {' '.join(argv)}") from None
    finally:
        # Stop the worker and anything it left in its session (pool children).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerFailed(f"exit code {proc.returncode}: {' '.join(argv)}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkerFailed(f"no JSON result: {' '.join(argv)}") from None


def reference_seconds() -> float:
    """Median time of a fixed NumPy FFT loop: the host speed reference."""
    import numpy as np

    x = np.exp(1j * np.arange(1 << 15))
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(20):
            np.fft.fft(x)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def host_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_workload(name: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """``(contract result, info)`` of one workload."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    before = reference_seconds()
    common = [
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    setups: list[float] = []
    started = time.monotonic()
    while not args.trace and len(setups) < SETUP_MAX_SAMPLES - 1 and (
        len(setups) < SETUP_MIN_SAMPLES - 1 or time.monotonic() - started < SETUP_BUDGET_S
    ):
        setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
    extra = []
    if args.spans and args.trace:
        os.makedirs(args.spans, exist_ok=True)
        extra = ["--spans", os.path.join(args.spans, f"{name}.json")]
    payload = run_worker(common + extra, deadline)
    metrics = payload["metrics"]
    if not args.trace:
        setups.append(payload["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": payload["correct"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }
    info = {
        "workload": name,
        "seed": args.seed,
        "digest": payload["digest"],
        "passes": payload["passes"],
        "problems": payload["problems"],
        "setup_samples_s": setups,
        "host": {**host_info(), "ref_s": before, "ref_drift": reference_seconds() / before},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=22.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--spans", help="with --trace 1, write each workload's spans here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    status = 0
    try:
        for name in args.workload or list(WORKLOADS):
            try:
                result, info = run_workload(name, args)
            except WorkerFailed as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            print(json.dumps({"info": info}))
            print(json.dumps(result), flush=True)
            if not result["correct"]:
                status = 1
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    return status


if __name__ == "__main__":
    sys.exit(main())
