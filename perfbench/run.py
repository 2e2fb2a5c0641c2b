"""flrwave benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout.  The workload runs in a fresh process
(``perfbench/worker.py``) that imports flrwave from the checkout's ``src``
and drives ``flrwave.cli.main`` in-process, one command after the other.
``setup_s`` is the median time from starting such a process until
flrwave.cli is imported, over SETUP_SAMPLES starts.  Every worker runs on
one CPU (see ``pin_one_cpu``).  With ``--trace 0`` the last line holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
metrics of a separate traced run.  Metric names and units come from BENCHMARK.json.  A record of every run, with the
machine it ran on, goes to ``.perfbench/results/``.
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
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
RESULTS = ROOT / ".perfbench" / "results"
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    """What the numbers were measured on."""
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
    }


def pin_one_cpu() -> int:
    """Restrict this process, and so every worker it starts, to one CPU.

    The 4- and 8-thread pools of ``pde sweep`` and ``ode sweep`` hand the GIL
    between threads.  Spread over two cores, each hand-off crosses cores, and
    how much time that burns depends on whether the other core is free at the
    moment, that is on whatever else the host runs: over 10 runs on a shared
    2-core VM the CPU time of ``pde sweep`` spread 0.36 of its median.  On one
    core the threads take turns, and the speed gauge in ``worker.py``
    runs on the same core as the commands it rescales.  The pools' extra
    cost on two cores is left out of these numbers; BASELINE.md records it.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _finish(proc, deadline: float) -> str:
    """Wait for a worker and return its stdout; kill it if it outlives the
    deadline, or if this process is stopped first."""
    try:
        return proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))[0]
    except subprocess.TimeoutExpired:
        raise BenchError(f"a worker did not finish within {TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _start(args: list, deadline: float):
    """Start a worker; returns it and its time from start to "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        line = proc.stdout.readline()
    except BaseException:
        _finish(proc, deadline)
        raise
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    cpus = len(os.sched_getaffinity(0))
    cpu = pin_one_cpu()
    load_start = os.getloadavg()[0]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = _start(["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = _start(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    setups.append(setup_s)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker failed (exit code {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["machine"] = {
        **machine(), "nproc": cpus, "pinned_cpu": cpu,
        "load1_start": load_start, "load1_end": os.getloadavg()[0],
    }
    return result


def report(result: dict, metrics: list, values: dict) -> dict:
    """The result object of the contract: the given metrics, named, with units."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def show(workload: str, result: dict, summary: dict) -> None:
    """Human-readable lines: failed checks, every metric with its unit, the machine."""
    for problem in result["problems"]:
        print(f"{workload}: FAILED {' '.join(problem['argv'])}: {problem['problems']}",
              file=sys.stderr)
    lines = [(name, m["value"], m["unit"]) for name, m in summary["metrics"].items()]
    if "wall_ref_s" in summary["metrics"]:
        lines += [("wall_s", result["wall_s"], "s"), ("cpu_s", result["cpu_s"], "s")]
    lines.append(("failed_share", result["failed"] / result["attempted"], "ratio"))
    refine_err = result["lifespan_refine_err"]
    if refine_err is not None and "lifespan_refine_err" not in summary["metrics"]:
        lines.append(("lifespan_refine_err", refine_err, "ratio"))
    for name, value, unit in lines:
        print(f"{workload:<11} {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({"machine": result["machine"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that _finish still stops the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")

    summaries = {}
    for workload in workloads:
        try:
            result = measure(workload, args.seed, seconds, args.trace)
        except (BenchError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        RESULTS.mkdir(parents=True, exist_ok=True)
        record = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        if args.trace:
            summaries[workload] = report(result, spec["per_layer"], result["layers"])
        else:
            summaries[workload] = report(result, spec["end_to_end"], result)
        show(workload, result, summaries[workload])
    print(json.dumps(summaries if args.workload == "all" else summaries[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
