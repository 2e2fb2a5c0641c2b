"""One workload process: import flrwave from the checkout's ``src``, say
"ready", then issue the workload's CLI commands back to back through
``flrwave.cli.main`` (one caller, a closed loop) until the time is up, and
print one JSON line with the measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe      # import, say "ready", exit

``perfbench/run.py`` starts this process and times it up to "ready".
With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench" / "out"


def import_cli():
    """flrwave.cli from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import flrwave.cli

    if not Path(flrwave.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flrwave was imported from {flrwave.cli.__file__}, not {SRC}")
    return flrwave.cli


def _call(main, argv):
    """Run one CLI command; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:  # a crash is a failed operation, not the end of the run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _written(outdirs) -> dict:
    files = [f for d in outdirs if d.is_dir() for f in d.iterdir()]
    return {
        "artifacts.rows": sum(
            f.read_bytes().count(b"\n") - 1 for f in files if f.suffix == ".csv"
        ),
        "artifacts.bytes_written": sum(f.stat().st_size for f in files),
    }


def kernel() -> None:
    """A fixed mix of interpreter arithmetic, float formatting and
    small-array numpy work that uses no flrwave code (about 1.6 ms)."""
    acc = 0.0
    for i in range(1, 4001):
        acc += math.sqrt(i) * 0.5
    ",".join([repr(i * 0.1) for i in range(800)])
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(40):
        np.abs(x) ** 1.5 * 0.5 + x


# kernel() takes about this much CPU time, in the gauge, at the speed the
# baseline was taken at (1.6 ms when nothing else runs between its calls).
KERNEL_S = 0.0022
GAUGE_PERIOD_S = 0.05


class SpeedGauge:
    """Measures how fast this core runs, all through a pass.

    On the shared VM the baseline comes from, a core's speed changes from
    one tenth of a second to the next, up to 2x, and over minutes its mean
    drifts.  A thread runs kernel() every GAUGE_PERIOD_S and records its
    thread CPU time.  Samples are evenly spaced in time, so the mean of
    KERNEL_S / sample over a pass is the pass's mean speed relative to the
    baseline's.  The kernel runs on the workload's one core and holds the
    GIL, so its time is taken off the pass's wall and CPU time.  It pauses
    during traced passes, whose per-layer times are not rescaled.
    """

    def __init__(self):
        self.paused = False
        self.samples = []  # (wall clock at the end, kernel CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-gauge", daemon=True)

    def _run(self):
        while not self._stop.wait(GAUGE_PERIOD_S):
            if self.paused:
                continue
            c0 = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self):
        kernel()  # the first call in a fresh process runs cold
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def window(self, start: float, end: float):
        """(mean speed, kernel CPU time) over the samples taken in [start, end]."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if not inside:
            return 1.0, 0.0
        return statistics.fmean(KERNEL_S / k for k in inside), sum(inside)


def run_pass(cli, name: str, cmds, traced: bool, gauge: SpeedGauge) -> dict:
    """One pass of the workload's commands; checks every output."""
    outroot = OUT / name
    shutil.rmtree(outroot, ignore_errors=True)
    outdirs = [outroot / str(i) for i in range(len(cmds))]
    main, tracer = cli.main, None
    if traced:
        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(cli.main, "cli.main")
    runs = []
    gauge.paused = traced
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, ((argv, _), outdir) in enumerate(zip(cmds, outdirs)):
            if tracer:
                tracer.cmd = i
            runs.append(_call(main, [*argv, "--out", str(outdir)]))
        wall1, cpu1 = time.perf_counter(), time.process_time()
    finally:
        if tracer:
            tracer.uninstall()
    speed, gauge_cpu = gauge.window(wall0, wall1)
    wall, cpu = wall1 - wall0 - gauge_cpu, cpu1 - cpu0 - gauge_cpu

    ctx, problems, failed = {}, [], 0
    for (argv, check), outdir, (code, out, err) in zip(cmds, outdirs, runs):
        if code == 0:
            try:
                found = check(json.loads(out), outdir, ctx)
            except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
                found = [f"unreadable output: {exc!r}"]
        else:
            found = [f"exit code {code}: {err.strip()[-500:]}"]
        if found:
            failed += 1
            problems.append({"argv": argv, "problems": found})
    result = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall * speed,
        "cpu_ref_s": cpu * speed,
        "speed": speed,
        "attempted": len(cmds),
        "failed": failed,
        "problems": problems,
        "lifespan_refine_err": ctx.get("lifespan_refine_err"),
    }
    if tracer:
        result["layers"] = {**layer_metrics(tracer), **_written(outdirs)}
    return result


def run(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = commands(name, seed)
    modes = (False, True) if trace else (False,)
    passes = []
    with SpeedGauge() as gauge:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            for traced in modes:
                passes.append(run_pass(cli, name, cmds, traced, gauge))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    result = {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]][:10],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_wall_ref_s": [p["wall_ref_s"] for p in plain],
        "pass_speed": [p["speed"] for p in plain],
        **{key: statistics.median(p[key] for p in plain)
           for key in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lifespan_refine_err": passes[0]["lifespan_refine_err"],
    }
    if traced:
        layers = {
            key: statistics.median_low(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - result["wall_s"]
        )
        layers["lifespan_refine_err"] = result["lifespan_refine_err"] or 0.0
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: cannot import flrwave from {SRC}: {exc}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
