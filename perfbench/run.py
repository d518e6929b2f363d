"""Benchmark for the cmpartitions CLI: runs one workload's commands in process
through ``cmpartitions.cli.main``, checks every output against its oracle
and prints the metrics as the last line of stdout, one JSON object.

    python3 perfbench/run.py --workload pn-sweep --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats whole passes over the workload's commands while the
next pass still fits in ``--seconds`` (always at least one), times fresh-
process set-up between the commands, and reports the end-to-end metrics,
each time rescaled to the host's nominal speed (see hostspeed.py).
``--trace 1`` runs one pass with every module's public functions wrapped in
span recorders, reports the per-layer metrics, unscaled, and writes the
spans to ``.perfbench/`` at the root of the checkout.  The library is
imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CACHE = OUT / "cache.json"

# Set-up is a fresh process importing the library and building the commands;
# it is repeated across the run and the median reported.
SETUP_PROBES = 9
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import cmpartitions.cli, workloads
workloads.build({workload!r}, {seed!r}, {cache!r})
print(time.perf_counter() - t0)
"""

BIGINT_BITS = 31000


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> float:
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload,
                              seed=seed, cache=str(CACHE))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _host() -> dict:
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _bigint_mul_us(seed: int) -> float:
    """Median cost of one fixed-size big-int multiplication, the arithmetic
    floor under the pure-Python mpmath backend."""
    rng = random.Random(seed)
    a = rng.getrandbits(BIGINT_BITS) | 1 << (BIGINT_BITS - 1)
    b = rng.getrandbits(BIGINT_BITS) | 1 << (BIGINT_BITS - 1)
    batches = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(100):
            a * b
        batches.append((time.perf_counter() - t0) / 100)
    return 1e6 * statistics.median(batches)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Tally:
    """Outcomes of every task run, and the first reason each task failed."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.facts: list[dict] = []
        self.reasons: dict[str, str] = {}

    def add(self, task, verdict) -> None:
        self.attempted += 1
        if verdict.ok:
            self.facts.append(verdict.facts)
            return
        self.failed += 1
        self.wrong += verdict.wrong
        self.reasons.setdefault(task.label, verdict.reason)

    @property
    def verified(self) -> int:
        return self.attempted - self.failed


def _run_task(cli, task):
    with contextlib.suppress(FileNotFoundError):
        os.remove(CACHE)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(task.argv))
    except Exception as exc:  # an exception escaping main fails the task, not the run
        return workloads.Verdict(False, reason=f"{type(exc).__name__} escaped main: {exc}")
    verdict = task.check(code, out.getvalue())
    if not verdict.ok and err.getvalue().strip():
        verdict.reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    return verdict


def _run_pass(cli, tasks, tally: Tally, between=None) -> float:
    """Run every task once; returns the time spent in the tasks and their
    checks.  ``between(i)`` runs untimed before task i (and with i equal to
    the number of tasks after the last)."""
    wall = 0.0
    for index, task in enumerate(tasks):
        if between is not None:
            between(index)
        t0 = time.perf_counter()
        tally.add(task, _run_task(cli, task))
        wall += time.perf_counter() - t0
    if between is not None:
        between(len(tasks))
    return wall


def _timed(cli, tasks, args, tally: Tally) -> dict:
    """Passes and set-up probes, each rescaled to the host's nominal speed
    (see hostspeed.py)."""
    sampler = hostspeed.Sampler()
    setups, walls, unscaled = [], [], []
    start = time.perf_counter()
    probing = 0.0

    def probe():
        nonlocal probing
        t0 = time.perf_counter()
        factor = hostspeed.NOMINAL_S / hostspeed.kernel_seconds()
        setups.append(_setup_probe(args.workload, args.seed) * factor)
        probing += time.perf_counter() - t0

    def between(_index):
        # spread the set-up probes over the measuring time: the host's speed
        # drifts within a run, and probes taken at once would see one moment
        with sampler.paused():
            while len(setups) < SETUP_PROBES * min(
                    (time.perf_counter() - start - probing) / args.seconds, 1.0):
                probe()

    while not unscaled or sum(unscaled) + statistics.median(unscaled) <= args.seconds:
        first, spent = len(sampler.samples), sampler.spent
        with sampler.sampling():
            wall = _run_pass(cli, tasks, tally, between=between) - (sampler.spent - spent)
        unscaled.append(wall)
        walls.append(wall * sampler.factor(first))
    while len(setups) < SETUP_PROBES:
        probe()
    return {
        "wall_s": (statistics.median(walls), "s"),
        "verified_per_s": (tally.verified / sum(walls), "1/s"),
        "verified_frac": (tally.verified / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _traced(cli, tasks, args, host: dict, tally: Tally) -> dict:
    import mpmath
    from cmpartitions.precision import PrecisionConfig
    recorder = spans.Recorder(uuid.uuid4().hex)
    cpu0 = _cpu_seconds()
    with spans.tracing(recorder):
        wall = _run_pass(cli, tasks, tally,
                         between=lambda index: setattr(recorder, "task", index))
    cpu_s = _cpu_seconds() - cpu0

    values = spans.layer_metrics(recorder.spans, wall)
    values["host.cpu_s"] = cpu_s
    values["host.bigint_mul_us"] = _bigint_mul_us(args.seed)
    values["host.ref_kernel_ms"] = 1000 * statistics.median(
        hostspeed.kernel_seconds(1) for _ in range(9))
    values["trace.overhead_s"] = len(recorder.spans) * spans.span_cost_s()
    # the pn commands run at the library's default tolerance
    tol_log2 = float(mpmath.log(PrecisionConfig().abs_tol, 2))
    margins = [workloads.margin_bits(f["residual"], tol_log2)
               for f in tally.facts if "residual" in f]
    margins = [m for m in margins if m is not None]
    values["recognize.margin_bits"] = min(margins, default=0.0)
    values["modpoly.beta_norm.bits"] = max(
        (f["beta_bits"] for f in tally.facts if "beta_bits" in f), default=0)

    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                   {"workload": args.workload, "seed": args.seed, "host": host,
                    "tasks": [t.label for t in tasks], "wall_s": wall})
    return {name: (values[name], unit) for name, (unit, _) in spans.UNITS.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "cmpartitions" / "__init__.py").is_file():
        print(f"error: no cmpartitions package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    from cmpartitions import cli

    tasks = workloads.build(args.workload, args.seed, str(CACHE))
    host = _host()
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    tally = Tally()
    if args.trace:
        metrics = _traced(cli, tasks, args, host, tally)
    else:
        metrics = _timed(cli, tasks, args, tally)
    for label, reason in sorted(tally.reasons.items()):
        print(f"failed: {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
