"""Benchmark of the lucassquares verifier: time to a verdict, layer by layer.

Run from the root of a checkout (the package is imported from `src/`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: verify-full, classify-1term, classify-2term, point-eval (see
`workloads.py` and NOTES.md).  With `--trace 0` the run measures set-up
several times, then runs timed passes for about S seconds, each pass in a
fresh interpreter, and reports the end-to-end metrics.  With `--trace 1` it
runs one untraced pass and two traced passes and reports the per-layer
metrics.  `--workload all` does both for every workload and prints one
table of each.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

SETUP_REPEATS = 11
RUN_LIMIT_S = 165.0      # one workload's run must end within 180 s
# Samples at the two ends of a longer pass cannot follow the drift inside
# it (see NOTES.md), so such passes are reported uncalibrated.
CALIBRATE_MAX_S = 5.0


class ChildError(Exception):
    """A worker process failed, timed out or printed no result."""


class Speed:
    """Machine speed, sampled with `workloads.reference()` between worker processes.

    The host's speed drifts by about +-20% over seconds to minutes, and the
    drift moves every timing of a short pass together.  A sample is taken
    before the first worker and after each one.  A worker's times are
    scaled by the nominal reference time over the mean of the samples on
    either side, which gives seconds at the reference speed.  The reference
    runs in this process, while no worker runs, and uses no package code, so
    a change to the package moves the scaled times in full.
    """

    def __init__(self, reference, nominal_s: float) -> None:
        self._reference = reference
        self._nominal_s = nominal_s
        self.samples = [reference()]

    def scale(self) -> float:
        """Scale for the worker that has just ended."""
        self.samples.append(self._reference())
        return 2 * self._nominal_s / (self.samples[-2] + self.samples[-1])


def _worker(root: str, name: str, seed: int, mode: str, out_dir: str,
            deadline: float) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise ChildError(f"no time left for a {mode} pass")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode, "--src", os.path.join(root, "src"),
           "--out-dir", out_dir]
    # Workers may cache bytecode, as an installed package does, so that set-up
    # measures what each `lucassq` call pays rather than compiling the package.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        # On timeout, run() kills the worker and waits for it to end.
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} pass did not finish within {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """Counts, failures and metrics of one benchmark run of one workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def add_pass(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures.extend(result["failures"])

    def check(self, ok: bool, what: str) -> None:
        """Count one cross-check as an operation, failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def child_failed(self, err: ChildError) -> None:
        self.attempted += 1
        self.failures.append(str(err))

    @property
    def correct(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"correct": self.correct, "attempted": max(self.attempted, 1),
                "failed": len(self.failures) if self.attempted else 1,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def measure(root: str, run: Run, seconds: float, out_dir: str, deadline: float) -> None:
    """Set-up repeats, then timed passes for about `seconds`: end-to-end metrics."""
    import workloads
    name, seed = run.name, run.seed
    setups: list[float] = []
    passes: list[dict] = []
    raw_walls: list[float] = []
    try:
        _worker(root, name, seed, "setup", out_dir, deadline)  # fills bytecode caches
        speed = Speed(workloads.reference, workloads.REFERENCE_S)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _worker(root, name, seed, "setup", out_dir, deadline)
            elapsed = time.perf_counter() - t0
            setups.append(elapsed * speed.scale())
        start = time.perf_counter()
        while True:
            result = _worker(root, name, seed, "pass", out_dir, deadline)
            scale = speed.scale()
            if result["wall_s"] > CALIBRATE_MAX_S:
                scale = 1.0
            raw_walls.append(result["wall_s"])
            result["wall_s"] *= scale
            result["latencies_s"] = [t * scale for t in result["latencies_s"]]
            passes.append(result)
            run.add_pass(result)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
    except ChildError as err:
        run.child_failed(err)
        if not passes or not setups:
            return
    run.check(len({p["digest"] for p in passes}) == 1,
              "passes over the same inputs gave different output digests")
    latencies = sorted(t for p in passes for t in p["latencies_s"])
    if not latencies:
        return
    run.metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "op_p50_ms": (1000 * _percentile(latencies, 0.50), "ms"),
        "op_p99_ms": (1000 * _percentile(latencies, 0.99), "ms"),
    }
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    run.lines.append(f"samples: {len(passes)} passes, {len(latencies)} timed calls "
                     f"({beyond} beyond p99), set-up x{len(setups)}")
    run.lines.append(f"speed: reference median {statistics.median(speed.samples):.4g} s "
                     f"(nominal {workloads.REFERENCE_S} s); uncalibrated median "
                     f"wall {statistics.median(raw_walls):.6g} s; passes over "
                     f"{CALIBRATE_MAX_S:g} s are not calibrated")


def trace(root: str, run: Run, out_dir: str, deadline: float) -> None:
    """One untraced and two traced passes: per-layer metrics and self-checks."""
    import workloads
    name, seed = run.name, run.seed
    try:
        base = _worker(root, name, seed, "pass", out_dir, deadline)
        run.add_pass(base)
        traced = []
        for _ in range(2):
            traced.append(_worker(root, name, seed, "traced", out_dir, deadline))
            run.add_pass(traced[-1])
    except ChildError as err:
        run.child_failed(err)
        return
    for t in traced:
        run.check(t["digest"] == base["digest"] and t["verdicts"] == base["verdicts"],
                  "the traced pass changed the outputs")
    counts = [{k: (v[tracer.CALLS], v[tracer.ITEMS], v[tracer.FOUND])
               for k, v in t["stats"].items()} for t in traced]
    run.check(counts[0] == counts[1], "two traced passes gave different call counts")
    stats = traced[0]["stats"]
    if name == "verify-full":
        shift_calls = stats["identities.check_shift"][tracer.CALLS]
        stated = base["facts"]["shift_checks"]
        run.check(shift_calls == stated == workloads.SHIFT_CHECKS,
                  f"identities.check_shift.calls = {shift_calls}, but the "
                  f"shift-congruences report states {stated} checks")
    if name == "classify-1term":
        spans = stats["sequences.seq_range"][tracer.CALLS]
        p_count = base["facts"]["p_values"]
        run.check(spans == 4 * p_count,
                  f"sequences.seq_range.calls = {spans}, not 4 x {p_count} P values")

    # Counts repeat exactly (checked above); times are the traced passes' median.
    per_pass = [tracer.layer_metrics(t["stats"]) for t in traced]
    for key, value in per_pass[0].items():
        unit = tracer.UNITS[key.rsplit(".", 1)[1]]
        if unit == "s":
            value = statistics.median(m[key] for m in per_pass)
        run.metrics[key] = (value, unit)
    run.metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - base["wall_s"], "s")
    run.metrics["trace.errors"] = (sum(t["trace_errors"] for t in traced), "count")
    run.lines.append(f"samples: 1 untraced and {len(traced)} traced passes; "
                     "times are the median of the traced passes")


def _revision(root: str) -> str:
    """The checked-out commit, read from .git without running git; else 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _format(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _table(title: str, runs: list[Run]) -> list[str]:
    """Metrics as rows, workloads as columns, then failed/attempted operations."""
    units = {k: u for r in runs for k, (_, u) in r.metrics.items()}
    width = max([len(k) for k in units] + [len("failed_frac")])
    out = [title, "  " + "metric".ljust(width) + "".join(f"  {r.name:>15}" for r in runs)
           + "  unit"]
    for key, unit in units.items():
        cells = "".join(f"  {_format(r.metrics[key][0]) if key in r.metrics else '-':>15}"
                        for r in runs)
        out.append("  " + key.ljust(width) + cells + f"  {unit}")
    fracs = "".join(f"  {len(r.failures) / max(r.attempted, 1):>15.6g}" for r in runs)
    counts = ", ".join(f"{len(r.failures)}/{r.attempted}" for r in runs)
    out.append("  " + "failed_frac".ljust(width) + fracs + f"  ratio ({counts} operations)")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lucassquares", "cli.py")):
        print("error: run from the root of a lucassquares checkout "
              "(src/lucassquares/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    if args.workload not in workloads.NAMES + ("all",):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"valid: {', '.join(workloads.NAMES)}, all")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    print(f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"revision {_revision(root)}, seed {args.seed}, seconds {args.seconds:g}")
    done: dict[int, list[Run]] = {0: [], 1: []}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as out_dir:
        for name in names:
            print(f"{name}: {workloads.make(name, args.seed).box}")
            for mode in modes:
                run = Run(name, args.seed)
                deadline = time.perf_counter() + RUN_LIMIT_S
                if mode == 0:
                    measure(root, run, args.seconds, out_dir, deadline)
                else:
                    trace(root, run, out_dir, deadline)
                for line in run.lines + [f"failure: {f}" for f in run.failures[:20]]:
                    print(f"  {line}")
                done[mode].append(run)
    runs = done[0] + done[1]
    if done[0]:
        print("\n".join(_table("end-to-end (tracing off)", done[0])))
    if done[1]:
        print("\n".join(_table("per layer (traced passes)", done[1])))
    if len(runs) == 1:
        summary = runs[0].summary()
    else:
        summary = {"correct": all(r.correct for r in runs),
                   "attempted": sum(r.attempted for r in runs),
                   "failed": sum(len(r.failures) for r in runs),
                   "metrics": {f"{r.name}.{k}": v for r in runs
                               for k, v in r.summary()["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
