"""One pass of one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced
                                --src DIR --out-dir DIR

`setup` imports `lucassquares.cli`, generates the inputs and exits: its
wall time, taken by the parent, is what every `lucassq` call pays.  `pass`
also runs the workload's calls; `traced` runs them under the tracer.
Prints one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import nullcontext


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import workloads  # imports lucassquares.cli
    import lucassquares

    package_dir = os.path.dirname(os.path.abspath(lucassquares.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(args.src):
        print(f"lucassquares was imported from {package_dir}, not from {args.src}",
              file=sys.stderr)
        return 1
    work = workloads.make(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps({"calls": len(work.calls)}))
        return 0

    import tracer
    trace = tracer.Tracer() if args.mode == "traced" else None
    with tracer.installed(trace) if trace else nullcontext():
        outcome = workloads.run(work, args.out_dir)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "wall_s": sum(outcome.latencies_s),
        "latencies_s": outcome.latencies_s,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "verdicts": outcome.verdicts,
        "facts": outcome.facts,
        "peak_rss_mib": peak_kib / 1024,
    }
    if trace:
        result["stats"] = trace.stats
        result["trace_errors"] = trace.errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
