"""Benchmark entry point: one workload run in a fresh, pinned process.

    python3 perfbench/run.py --workload typing --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the run fails with exit code 2.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it repeat every figure by name and unit, with the raw
milliseconds beside each normalised one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_to_one_cpu() -> int:
    """Run on one CPU so the kernel and the service share a core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    run = bench.Run(args.workload, args.seed, work_dir)
    try:
        if args.trace:
            report = asyncio.run(bench.traced(run, args.seconds))
        else:
            report = asyncio.run(bench.measure(run, args.seconds))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still holds its directory
    correct = run.failed == 0 and not run.mismatches
    print(f"# workload={args.workload} seed={args.seed} cpu={cpu} "
          f"trace={args.trace} samples={json.dumps(report['samples'])}")
    for name, (value, unit, raw) in report["metrics"].items():
        raw = "" if raw is None else f"  (raw {raw})"
        print(f"# {name:36s} {value:14.4f} {unit}{raw}")
    for name, (value, unit, raw) in report.get("detail", {}).items():
        raw = "" if raw is None else f", raw {raw}"
        print(f"# {name:36s} {value:14.4f} {unit}  "
              f"(not in BENCHMARK.json{raw})")
    if "shares" in report:
        print("# share of traced gesture time: " + ", ".join(
            f"{bucket} {share:.1%}"
            for bucket, share in report["shares"].items()
        ))
    for failure in run.failures:
        print(f"# failed reply: {json.dumps(failure, sort_keys=True)}")
    if run.mismatches:
        print(f"# differential check failed for {', '.join(run.mismatches)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _raw) in report["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
