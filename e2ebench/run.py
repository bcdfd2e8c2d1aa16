"""End-to-end benchmark of repro's public entry points.

Run from the repository root::

    python3 e2ebench/run.py --workload scenario-large --seed 1 \\
        --seconds 25 --trace 0

Workloads, metrics and their meaning are described in
``e2ebench/README.md``; the metric names and units are read from
``BENCHMARK.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``); the line before it records the result digest, the exact
work counters and the sample count of every metric. Each result is
checked before any time is reported, and a failed check makes the
exit code 1. The counters and digest of every run are kept under
``.e2ebench/records``; a later run of the same workload and seed in the
same checkout must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".e2ebench"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_record(workload: str, seed: int, record: dict, keep: bool) -> str | None:
    """Compare counters and digest with an earlier run of the same seed,
    or, when ``keep``, store them for the next one. Returns a mismatch
    description."""
    path = STATE / "records" / f"{workload}-seed{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            return f"work counters or digest differ from {path.name}: {earlier}"
        return None
    if not keep:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f"{path.name}.{os.getpid()}")
    scratch.write_text(json.dumps(record, sort_keys=True))
    os.replace(scratch, path)
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import Context, Result
    from workloads import WORKLOADS

    scratch = STATE / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(ROOT, scratch, args.seed, args.seconds, bool(args.trace))
    try:
        result = WORKLOADS[args.workload](ctx)
    except Exception as exc:
        traceback.print_exc()
        result = Result(attempted=1)
        result.fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    counts = {f"count.{k}": v for k, v in sorted(result.counts.items())}
    if result.counts:
        mismatch = check_record(
            args.workload, args.seed, {"counts": counts, "digest": result.digest},
            keep=not result.failures,
        )
        if mismatch:
            result.fail(mismatch, operation=False)
    for name, value in counts.items():
        result.put(name, value)
    attempted = max(result.attempted, 1)
    failed = min(result.failed, attempted)
    result.put("failed_frac", failed / attempted)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value, _ = result.metrics.get(metric["name"], (0.0, 0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in result.metrics]
    if not args.trace and missing:
        result.fail(f"end-to-end metrics not measured: {missing}", operation=False)
    correct = not result.failures
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": result.digest,
        "counts": counts,
        "samples": {k: s for k, (_, s) in sorted(result.metrics.items())},
        "unprinted": {
            k: v for k, (v, _) in sorted(result.metrics.items())
            if k not in metrics
        },
        "details": result.details,
        "failures": result.failures[:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
