"""Shared pieces of the end-to-end benchmark: results, statistics, checks."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: What the setup probe times: interpreter start, ``import repro`` and
#: plugin loading — what every entry point pays before its first call.
SETUP_PROBE = (
    "import repro\n"
    "from repro.registry import load_plugins\n"
    "load_plugins()\n"
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class Context:
    """One benchmark invocation: where the code is, and the run settings."""

    root: Path
    scratch: Path
    seed: int
    seconds: float
    trace: bool

    @property
    def env(self) -> dict[str, str]:
        """Environment for child processes that import ``repro``."""
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": f"{src}:{path}" if path else src}


@dataclass
class Result:
    """What a workload measured and checked.

    ``metrics`` maps a metric name to ``(value, sample count)``;
    ``counts`` holds the exact work counters of one unit of work, which
    must repeat for a given seed; ``digest`` hashes the result columns.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, operation: bool = True) -> None:
        """Record a failed check; ``operation`` counts it as a failed call."""
        self.failures.append(message)
        self.failed += int(operation)
        print(f"check failed: {message}", file=sys.stderr)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))


def p90(values: list[float]) -> float:
    """The 90th percentile (exclusive method, as ``statistics.quantiles``)."""
    return statistics.quantiles(values, n=10)[-1]


def result_digest(columns: Iterable[Any]) -> str:
    """SHA-256 of the result columns, serialized canonically."""
    text = json.dumps(list(columns), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_units_agree(
    result: Result, unit: str, digests: list[str], counts: list[dict[str, int]]
) -> None:
    """Every repeated unit of work in a run must reproduce the first."""
    if any(d != digests[0] for d in digests):
        result.fail(
            f"{unit} result digests differ between repeats: {digests}", False
        )
    if any(c != counts[0] for c in counts):
        result.fail(
            f"{unit} work counters differ between repeats: {counts}", False
        )
    result.digest = digests[0]
    result.counts = counts[0]


def cpu_seconds(own: bool = True) -> float:
    """User plus system CPU time of the children this process has waited
    for and, if ``own``, of this process. Unlike wall time, it leaves out
    time spent waiting for a CPU, and (with paravirtual steal-time
    accounting, as on KVM guests) time the hypervisor gave to other
    guests."""
    who = [resource.RUSAGE_CHILDREN] + ([resource.RUSAGE_SELF] if own else [])
    usages = [resource.getrusage(w) for w in who]
    return sum(u.ru_utime + u.ru_stime for u in usages)


#: The calibration workload: an array and a graph at the scale of
#: scenario-large.
CALIBRATION_SIZE = 1 << 20
CALIBRATION_NODES = 1 << 16
#: What :func:`calibrate` took, in CPU seconds, on the machine the
#: benchmark was written on: 2 vCPUs of an Intel Xeon at 2.1 GHz,
#: CPython 3.11, numpy 2.4. Calibrated figures are scaled back to that
#: machine's speed with it.
CALIBRATION_NOMINAL_S = 0.25


def calibrate() -> float:
    """CPU seconds of a fixed piece of numpy and interpreter work on the
    scale of ``scenario-large``.

    It sorts, ranks and counts 2^20 integers, as the vectorized kernels
    do, and builds a dict-of-dicts graph of 2^16 nodes, as networkx
    does. It runs no repro code, so a change to the program does not
    move it; only the host's speed does.
    """
    import numpy as np

    keys = np.random.default_rng(12345).integers(0, 1 << 40, CALIBRATION_SIZE)
    start = cpu_seconds()
    order = np.argsort(keys, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(CALIBRATION_SIZE)
    np.bincount(rank % CALIBRATION_NODES, minlength=CALIBRATION_NODES)
    adjacency: dict[int, dict[int, None]] = {}
    for u, v in enumerate((rank[:CALIBRATION_NODES] % CALIBRATION_NODES).tolist()):
        adjacency.setdefault(u, {})[v] = None
        adjacency.setdefault(v, {})[u] = None
    return cpu_seconds() - start


def calibrated(seconds: list[float], calibrations: list[float]) -> float:
    """The median of CPU times over the median calibration time of the
    same run, in seconds at the speed of :data:`CALIBRATION_NOMINAL_S`.

    A change to the program moves the ratio; a change of the host's
    speed moves both of its terms.
    """
    return (
        statistics.median(seconds) / statistics.median(calibrations)
        * CALIBRATION_NOMINAL_S
    )


def put_unit_times(
    result: Result, work: int, seconds: float, samples: int, walls: list[float]
) -> None:
    """Figures of a workload that repeats one unit of ``work`` items,
    which takes ``seconds``: end-to-end throughput and latency, and as
    per-layer figures their wall-clock versions."""
    result.put("throughput_per_s", work / seconds, samples)
    result.put("latency_p50_ms", seconds * 1e3, samples)
    wall = statistics.median(walls)
    result.put("wall.throughput_per_s", work / wall, len(walls))
    result.put("wall.latency_p50_ms", wall * 1e3, len(walls))


def measure_setup(ctx: Context) -> float:
    """CPU time of :data:`SETUP_PROBE` in a fresh interpreter, the
    median of :data:`SETUP_REPEATS`."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds(own=False)
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ctx.root, env=ctx.env,
            check=True, timeout=60,
        )
        times.append(cpu_seconds(own=False) - start)
    return statistics.median(times)


def peak_rss_mb(other_kib: int = 0) -> float:
    """Peak resident set over this process, its waited-for children and
    ``other_kib`` (a process measured separately), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, other_kib) / 1024.0


def awake_bound_violation(
    algorithm: str, n: int, id_space: int, delta: int, awake: int,
    palette: int | None = None,
) -> str | None:
    """Compare a measured awake complexity with its ``analysis.bounds`` bound.

    ``palette`` is the Theorem 9 palette; without it the Theorem 13
    palette bound, which caps it, is used. ``greedy`` has no sub-linear
    bound and is not checked.
    """
    from repro.analysis import bounds
    from repro.core.theorem13 import color_palette_bound, default_b

    if algorithm == "theorem1":
        bound = bounds.theorem1_awake_bound(n, id_space)
    elif algorithm == "theorem9":
        if palette is None:
            palette = color_palette_bound(n, default_b(n))
        bound = bounds.theorem9_awake_bound(n, palette)
    elif algorithm == "baseline":
        bound = bounds.baseline_awake_bound(id_space, delta)
    else:
        return None
    if awake > bound:
        return f"{algorithm} at n={n}: awake {awake} exceeds the bound {bound}"
    return None
