"""The benchmark's three workloads, one per public entry point.

Each workload repeats one fixed *unit* of work — a set of
``run_scenario`` calls, a cold-cache ``run_grid``, or the request mix
of ``GET /solve`` — for the run's time budget, checks every result,
and returns a :class:`~common.Result`. With tracing on, units alternate
between untraced and traced (at least one of each): the per-layer
figures come from the traced units, and the ratio of the two gives
the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable
from urllib.parse import urlencode

from common import (
    SETUP_REPEATS,
    Context,
    Result,
    awake_bound_violation,
    calibrate,
    calibrated,
    check_units_agree,
    cpu_seconds,
    measure_setup,
    p90,
    peak_rss_mb,
    put_unit_times,
    result_digest,
)
from tracing import Tracer, instrumented

#: Never more threads, worker processes or connections than CPUs.
PARALLELISM = min(2, os.cpu_count() or 1)


def _units(ctx: Context, run_unit: Callable[[bool], None]) -> None:
    """Run units until the budget is spent; alternate tracing if asked."""
    start = time.perf_counter()
    done = 0
    while done < (2 if ctx.trace else 1) or time.perf_counter() - start < ctx.seconds:
        run_unit(ctx.trace and done % 2 == 1)
        done += 1


def _overhead(traced: list[float], untraced: list[float]) -> float:
    return (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0


# -- scenario-large: run_scenario on the array engine ------------------------

SCENARIO_N = 2**16
SCENARIO_WARMUP_N = 2**10
#: The four calls of one set: the headline pipeline, its solver stage,
#: the BM21 baseline and the greedy reference.
SCENARIO_CALLS = (
    ("theorem1", "coloring"),
    ("theorem9", "mis"),
    ("baseline", "coloring"),
    ("greedy", "mis"),
)
#: Spans that only enclose other stages; their self time is the
#: unattributed remainder of a traced call.
SCENARIO_ENVELOPES = ("api.run_scenario", "core.solve")


def _scenario_targets(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """The layer boundaries a traced ``run_scenario`` call crosses."""
    import repro.api as api
    import repro.core.bm21_vectorized as bm21v
    import repro.core.clustering_vectorized as clusterv
    import repro.core.theorem1_vectorized as t1v
    import repro.model.vectorized as modelv
    from repro.core.algorithms import AlgorithmAdapter
    from repro.olocal.problem import OLocalProblem

    def build_then_index(original: Callable[..., Any]) -> Callable[..., Any]:
        def build(*args: Any, **kwargs: Any) -> Any:
            with tracer.span("graphs.build"):
                graph = original(*args, **kwargs)
            with tracer.span("graphs.arrays"):
                _ = graph.arrays  # first access builds the CSR mirror
            return graph

        return build

    return [
        (api.Scenario, "validate", "api.validate"),
        (api, "build_family_graph", build_then_index),
        (AlgorithmAdapter, "solve", "core.solve"),
        (clusterv, "compute_clustering_vectorized", "core.clustering"),
        # Theorem 1 calls the clustering kernel directly, not through
        # compute_clustering_vectorized.
        (clusterv, "_clustering_kernel", "core.clustering"),
        (clusterv, "validate_clustering_arrays", "core.validate_clustering"),
        (t1v, "solve_vectorized", "core.kernel"),
        (t1v, "solve_with_clustering_vectorized", "core.kernel"),
        (bm21v, "solve_with_baseline_vectorized", "core.kernel"),
        (t1v, "decide_by_priority", "model.kernel"),
        (modelv, "greedy_by_id_vectorized", "model.kernel"),
        (OLocalProblem, "check", "olocal.check"),
    ]


def scenario_large(ctx: Context) -> Result:
    """Four ``run_scenario`` calls on gnp at n = 2^16, vectorized engine."""
    from repro.api import Scenario, run_scenario

    result = Result()
    scenarios = [
        Scenario(
            family="gnp", n=SCENARIO_N, seed=ctx.seed, problem=problem,
            algorithm=algorithm, engine="vectorized",
            params={"p": 8 / SCENARIO_N, "method": "fast"},
        )
        for algorithm, problem in SCENARIO_CALLS
    ]
    tracer = Tracer()
    # Untraced sets only: their CPU times, and a calibration before each call.
    set_cpus: list[float] = []
    calibrations: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    digests: list[str] = []
    unit_counts: list[dict[str, int]] = []

    def run_set(traced: bool) -> None:
        columns = []
        counts = dict.fromkeys(
            ("nodes", "edges", "awake_node_rounds", "messages", "trials"), 0
        )
        set_seconds = set_cpu = 0.0
        with instrumented(
            tracer, _scenario_targets(tracer) if traced else []
        ):
            for scenario in scenarios:
                result.attempted += 1
                # Start each call from a collected heap, as a fresh
                # caller would; the previous call's garbage is not its cost.
                gc.collect()
                if not traced:
                    calibrations.append(calibrate())
                call_start = time.perf_counter()
                cpu_start = cpu_seconds()
                try:
                    with tracer.span("api.run_scenario") if traced else nullcontext():
                        run = run_scenario(scenario)
                except Exception as exc:
                    result.fail(f"{scenario.algorithm}: {type(exc).__name__}: {exc}")
                    continue
                set_cpu += cpu_seconds() - cpu_start
                set_seconds += time.perf_counter() - call_start
                if not run.ok:
                    result.fail(f"{scenario.algorithm}: {run.errors}")
                    continue
                outcome, graph = run.outcome, run.graph
                violation = awake_bound_violation(
                    scenario.algorithm, graph.n, graph.id_space,
                    graph.max_degree, outcome.awake_complexity,
                    outcome.extras.get("palette")
                    if scenario.algorithm == "theorem9" else None,
                )
                if violation:
                    result.fail(violation)
                columns.append((
                    scenario.algorithm, scenario.problem,
                    outcome.awake_complexity, outcome.round_complexity,
                    outcome.messages_sent,
                ))
                counts["nodes"] += graph.n
                counts["edges"] += graph.num_edges
                counts["awake_node_rounds"] += round(
                    outcome.average_awake * graph.n
                )
                counts["messages"] += outcome.messages_sent
                counts["trials"] += 1
                del run, outcome, graph
        walls[traced].append(set_seconds)
        if not traced:
            set_cpus.append(set_cpu)
        digests.append(result_digest(columns))
        unit_counts.append(counts)

    if not ctx.trace:
        setup = measure_setup(ctx)
    # Lazy imports and first-call set-up happen once per process; a small
    # untimed pass over the same calls keeps them out of the first set.
    for scenario in scenarios:
        warm_up = run_scenario(replace(
            scenario, n=SCENARIO_WARMUP_N,
            params={"p": 8 / SCENARIO_WARMUP_N, "method": "fast"},
        ))
        if not warm_up.ok:
            result.fail(f"warm-up {scenario.algorithm}: {warm_up.errors}")
    _units(ctx, run_set)
    check_units_agree(result, "scenario set", digests, unit_counts)
    sets = len(walls[False])
    result.details["sets"] = {"untraced": sets, "traced": len(walls[True])}
    put_unit_times(
        result, result.counts["nodes"], calibrated(set_cpus, calibrations),
        sets, walls[False],
    )
    result.put("host.calibration_s", median(calibrations), len(calibrations))
    if not ctx.trace:
        result.put("setup_s", setup, SETUP_REPEATS)
        result.put("peak_rss_mb", peak_rss_mb())
        return result

    traced_sets = len(walls[True])
    selfs = tracer.self_seconds()
    for name in (
        "graphs.build", "graphs.arrays", "core.clustering", "core.kernel",
        "core.validate_clustering", "olocal.check", "model.kernel",
    ):
        result.put(f"{name}_s", selfs.get(name, 0.0) / traced_sets, traced_sets)
    builds = tracer.durations("graphs.build")
    result.put(
        "graphs.edges_per_s",
        result.counts["edges"] * traced_sets / sum(builds), len(builds),
    )
    result.put(
        "core.solve_s",
        sum(tracer.durations("core.solve")) / traced_sets, traced_sets,
    )
    validations = tracer.durations("api.validate")
    result.put("api.validate_ms", median(validations) * 1e3, len(validations))
    _put_coverage(
        result, tracer, "api.run_scenario",
        sum(v for k, v in selfs.items() if k not in SCENARIO_ENVELOPES),
        traced_sets,
    )
    result.put("trace.overhead_frac", _overhead(walls[True], walls[False]), sets)
    return result


def _put_coverage(
    result: Result, tracer: Tracer, root: str, attributed: float, units: int
) -> None:
    """Share of the root spans' time covered by named stages, and the
    per-unit remainder no stage accounts for."""
    roots = tracer.durations(root)
    total = sum(roots)
    result.put("trace.coverage", attributed / total, len(roots))
    result.put("trace.unattributed_s", (total - attributed) / units, len(roots))


# -- sweep-grid: cold-cache run_grid on the per-node engines -----------------

GRID = {
    "families": ("gnp", "tree", "powerlaw"),
    "sizes": (64, 128),
    "problems": ("mis", "coloring"),
    "algorithms": ("theorem1", "baseline", "theorem9", "greedy"),
}
GRID_TRIALS = math.prod(len(axis) for axis in GRID.values())


def _sweep_targets() -> list[tuple[Any, str, Any]]:
    """The runner calls the parent process makes during ``run_grid``."""
    import repro.runner.executor as executor
    import repro.runner.trials as trials
    from repro.runner.cache import TrialCache

    return [
        (trials, "sweep_from_grid", "runner.spec_compile"),
        (executor, "run_sweep", "runner.sweep"),
        (TrialCache, "load", "runner.cache_load"),
        (TrialCache, "store", "runner.cache_store"),
    ]


def _check_row(result: Result, row: list[Any] | tuple[Any, ...]) -> None:
    """Awake bound of one grid/solve table row (identity IDs: space = n)."""
    _family, n, _problem, algorithm, _seed, delta, awake = row[:7]
    violation = awake_bound_violation(algorithm, n, n, delta, awake)
    if violation:
        result.fail(violation)


def _row_counts(rows: list[Any]) -> dict[str, int]:
    """Work counters of solve table rows. The awake node-rounds are
    rebuilt from the rows' two-decimal average, so they are exact per
    seed but only close to the simulator's own total."""
    return {
        "trials": len(rows),
        "nodes": sum(row[1] for row in rows),
        "awake_node_rounds": sum(round(row[7] * row[1]) for row in rows),
        "messages": sum(row[9] for row in rows),
    }


def sweep_grid(ctx: Context) -> Result:
    """One cold-cache 48-trial ``run_grid`` per unit, on two workers."""
    from repro.api import run_grid
    from repro.runner.cache import TrialCache

    result = Result()
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    # Untraced grids only: their CPU times, this process plus the pool
    # workers, which the pool has joined when run_grid returns.
    grid_cpus: list[float] = []
    trial_seconds: dict[str, float] = {a: 0.0 for a in GRID["algorithms"]}
    traced_trial_seconds = 0.0
    pool_overhead: list[float] = []
    digests: list[str] = []
    unit_counts: list[dict[str, int]] = []

    def run_one_grid(traced: bool) -> None:
        nonlocal traced_trial_seconds
        cache_dir = ctx.scratch / "grid-cache"
        result.attempted += GRID_TRIALS
        gc.collect()
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        try:
            with instrumented(tracer, _sweep_targets() if traced else []):
                with tracer.span("api.run_grid") if traced else nullcontext():
                    sweep = run_grid(
                        **GRID, seed=ctx.seed, workers=PARALLELISM,
                        cache=TrialCache(cache_dir),
                    )
        except Exception as exc:
            result.fail(f"run_grid: {type(exc).__name__}: {exc}")
            return
        finally:
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
            shutil.rmtree(cache_dir, ignore_errors=True)
        walls[traced].append(wall)
        if not traced:
            grid_cpus.append(cpu)
        for failure in sweep.failures:
            result.fail(f"{failure.label}: {failure.error_type}: {failure.message}")
        if len(sweep.outcomes) != GRID_TRIALS:
            result.fail(f"grid returned {len(sweep.outcomes)} of {GRID_TRIALS} trials")
        stats = sweep.cache_stats
        if stats is None or stats.hits or stats.misses != GRID_TRIALS:
            result.fail(f"grid cache was not cold: {stats}")
        rows = []
        seconds = 0.0
        for outcome in sweep.outcomes:
            row = outcome.payload["rows"][0]
            _check_row(result, row)
            rows.append(row)
            trial_seconds[row[3]] += outcome.seconds
            seconds += outcome.seconds
        if traced:
            traced_trial_seconds += seconds
        pool_overhead.append(wall - seconds / PARALLELISM)
        digests.append(result_digest(
            [(o.spec.label, r[6], r[8], r[9]) for o, r in zip(sweep.outcomes, rows)]
        ))
        unit_counts.append(_row_counts(rows))

    if not ctx.trace:
        setup = measure_setup(ctx)
    _units(ctx, run_one_grid)
    if not digests:
        return result
    check_units_agree(result, "grid", digests, unit_counts)
    grids = len(walls[False])
    put_unit_times(
        result, result.counts["trials"], median(grid_cpus), grids, walls[False]
    )
    if not ctx.trace:
        result.put("setup_s", setup, SETUP_REPEATS)
        result.put("peak_rss_mb", peak_rss_mb())
        return result

    units = len(digests)
    for algorithm, seconds in trial_seconds.items():
        result.put(f"runner.trial_s.{algorithm}", seconds / units, units)
    result.put("runner.pool_overhead_s", sum(pool_overhead) / units, units)
    result.put(
        "model.awake_node_rounds_per_s",
        result.counts["awake_node_rounds"] * units / sum(trial_seconds.values()),
        units,
    )
    for name in ("runner.spec_compile", "runner.cache_load", "runner.cache_store"):
        calls = tracer.durations(name)
        result.put(f"{name}_ms", median(calls) * 1e3, len(calls))
    # Trials run in worker processes, out of the tracer's sight: their
    # compute, spread over the workers, stands in for their spans.
    selfs = tracer.self_seconds()
    attributed = sum(
        selfs.get(name, 0.0)
        for name in ("runner.spec_compile", "runner.cache_load", "runner.cache_store")
    ) + traced_trial_seconds / PARALLELISM
    _put_coverage(result, tracer, "api.run_grid", attributed, len(walls[True]))
    result.put("trace.overhead_frac", _overhead(walls[True], walls[False]), grids)
    return result


# -- serve-solve: GET /solve against `repro serve` ---------------------------

#: Cells warmed into the cache during set-up and then re-requested.
WARM_CELLS = tuple(
    (family, n, problem, algorithm)
    for family in ("gnp", "tree")
    for n in (16, 32)
    for problem in ("mis", "coloring")
    for algorithm in ("theorem1", "greedy")
)
#: Misses of the cold phase: fresh seeds of one Theorem 1 cell.
COLD_CELL = ("gnp", 64, "mis", "theorem1")
COLD_REQUESTS = 10
#: Requests of the traced run's fresh-connection probe.
FRESH_CONNECTION_REQUESTS = 30


def _solve_query(cell: tuple[str, int, str, str], seed: int) -> str:
    family, n, problem, algorithm = cell
    return "/solve?" + urlencode(
        {"family": family, "n": n, "problem": problem,
         "algorithm": algorithm, "seed": seed}
    )


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, Any]:
    """One request on a persistent connection; the reply is read whole."""
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    return response.status, json.loads(body)


def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


class Server:
    """One ``repro serve --port 0 --port-file`` subprocess."""

    def __init__(self, ctx: Context, name: str, cache_dir: Path) -> None:
        port_file = ctx.scratch / f"{name}.port"
        self.log_path = ctx.scratch / f"{name}.log"
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--port-file", str(port_file),
            "--store", str(ctx.scratch / f"{name}.db"),
            "--cache-dir", str(cache_dir),
            "--artifact-dir", str(ctx.scratch),
        ]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ctx.root, env=ctx.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._wait_for_port(port_file)
            self.ready_s = time.perf_counter() - start
            conn = _connect(self.port)
            try:
                status, _ = _get(conn, "/health")
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}"
                )
            if port_file.exists():
                text = port_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            time.sleep(0.001)
        raise RuntimeError("repro serve did not report its port within 60 s")

    def peak_rss_kib(self) -> int:
        """The server's peak resident set (``VmHWM``), while it runs."""
        status = Path(f"/proc/{self.process.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self) -> None:
        """``POST /shutdown``, then wait for the process to end."""
        if self.process.poll() is None and hasattr(self, "port"):
            conn = _connect(self.port)
            try:
                conn.request("POST", "/shutdown")
                conn.getresponse().read()
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


@dataclass
class ClientLog:
    """What one closed-loop client saw."""

    latencies: list[float] = field(default_factory=list)
    server_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    hit_paths: set[str] = field(default_factory=set)


def _warm_client(
    port: int, paths: list[str], expected: dict[str, Any], offset: int,
    deadline: float, minimum: int, tracer: Tracer | None,
) -> ClientLog:
    """Closed loop on one keep-alive connection: the next request is
    sent when the previous reply has been read and checked."""
    log = ClientLog()
    conn = _connect(port)
    try:
        while log.attempted < minimum or time.perf_counter() < deadline:
            path = paths[(offset + log.attempted) % len(paths)]
            log.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.span("serve.request") if tracer else nullcontext():
                    status, body = _get(conn, path)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                log.failures.append(f"{path}: {type(exc).__name__}: {exc}")
                conn.close()
                conn = _connect(port)
                continue
            elapsed = time.perf_counter() - start
            if status != 200:
                log.failures.append(f"{path}: HTTP {status}: {body}")
            elif not body["cached"]:
                log.failures.append(f"{path}: warm reply not served from the cache")
            elif body["rows"] != expected[path]:
                log.failures.append(f"{path}: warm rows differ from the first reply")
            else:
                log.latencies.append(elapsed)
                log.server_ms.append(body["elapsed_ms"])
                log.hit_paths.add(path)
    finally:
        conn.close()
    return log


def _warm_phase(
    port: int, paths: list[str], expected: dict[str, Any], seconds: float,
    tracer: Tracer | None,
) -> tuple[ClientLog, float]:
    """``PARALLELISM`` closed-loop clients for ``seconds``; merged log and wall."""
    logs: list[ClientLog] = [ClientLog() for _ in range(PARALLELISM)]
    minimum = -(-len(paths) // PARALLELISM)  # every cell at least once

    def client(i: int) -> None:
        logs[i] = _warm_client(
            port, paths, expected, i * minimum, deadline, minimum, tracer
        )

    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(PARALLELISM)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    merged = ClientLog()
    for log in logs:
        merged.latencies += log.latencies
        merged.server_ms += log.server_ms
        merged.attempted += log.attempted
        merged.failures += log.failures
        merged.hit_paths |= log.hit_paths
    return merged, wall


def _local_rows(cell: tuple[str, int, str, str], seed: int) -> Any:
    """The rows ``execute_trial`` computes in-process for one query."""
    from repro.runner.trials import execute_trial
    from repro.serve.service import solve_spec

    family, n, problem, algorithm = cell
    spec = solve_spec(family, n, problem, algorithm, seed=seed)
    payload = execute_trial(spec)
    return spec, payload, json.loads(json.dumps(payload["rows"]))


def serve_solve(ctx: Context) -> Result:
    """Warm keep-alive hits from two clients, then cold misses from one."""
    result = Result()
    tracer = Tracer()
    cache_dir = ctx.scratch / "serve-cache"
    servers: list[Server] = []
    setup: list[float] = []
    try:
        # Set-up probes: each server answers /health, is shut down and
        # waited for, so its CPU time shows in RUSAGE_CHILDREN. The last
        # server started is the one under load.
        for i in range(SETUP_REPEATS + 1):
            start = cpu_seconds(own=False)
            servers.append(Server(ctx, f"server{i}", cache_dir))
            if i < SETUP_REPEATS:
                servers[-1].stop()
                setup.append(cpu_seconds(own=False) - start)
        server = servers[-1]
        _serve_workload(ctx, result, tracer, server, cache_dir)
        server_rss = server.peak_rss_kib()
    finally:
        for server in servers:
            server.stop()
    if not ctx.trace:
        result.put("setup_s", median(setup), len(setup))
        result.put("peak_rss_mb", peak_rss_mb(server_rss))
    else:
        result.put("serve.ready_s", median([s.ready_s for s in servers]), len(servers))
    return result


def _serve_workload(
    ctx: Context, result: Result, tracer: Tracer, server: Server, cache_dir: Path
) -> None:
    from repro.runner.cache import TrialCache
    from repro.serve.service import solve_spec

    warm_paths = [_solve_query(cell, ctx.seed) for cell in WARM_CELLS]
    cold_seeds = [ctx.seed * COLD_REQUESTS + k + 1 for k in range(COLD_REQUESTS)]
    served_rows: list[Any] = []

    # Set-up, outside setup_s: every warm cell computed once by the server.
    expected: dict[str, Any] = {}
    start = time.perf_counter()
    conn = _connect(server.port)
    try:
        for path in warm_paths:
            result.attempted += 1
            status, body = _get(conn, path)
            if status != 200 or body["cached"]:
                result.fail(
                    f"{path}: warm-up got HTTP {status}, "
                    f"cached={body.get('cached')}"
                )
            expected[path] = body.get("rows")
    finally:
        conn.close()
    warmup_s = time.perf_counter() - start
    for cell, path in zip(WARM_CELLS, warm_paths):
        _, _, local = _local_rows(cell, ctx.seed)
        if expected[path] != local:
            result.fail(f"{path}: served rows differ from execute_trial")
        served_rows += local

    # Warm phase: closed loop, keep-alive, every reply must be a hit.
    budget = ctx.seconds / 2
    if ctx.trace:
        warm, warm_wall = _warm_phase(
            server.port, warm_paths, expected, budget / 2, None
        )
        traced, _ = _warm_phase(
            server.port, warm_paths, expected, budget / 2, tracer
        )
    else:
        warm, warm_wall = _warm_phase(
            server.port, warm_paths, expected, budget, None
        )
        traced = ClientLog()
    for log in (warm, traced):
        result.attempted += log.attempted
        for failure in log.failures:
            result.fail(failure)
    hits = warm.hit_paths | traced.hit_paths

    # Cold phase: one client, fresh seeds, each a miss the server computes.
    cold_latency: list[float] = []
    cold_compute: list[float] = []
    cold_rows: list[Any] = []
    conn = _connect(server.port)
    try:
        for seed in cold_seeds:
            path = _solve_query(COLD_CELL, seed)
            result.attempted += 1
            start = time.perf_counter()
            status, body = _get(conn, path)
            elapsed = time.perf_counter() - start
            if status != 200 or body["cached"]:
                result.fail(
                    f"{path}: cold reply HTTP {status}, "
                    f"cached={body.get('cached')}"
                )
                continue
            cold_latency.append(elapsed)
            cold_compute.append(body["compute_seconds"])
            cold_rows.append(body["rows"])
    finally:
        conn.close()
    stores = []
    for seed, rows in zip(cold_seeds, cold_rows):
        spec, payload, local = _local_rows(COLD_CELL, seed)
        if rows != local:
            result.fail(f"cold seed {seed}: served rows differ from execute_trial")
        served_rows += local
        stores.append((spec, payload))
    for row in served_rows:
        _check_row(result, row)

    counts = _row_counts(served_rows)
    counts["cache_hits"] = len(hits)
    counts["cache_misses"] = len(WARM_CELLS) + len(cold_rows)
    counts["requests"] = counts["cache_hits"] + counts["cache_misses"]
    result.counts = counts
    result.digest = result_digest([(r[4], r[6], r[8], r[9]) for r in served_rows])
    result.details["load"] = {
        "loop": "closed", "clients": PARALLELISM, "connections": PARALLELISM,
        "warm_attempted": warm.attempted + traced.attempted,
        "warm_completed": len(warm.latencies) + len(traced.latencies),
        "cold_attempted": len(cold_seeds), "cold_completed": len(cold_rows),
    }
    if not warm.latencies or not cold_latency:
        result.fail("a phase completed no request")
        return
    # The warm figures are wall-clock, as the client sees them, also
    # under their per-layer names.
    completed = len(warm.latencies)
    for prefix in ("", "wall."):
        result.put(f"{prefix}throughput_per_s", completed / warm_wall, completed)
        result.put(f"{prefix}latency_p50_ms", median(warm.latencies) * 1e3, completed)
    if not ctx.trace:
        return

    # Traced run: the layers under the hot path, called in-process.
    both = warm.latencies + traced.latencies
    server_ms = warm.server_ms + traced.server_ms
    result.put("serve.warm_p90_ms", p90(both) * 1e3, len(both))
    result.put("serve.handler_ms", median(server_ms), len(server_ms))
    result.put("serve.transport_ms", median(both) * 1e3 - median(server_ms), len(both))
    result.put("serve.cold_p50_ms", median(cold_latency) * 1e3, len(cold_latency))
    result.put("serve.cold_compute_ms", median(cold_compute) * 1e3, len(cold_compute))
    result.put("serve.cache_warmup_s", warmup_s, len(WARM_CELLS))
    cache = TrialCache(cache_dir)
    for family, n, problem, algorithm in WARM_CELLS:
        with tracer.span("runner.spec_compile"):
            spec = solve_spec(family, n, problem, algorithm, seed=ctx.seed)
        with tracer.span("runner.cache_load"):
            found = cache.load(spec)
        if found is None:
            result.fail(f"{spec.label}: not in the server's cache")
    probe_cache = TrialCache(ctx.scratch / "store-probe")
    for spec, payload in stores:
        with tracer.span("runner.cache_store"):
            probe_cache.store(spec, payload, 0.0)
    for name in ("runner.spec_compile", "runner.cache_load", "runner.cache_store"):
        calls = tracer.durations(name)
        result.put(f"{name}_ms", median(calls) * 1e3, len(calls))
    fresh = []
    for i in range(FRESH_CONNECTION_REQUESTS):
        start = time.perf_counter()
        once = _connect(server.port)
        try:
            status, body = _get(once, warm_paths[i % len(warm_paths)])
        finally:
            once.close()
        if status != 200 or not body["cached"]:
            result.fail(f"fresh-connection probe: HTTP {status}")
        fresh.append(time.perf_counter() - start)
    result.put("serve.fresh_conn_p50_ms", median(fresh) * 1e3, len(fresh))
    load = result.details["load"]
    for key in (
        "clients", "warm_attempted", "warm_completed", "cold_attempted",
        "cold_completed",
    ):
        result.put(f"load.{key}", load[key])
    # The server's own handler time is the one named stage of a request;
    # the rest of what the client waits is transport.
    total_client = sum(traced.latencies)
    handled = sum(traced.server_ms) / 1e3
    result.put("trace.coverage", handled / total_client, len(traced.latencies))
    result.put(
        "trace.unattributed_s",
        (total_client - handled) / len(traced.latencies), len(traced.latencies),
    )
    result.put(
        "trace.overhead_frac",
        median(traced.latencies) / median(warm.latencies) - 1.0,
        len(traced.latencies),
    )


WORKLOADS: dict[str, Callable[[Context], Result]] = {
    "scenario-large": scenario_large,
    "sweep-grid": sweep_grid,
    "serve-solve": serve_solve,
}
