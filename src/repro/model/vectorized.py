"""The vectorized bulk-synchronous engine: lockstep rounds as array ops.

The paper's lockstep algorithms (the greedy strawman, BM21's Linial +
Lemma 11 calendar) are bulk-synchronous by construction: in every round
the *same* small computation runs at every awake node. The per-node
engines (:class:`~repro.model.simulator.SleepingSimulator`,
:func:`~repro.model.lockstep.run_local`) dispatch one Python
object/generator per node per round; this module replaces that with a
handful of numpy operations over *all* nodes at once, pushing feasible
instance sizes from n ≈ 10⁴ to n ≥ 10⁶.

The engine contract (see docs/ARCHITECTURE.md): an engine may schedule
work however it likes, but outputs and the full
:class:`~repro.model.metrics.SimulationMetrics` accounting — per-node
awake rounds, per-node termination rounds, ``messages_sent``,
``active_rounds``, ``last_round`` — must be **bit-identical** to the
simulator engine. The differential suite in
``tests/test_engine_equivalence.py`` is the gate.

How a lockstep execution vectorizes (greedy-by-ID case): node v decides
once every smaller-ID neighbor has decided *and broadcast* — so its
decide round is ``D(v) = 1 + max D(u)`` over smaller neighbors u
(``D = 1`` with none), the length of the longest increasing-ID path
into v. The decide rounds are computed as Kahn waves over the
increasing-ID orientation: a frontier of ready slots, a per-node count
of undecided smaller neighbors decremented by scattered subtraction,
segment reductions over the CSR neighbor array for the decisions
themselves. Each wave is an independent set (two adjacent nodes cannot
both have all smaller neighbors decided while the smaller of the two is
undecided), so a whole wave decides in one batched kernel. The
finish round replays :func:`~repro.model.lockstep.run_local`'s
announce/finish handshake in closed form: v finishes one round after
both its own decision and its last larger neighbor's
(``F(v) = 1 + max(D(v), max D(w))`` over larger neighbors w), it is
awake and broadcasting to all ``deg(v)`` neighbors in rounds
``1..F(v)``, so ``awake(v) = termination(v) = F(v)`` and
``messages_sent = Σ_v deg(v)·F(v)``.

Problem decisions run as array kernels for the built-in O-LOCAL
problems (MIS, (Δ+1)-coloring, vertex cover) and fall back to one
:meth:`~repro.olocal.problem.OLocalProblem.decide` call per node for
everything else — still exactly one call per node total, with exactly
the decided-neighbor mapping the sequential engines would pass, so
plugin problems are automatically supported (their ``decide`` must be a
pure, order-insensitive function of that mapping, which the O-LOCAL
definition already requires). Results are validated the same way:
:func:`check_outputs` checks the built-in problems' outputs over the
CSR arrays and hands everything else to ``problem.check``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.graphs.arrays import (
    ragged_gather,
    segment_any,
    segment_sum,
    sorted_unique,
)
from repro.graphs.graph import StaticGraph
from repro.model.metrics import SimulationMetrics
from repro.model.simulator import SimulationResult
from repro.obs import counters
from repro.obs.spans import span
from repro.olocal.problem import OLocalProblem
from repro.types import NodeId

#: Row budget for the coloring kernel's (wave × palette-window) boolean
#: scatter matrix; waves whose matrix would exceed it are split (the
#: wave is an independent set, so any split decides identically).
_MEX_MATRIX_BUDGET = 1 << 24


# ---------------------------------------------------------------------------
# Wave deciders: batched problem.decide over an independent set of nodes.
# ---------------------------------------------------------------------------


class _WaveDecider:
    """Base class: decide independent-set waves, slot-addressed.

    Subclasses batch one problem's greedy rule over a *wave* — a set of
    slots that (a) is independent and (b) has every decided neighbor
    already processed in an earlier wave. Under any increasing-priority
    schedule the decided neighbors of a deciding node are exactly its
    smaller-priority neighbors, so ``decided`` flags plus the CSR
    adjacency reconstruct the exact mapping ``problem.decide`` sees.
    """

    def __init__(
        self,
        graph: StaticGraph,
        problem: OLocalProblem,
        node_inputs: Mapping[NodeId, Any],
    ) -> None:
        """Bind the graph's CSR arrays and an all-undecided state."""
        self.arrays = graph.arrays
        self.problem = problem
        self.node_inputs = node_inputs
        self.decided = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Decide every slot in ``ready`` and mark them decided."""
        raise NotImplementedError

    def outputs(self) -> dict[NodeId, Any]:
        """Per-node outputs as plain Python objects, keyed by ID."""
        raise NotImplementedError


class _MISDecider(_WaveDecider):
    """Greedy MIS: join iff no decided neighbor joined."""

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot joined flags to the base state."""
        super().__init__(graph, problem, node_inputs)
        self.joined = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Join each ready slot iff no neighbor joined before it."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        # Only decided nodes can have joined, so no decided-mask needed.
        blocked = segment_any(self.joined[nbrs], counts)
        self.joined[ready] = ~blocked
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → joined (bool), matching the sequential greedy MIS."""
        return dict(zip(self.arrays.ids.tolist(), self.joined.tolist()))


class _VertexCoverDecider(_WaveDecider):
    """Greedy minimal vertex cover: the MIS complement rule — enter the
    cover iff some decided neighbor stayed out of it."""

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot cover flags to the base state."""
        super().__init__(graph, problem, node_inputs)
        self.cover = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Cover each ready slot iff a decided neighbor stayed out."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        exposed = self.decided[nbrs] & ~self.cover[nbrs]
        self.cover[ready] = segment_any(exposed, counts)
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → in-cover (bool), matching the sequential greedy rule."""
        return dict(zip(self.arrays.ids.tolist(), self.cover.tolist()))


class _ColoringDecider(_WaveDecider):
    """Greedy (Δ+1)-coloring: the mex over decided neighbors' colors.

    The wave's mex is computed with one boolean scatter matrix of shape
    (wave, max_mex_window): row i marks the colors used around the
    wave's i-th node, and the first unmarked column ≥ 1 is its color.
    """

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot color array (0 = undecided) to the state."""
        super().__init__(graph, problem, node_inputs)
        self.color = np.zeros(self.arrays.n, dtype=np.int64)  # 0 = undecided

    def decide_wave(self, ready: Any) -> None:
        """Color each ready slot with the mex of its decided neighbors."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        # mex(v) <= #decided neighbors + 1 <= deg(v) + 1, so a window of
        # max(counts) + 2 columns always contains the answer.
        width = int(counts.max()) + 2 if len(counts) else 2
        if len(ready) * width > _MEX_MATRIX_BUDGET and len(ready) > 1:
            half = len(ready) // 2
            self.decide_wave(ready[:half])
            self.decide_wave(ready[half:])
            return
        used = np.zeros((len(ready), width), dtype=bool)
        rows = np.repeat(np.arange(len(ready)), counts)
        vals = self.color[nbrs]  # undecided neighbors contribute 0
        # Colors beyond the window cannot affect the mex; fold them onto
        # the ignored column 0.
        used[rows, np.where(vals < width, vals, 0)] = True
        self.color[ready] = used[:, 1:].argmin(axis=1) + 1
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → color (1-based int), matching the sequential mex rule."""
        return dict(zip(self.arrays.ids.tolist(), self.color.tolist()))


class _GenericDecider(_WaveDecider):
    """Fallback for any O-LOCAL problem: one ``decide`` call per node.

    Still vastly faster than the per-round engines — ``decide`` runs
    exactly once per node instead of the node being re-dispatched every
    round — and exact by construction: each call receives precisely the
    decided-neighbor mapping the sequential engines would build.
    """

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot output list and list views of the CSR."""
        super().__init__(graph, problem, node_inputs)
        self._out: list[Any] = [None] * self.arrays.n
        self._ids = self.arrays.ids.tolist()
        self._offsets = self.arrays.offsets.tolist()
        self._flat = self.arrays.flat.tolist()
        from repro.olocal.problem import NodeView

        self._view = NodeView

    def decide_wave(self, ready: Any) -> None:
        """Call ``problem.decide`` once per ready slot, in slot order."""
        nodes, offsets, flat = self._ids, self._offsets, self._flat
        decided, out, inputs = self.decided, self._out, self.node_inputs
        decide, NodeView = self.problem.decide, self._view
        for s in ready.tolist():
            lo, hi = offsets[s], offsets[s + 1]
            decided_neighbors = {
                nodes[t]: out[t] for t in flat[lo:hi] if decided[t]
            }
            view = NodeView(
                id=nodes[s], degree=hi - lo, input=inputs.get(nodes[s])
            )
            out[s] = decide(view, decided_neighbors)
        decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → whatever ``problem.decide`` returned for that node."""
        return dict(zip(self.arrays.ids.tolist(), self._out))


def make_wave_decider(
    graph: StaticGraph,
    problem: OLocalProblem,
    node_inputs: Mapping[NodeId, Any],
) -> _WaveDecider:
    """Pick the fastest exact decider for ``problem``.

    Array kernels are keyed on the *exact* problem class — a subclass
    may override ``decide``, so anything unrecognized (plugins included)
    gets the generic per-node fallback, which is always exact.
    """
    from repro.olocal.coloring import DeltaPlusOneColoring
    from repro.olocal.mis import MaximalIndependentSet
    from repro.olocal.vertex_cover import MinimalVertexCover

    kernel = {
        MaximalIndependentSet: _MISDecider,
        DeltaPlusOneColoring: _ColoringDecider,
        MinimalVertexCover: _VertexCoverDecider,
    }.get(type(problem), _GenericDecider)
    return kernel(graph, problem, node_inputs)


# ---------------------------------------------------------------------------
# Array validators: problem.check for the built-in problems, over the CSR.
# ---------------------------------------------------------------------------


def _mis_accepts(ga: Any, joined: Any) -> bool:
    """Independent (no edge inside) and maximal (every node outside has
    a neighbor inside) — :meth:`MaximalIndependentSet.validate`."""
    if (joined[ga.edge_sources] & joined[ga.flat]).any():
        return False
    return bool((joined | segment_any(joined[ga.flat], ga.degrees)).all())


def _coloring_accepts(ga: Any, color: Any) -> bool:
    """Colors in ``1..deg + 1`` and no monochromatic edge —
    :meth:`DeltaPlusOneColoring.validate`."""
    if ((color < 1) | (color > ga.degrees + 1)).any():
        return False
    return not (color[ga.edge_sources] == color[ga.flat]).any()


def _vertex_cover_accepts(ga: Any, cover: Any) -> bool:
    """A cover whose complement is a maximal independent set — exactly
    :meth:`MinimalVertexCover.validate` (an uncovered edge is an edge
    inside the complement)."""
    return _mis_accepts(ga, ~cover)


def _column(ga: Any, outputs: Mapping[NodeId, Any], kind: type) -> Any:
    """``outputs`` in slot order as a numpy column, or None when a node
    has no output or a value is not exactly of type ``kind``."""
    values = list(map(outputs.get, ga.ids.tolist()))
    if not set(map(type, values)) <= {kind}:
        return None
    try:
        return np.array(values, dtype=bool if kind is bool else np.int64)
    except OverflowError:  # an int beyond int64: let check() judge it
        return None


def check_outputs(
    graph: StaticGraph,
    problem: OLocalProblem,
    outputs: Mapping[NodeId, Any],
    inputs: Mapping[NodeId, Any] | None = None,
) -> None:
    """``problem.check(graph, outputs, inputs)``, as array kernels when
    the problem is built in.

    Like :func:`make_wave_decider`, the array validators are keyed on
    the *exact* problem class — a subclass may override ``validate``,
    so it (and every plugin) goes through its own ``check``. The array
    path can only accept: a violation, a missing output or a value of
    an unexpected type falls back to ``problem.check``, so a failure
    raises the same :class:`~repro.errors.ValidationError` text.
    """
    from repro.olocal.coloring import DeltaPlusOneColoring
    from repro.olocal.mis import MaximalIndependentSet
    from repro.olocal.vertex_cover import MinimalVertexCover

    validator = {
        MaximalIndependentSet: (bool, _mis_accepts),
        DeltaPlusOneColoring: (int, _coloring_accepts),
        MinimalVertexCover: (bool, _vertex_cover_accepts),
    }.get(type(problem))
    if validator is not None:
        kind, accepts = validator
        with span("vectorized.check", n=graph.n):
            ga = graph.arrays
            column = _column(ga, outputs, kind)
            if column is not None and accepts(ga, column):
                return
    problem.check(graph, outputs, inputs)


def decide_by_priority(
    graph: StaticGraph,
    problem: OLocalProblem,
    node_inputs: Mapping[NodeId, Any],
    rank: Any,
) -> _WaveDecider:
    """Run the greedy decision process in ``rank`` order, as Kahn waves.

    ``rank`` is a per-slot permutation of ``0..n-1``; the decisions are
    bit-identical to a sequential greedy pass visiting slots by
    ascending rank (the Theorem 9 priority order ``(color, -dist,
    -ID)``, say). Waves peel the rank orientation of the CSR exactly
    like :func:`greedy_by_id_vectorized` peels the ID orientation: a
    wave is an independent set whose decided neighbors are precisely
    its smaller-rank neighbors, so each wave decides in one batched
    kernel regardless of within-wave order.

    Args:
        graph: the substrate graph (its CSR arrays are used).
        problem: the O-LOCAL problem whose greedy rule decides nodes.
        node_inputs: per-node problem inputs, keyed by node ID.
        rank: int64 array of shape ``(n,)``; ``rank[s]`` is slot s's
            position in the sequential decision order.

    Returns:
        The finished :class:`_WaveDecider`; call ``outputs()`` for the
        per-node results.
    """
    ga = graph.arrays
    decider = make_wave_decider(graph, problem, node_inputs)
    if ga.n == 0:
        return decider
    # The rank-up CSR: per slot, its neighbors of strictly larger rank.
    mask = rank[ga.flat] > rank[ga.edge_sources]
    up_counts = segment_sum(mask.astype(np.int64), ga.offsets)
    up_offsets = np.empty(ga.n + 1, dtype=np.int64)
    up_offsets[0] = 0
    np.cumsum(up_counts, out=up_offsets[1:])
    up_flat = ga.flat[mask]

    remaining = ga.degrees - up_counts  # undecided smaller-rank neighbors
    ready = np.flatnonzero(remaining == 0)
    while ready.size:
        decider.decide_wave(ready)
        targets, _ = ragged_gather(up_offsets, up_flat, ready)
        np.subtract.at(remaining, targets, 1)
        candidates = sorted_unique(targets)
        ready = candidates[remaining[candidates] == 0]
    return decider


# ---------------------------------------------------------------------------
# The vectorized greedy-by-ID lockstep engine.
# ---------------------------------------------------------------------------


def greedy_by_id_vectorized(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
) -> SimulationResult:
    """The always-awake greedy strawman as array kernels.

    Bit-identical to :func:`repro.model.lockstep.greedy_by_id_local`
    (outputs and every metric) — see the module docstring for the
    closed-form round accounting — but with O(V + E) total array work
    instead of O(V · rounds) Python dispatch.
    """
    node_inputs = inputs if inputs is not None else problem.make_inputs(graph)
    metrics = SimulationMetrics()
    if graph.n == 0:
        return SimulationResult(outputs={}, metrics=metrics, graph=graph)

    ga = graph.arrays
    up_offsets, up_flat = ga.up
    # Undecided smaller-ID neighbors: total degree minus up-degree.
    remaining = ga.degrees - (up_offsets[1:] - up_offsets[:-1])
    decide_round = np.zeros(ga.n, dtype=np.int64)
    decider = make_wave_decider(graph, problem, node_inputs)

    ready = np.flatnonzero(remaining == 0)
    wave = 0
    with span("vectorized.waves", n=ga.n):
        while ready.size:
            wave += 1
            decider.decide_wave(ready)
            decide_round[ready] = wave
            # Release the larger neighbors; those hitting zero form the
            # next wave. Work is proportional to the wave's out-edges,
            # so the whole loop is O(E) regardless of the wave count.
            targets, _ = ragged_gather(up_offsets, up_flat, ready)
            np.subtract.at(remaining, targets, 1)
            candidates = sorted_unique(targets)
            ready = candidates[remaining[candidates] == 0]

    with span("vectorized.accounting", n=ga.n, waves=wave):
        # F(v) = 1 + max(D(v), max over larger neighbors w of D(w)).
        finish = decide_round.copy()
        if up_flat.size:
            up_counts = up_offsets[1:] - up_offsets[:-1]
            up_sources = np.repeat(
                np.arange(ga.n, dtype=np.int64), up_counts
            )
            np.maximum.at(finish, up_sources, decide_round[up_flat])
        finish += 1

        ids = ga.ids.tolist()
        finish_list = finish.tolist()
        metrics.awake_rounds = dict(zip(ids, finish_list))
        metrics.termination_round = dict(zip(ids, finish_list))
        metrics.messages_sent = int(ga.degrees @ finish)
        metrics.last_round = int(finish.max())
        metrics.active_rounds = metrics.last_round
    counters.add("sim.run")
    counters.add("sim.messages", metrics.messages_sent)
    counters.add("sim.rounds", metrics.active_rounds)
    return SimulationResult(
        outputs=decider.outputs(), metrics=metrics, graph=graph
    )
