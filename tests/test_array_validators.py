"""The array validators of the vectorized engine, against ``validate``.

:func:`repro.model.vectorized.check_outputs` checks MIS, (Δ+1)-coloring
and minimal vertex cover outputs with numpy over the CSR arrays and
falls back to ``problem.check`` on anything it does not accept. The
contract: it passes exactly when ``problem.validate(...) == []``, it
raises ``problem.check``'s own message when it does not, and for a
complete, well-typed valid result it never calls ``validate`` at all.
Outputs are the greedy result plus single mutations, on the seeded
families and on an unpatched G(n, p) with isolated nodes, under the
``identity``, ``permuted`` and ``poly2`` ID schemes.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, run_scenario
from repro.errors import ValidationError
from repro.graphs.families import build_family_graph, resolve_id_assignment
from repro.graphs.graph import StaticGraph
from repro.model.vectorized import check_outputs
from repro.olocal import PROBLEMS
from repro.olocal.mis import MaximalIndependentSet
from repro.olocal.problem import id_priority, sequential_greedy

ARRAY_PROBLEMS = ("mis", "coloring", "vertex-cover")
SCHEMES = ("identity", "permuted", "poly2")
FAMILIES = ("gnp", "tree", "grid", "path", "cycle", "star", "powerlaw")
MUTATIONS = (
    "none",
    "flip",
    "copy-neighbor",
    "color-0",
    "color-deg+2",
    "wrong-type",
    "missing",
)
#: Values of the wrong type for at least one of the problems.
ODD_VALUES = (0, 1, 2**70, 1.0, None, "1", True, False)


@st.composite
def graphs(draw):
    """A seeded family graph, or an unpatched G(n, p) with isolated nodes
    (n >= 3, the least every family accepts)."""
    n = draw(st.integers(min_value=3, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scheme = draw(st.sampled_from(SCHEMES))
    family = draw(st.sampled_from((*FAMILIES, "unpatched")))
    if family == "unpatched":
        sampled = nx.fast_gnp_random_graph(n, 2.0 / n, seed=seed)
        ids = resolve_id_assignment(scheme, n, seed)
        return StaticGraph.from_networkx(sampled, ids)
    return build_family_graph(family, n, seed=seed, ids=scheme)


def mutate(graph, outputs, mutation, data):
    """One single-point change of ``outputs`` (a copy)."""
    outputs = dict(outputs)
    v = data.draw(st.sampled_from(graph.nodes))
    if mutation == "flip":
        outputs[v] = not outputs[v]
    elif mutation == "copy-neighbor" and graph.degree(v):
        outputs[v] = outputs[data.draw(st.sampled_from(graph.neighbors(v)))]
    elif mutation == "color-0":
        outputs[v] = 0
    elif mutation == "color-deg+2":
        outputs[v] = graph.degree(v) + 2
    elif mutation == "wrong-type":
        outputs[v] = data.draw(st.sampled_from(ODD_VALUES))
    elif mutation == "missing":
        del outputs[v]
    return outputs


class CountingValidate:
    """Counts ``validate`` calls on one problem instance."""

    def __init__(self, problem):
        self.calls = 0
        self.original = problem.validate

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)


@settings(max_examples=400, deadline=None)
@given(
    graph=graphs(),
    name=st.sampled_from(ARRAY_PROBLEMS),
    mutation=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_array_check_agrees_with_validate(graph, name, mutation, data):
    problem = PROBLEMS.get(name)
    inputs = problem.make_inputs(graph)
    greedy = sequential_greedy(graph, problem, id_priority, inputs)
    outputs = mutate(graph, greedy, mutation, data)
    violations = problem.validate(graph, outputs, inputs)

    problem.validate = counting = CountingValidate(problem)
    try:
        check_outputs(graph, problem, outputs, inputs)
    except ValidationError as exc:
        assert violations, "the array check rejected a valid result"
        message = str(exc)
    else:
        assert violations == [], "the array check accepted violations"
        message = None
    finally:
        del problem.validate

    if violations:
        with pytest.raises(ValidationError) as reference:
            problem.check(graph, outputs, inputs)
        assert message == str(reference.value)
    well_typed = set(map(type, outputs.values())) == {type(greedy[graph.nodes[0]])}
    if not violations and well_typed and len(outputs) == graph.n:
        assert counting.calls == 0, "a valid result fell back to validate"


class StrictMIS(MaximalIndependentSet):
    """An MIS whose own ``validate`` also forbids node 1 from joining."""

    def validate(self, graph, outputs, inputs=None):
        extra = ["node 1 joined"] if outputs.get(1) else []
        return super().validate(graph, outputs, inputs) + extra


def test_subclass_goes_through_its_own_validate():
    graph = build_family_graph("path", 5)  # greedy joins node 1
    problem = StrictMIS()
    outputs = sequential_greedy(graph, problem, id_priority)
    assert MaximalIndependentSet().validate(graph, outputs) == []
    with pytest.raises(ValidationError, match="node 1 joined"):
        check_outputs(graph, problem, outputs)


@pytest.mark.parametrize("name", ARRAY_PROBLEMS)
def test_empty_and_isolated_graphs(name):
    problem = PROBLEMS.get(name)
    for graph in (
        StaticGraph.from_edges([]),
        StaticGraph.from_edges([], nodes=[3, 7, 9], id_space=9),
    ):
        outputs = sequential_greedy(graph, problem, id_priority)
        check_outputs(graph, problem, outputs)


# -- the machine-independent gate -----------------------------------------------


@pytest.fixture
def walk_counts(monkeypatch):
    """Count ``StaticGraph.edges`` walks and problem ``validate`` calls."""
    counts = {"edges": 0, "validate": 0}
    edges = StaticGraph.edges

    def counted_edges(self, *args, **kwargs):
        counts["edges"] += 1
        return edges(self, *args, **kwargs)

    monkeypatch.setattr(StaticGraph, "edges", counted_edges)
    for name in (*ARRAY_PROBLEMS, "list-coloring"):
        cls = type(PROBLEMS.get(name))
        validate = cls.validate

        def counted_validate(self, *args, _validate=validate, **kwargs):
            counts["validate"] += 1
            return _validate(self, *args, **kwargs)

        monkeypatch.setattr(cls, "validate", counted_validate)
    return counts


ALGORITHMS = ("greedy", "baseline", "theorem1", "theorem9")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("problem", ARRAY_PROBLEMS)
def test_vectorized_runs_never_walk_edges_in_python(walk_counts, problem, algorithm):
    run = run_scenario(
        Scenario(
            family="gnp",
            n=48,
            seed=3,
            problem=problem,
            algorithm=algorithm,
            engine="vectorized",
        )
    )
    assert run.ok, run.errors
    assert walk_counts == {"edges": 0, "validate": 0}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_list_coloring_still_validates_in_python(walk_counts, algorithm):
    run = run_scenario(
        Scenario(
            family="gnp",
            n=48,
            seed=3,
            problem="list-coloring",
            algorithm=algorithm,
            engine="vectorized",
        )
    )
    assert run.ok, run.errors
    assert walk_counts["validate"] >= 1
    assert walk_counts["edges"] >= 1
