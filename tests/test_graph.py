"""Network graphs, incidence/Laplacian spectra, relative-state algebra."""

import math

import numpy as np
import pytest

from mas.errors import (DisconnectedGraph, DuplicateEdge, DimensionMismatch,
                        SelfLoop)
from mas.graph import (build_graph, incidence_matrix, perp_component,
                       relative_state, spectral)

from conftest import random_connected_graph


def test_path3_spectrum():
    g = build_graph(3, [(1, 2), (2, 3)])
    s = spectral(g)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-12)
    assert s.lambda_max == pytest.approx(3.0, abs=1e-12)
    assert s.incidence_transpose_norm == pytest.approx(math.sqrt(3), abs=1e-12)


def test_single_edge_spectrum():
    g = build_graph(2, [(1, 2)])
    s = spectral(g)
    assert s.lambda2 == pytest.approx(2.0, abs=1e-12)
    assert s.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_triangle_spectrum():
    g = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    s = spectral(g)
    assert s.lambda2 == pytest.approx(3.0, abs=1e-12)
    assert s.lambda_max == pytest.approx(3.0, abs=1e-12)


def test_laplacian_equals_incidence_product():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_connected_graph(rng)
        d = incidence_matrix(g)
        assert np.allclose(g.laplacian, d @ d.T, atol=1e-12)
        # row sums vanish and degrees sit on the diagonal
        assert np.allclose(g.laplacian.sum(axis=1), 0.0, atol=1e-12)
        for i in range(1, g.agent_count + 1):
            assert g.laplacian[i - 1, i - 1] == pytest.approx(g.degree(i))


def test_relative_state_path3_fixture():
    g = build_graph(3, [(1, 2), (2, 3)])
    x = np.array([[0.0], [1.0], [3.0]])
    rel = relative_state(g, x)
    assert rel.shape == (2,)  # edge-major stack, one block per edge
    assert np.allclose(rel, [-1.0, -2.0])
    assert np.linalg.norm(rel) == pytest.approx(math.sqrt(5), abs=1e-12)


def test_relative_state_is_incidence_transpose_stack():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_connected_graph(rng)
        x = rng.normal(size=(g.agent_count, g.dimension))
        rel = relative_state(g, x)
        d = incidence_matrix(g)
        assert np.allclose(rel.reshape(g.edge_count, g.dimension),
                           d.T @ x, atol=1e-12)


def test_consensus_state_has_zero_relative_state():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)], dimension=2)
    x = np.tile(np.array([2.5, -1.0]), (4, 1))
    assert np.allclose(relative_state(g, x), 0.0)
    assert np.allclose(perp_component(g, x), 0.0)


def test_perp_component_removes_average():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng)
    x = rng.normal(size=(g.agent_count, g.dimension))
    perp = perp_component(g, x).reshape(g.agent_count, g.dimension)
    assert np.allclose(perp.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x - x.mean(axis=0), perp, atol=1e-12)


def test_neighbors_and_degree():
    g = build_graph(3, [(1, 2), (1, 3)])
    assert g.neighbors(1) == (2, 3)
    assert g.neighbors(2) == (1,)
    assert g.degree(1) == 2
    assert g.edge_count == 2


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(1, 2), (3, 4)])


def test_bounds_stage_computes_the_spectrum_once(monkeypatch):
    # build_graph's connectivity check and the bounds read one spectrum
    from pathlib import Path

    from mas.cli import load_scenario, stage_bounds

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a) or eigvalsh(a))
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / \
        "pair_line.json"
    pipe = stage_bounds(load_scenario(scenario))
    assert len(calls) == 1
    assert pipe.spec.lambda2 == pytest.approx(2.0)


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(2, [(1, 1), (1, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph(2, [(1, 2), (2, 1)])


def test_out_of_range_agent_rejected():
    with pytest.raises(ValueError):
        build_graph(2, [(1, 3)])


def test_relative_state_shape_mismatch():
    g = build_graph(2, [(1, 2)], dimension=2)
    with pytest.raises(DimensionMismatch):
        relative_state(g, np.zeros((3, 2)))


def test_connectivity_inequality_on_random_graphs():
    """The Laplacian amplifies disagreement at rate lambda2 on the
    consensus-orthogonal component, and the relative state dominates the
    orthogonal component by the worst-case stacking factor."""
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        g = random_connected_graph(rng)
        s = spectral(g)
        x = rng.normal(size=(g.agent_count, g.dimension)) \
            * 10.0 ** float(rng.integers(-2, 3))
        perp = perp_component(g, x).reshape(g.agent_count, g.dimension)
        lhs = np.linalg.norm(g.laplacian @ x, axis=0)       # per coordinate
        rhs = s.lambda2 * np.linalg.norm(perp, axis=0)
        assert np.all(lhs - rhs >= -1e-9)

        rel = relative_state(g, x)
        factor = math.sqrt(2 * (g.agent_count - 1))
        assert (np.linalg.norm(perp)
                - np.linalg.norm(rel) / factor) >= -1e-9
