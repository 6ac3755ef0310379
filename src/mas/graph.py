"""Communication graphs, stacked state vectors, and Laplacian spectra.

Agents are numbered 1..N in all public inputs and outputs. A stacked vector
lists agent 1's coordinates first, then agent 2's, and so on. Edges are
undirected; for the incidence matrix the lower-numbered endpoint is the tail,
so the relative state of edge {i, j} with i < j is x_i - x_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DisconnectedGraph, DuplicateEdge, SelfLoop

CONNECTIVITY_TOL = 1e-9


@dataclass(frozen=True)
class NetworkGraph:
    """Connected undirected communication graph over agents 1..N."""

    agent_count: int
    dimension: int
    edges: tuple[tuple[int, int], ...]  # normalized (low, high), sorted

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.agent_count)]
        for i, j in self.edges:
            nbrs[i - 1].append(j)
            nbrs[j - 1].append(i)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """N x N graph Laplacian (read-only: every caller shares it)."""
        lap = np.zeros((self.agent_count, self.agent_count))
        for i, j in self.edges:
            lap[i - 1, i - 1] += 1.0
            lap[j - 1, j - 1] += 1.0
            lap[i - 1, j - 1] -= 1.0
            lap[j - 1, i - 1] -= 1.0
        lap.flags.writeable = False
        return lap

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues in ascending order, computed once per graph
        (read-only, like the Laplacian)."""
        eigvals = np.linalg.eigvalsh(self.laplacian)
        eigvals.flags.writeable = False
        return eigvals

    def neighbors(self, agent: int) -> tuple[int, ...]:
        """Sorted neighbor ids of an agent (1-based)."""
        return self._neighbors[agent - 1]

    def degree(self, agent: int) -> int:
        return len(self.neighbors(agent))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def incidence_matrix(g: NetworkGraph) -> np.ndarray:
    """N x E incidence matrix; +1 at the tail (lower id), -1 at the head."""
    d = np.zeros((g.agent_count, g.edge_count))
    for e, (i, j) in enumerate(g.edges):
        d[i - 1, e] = 1.0
        d[j - 1, e] = -1.0
    return d


def build_graph(agent_count: int, edges, dimension: int = 1) -> NetworkGraph:
    """Validate and normalize a graph description.

    Raises SelfLoop / DuplicateEdge on malformed edge lists, and
    DisconnectedGraph (from `spectral`) when the graph is not connected.
    """
    if agent_count < 2:
        raise ValueError(f"need at least 2 agents, got {agent_count}")
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    normalized = []
    seen = set()
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if not (1 <= i <= agent_count and 1 <= j <= agent_count):
            raise ValueError(f"edge ({i},{j}) references an unknown agent")
        if i == j:
            raise SelfLoop(f"edge ({i},{j}) is a self-loop")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
        normalized.append(key)
    normalized.sort()
    g = NetworkGraph(agent_count, dimension, tuple(normalized))
    spectral(g)  # the connectivity check
    return g


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Laplacian spectrum facts used by the reachability bounds (the
    Laplacian itself is `NetworkGraph.laplacian`)."""

    lambda2: float
    lambda_max: float
    incidence_transpose_norm: float  # spectral norm of D^T, = sqrt(lambda_max)


def spectral(g: NetworkGraph) -> SpectralData:
    """Compute the Laplacian eigenvalues in use.

    Raises DisconnectedGraph when the second eigenvalue is below tolerance.
    """
    eigvals = g.eigenvalues
    lambda2 = float(eigvals[1])
    lambda_max = float(eigvals[-1])
    if lambda2 <= CONNECTIVITY_TOL:
        raise DisconnectedGraph(
            f"graph is disconnected (lambda_2 = {lambda2:.3e})")
    return SpectralData(
        lambda2=lambda2,
        lambda_max=lambda_max,
        incidence_transpose_norm=float(np.sqrt(lambda_max)),
    )


def _positions(g: NetworkGraph, x) -> np.ndarray:
    """A stacked vector (agent 1's block first) as an (N, n) array."""
    vals = np.asarray(x, dtype=float).reshape(-1)
    if vals.size != g.agent_count * g.dimension:
        raise DimensionMismatch(
            f"vector has {vals.size} entries, expected "
            f"{g.agent_count}*{g.dimension}")
    return vals.reshape(g.agent_count, g.dimension)


def relative_state(g: NetworkGraph, x) -> np.ndarray:
    """Edge-stacked relative state: block e is x_i - x_j for edge (i, j), i < j.

    Equals (D^T (x) per coordinate), stacked edge-major.
    """
    pos = _positions(g, x)
    out = np.empty((g.edge_count, g.dimension))
    for e, (i, j) in enumerate(g.edges):
        out[e] = pos[i - 1] - pos[j - 1]
    return out.reshape(-1)


def perp_component(g: NetworkGraph, x) -> np.ndarray:
    """Projection of a stacked vector onto the disagreement subspace.

    Per coordinate, subtracts the average over agents (the component along
    the all-ones consensus direction).
    """
    pos = _positions(g, x)
    return (pos - pos.mean(axis=0, keepdims=True)).reshape(-1)
