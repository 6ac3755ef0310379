"""Workspace decompositions into axis-aligned cells, and service labelings.

Every decomposition is a product of per-axis cuts: the cells are the boxes
between consecutive cuts on every axis, numbered 1-based in C order (last
axis fastest). Cells are half-open boxes [lo, hi) except on the workspace's
upper faces, where the boundary belongs to the touching cell, so every
workspace point has exactly one cell, found by a binary search per axis.
A label-compliant refinement adds the (snapped) region bounds to a grid's
cuts, so it is again a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, OutsideWorkspace, SemanticError

GRID_CELL_CAP = 10**6
_ALIGN_TOL = 1e-9  # relative snap distance for region bounds onto grid cuts


@dataclass(frozen=True, eq=False)
class Workspace:
    """Axis-aligned box the agents operate in."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.size != hi.size or lo.size == 0:
            raise ValueError("workspace bounds must be equal-length vectors")
        if not np.all(lo < hi):
            raise ValueError(f"workspace must have positive extent, got {lo}..{hi}")

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float).reshape(-1)
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))


@dataclass(eq=False)
class CellDecomposition:
    """The boxes between consecutive per-axis cuts of a workspace.

    ``cuts[k]`` is the increasing array of cell faces on axis k. It runs
    from the workspace's lower to its upper bound, so neighbouring cells
    share bitwise-equal faces. ``lows`` and ``highs`` (M x n) hold each
    cell's corners in C order, ``centers`` (M x n, read-only: every caller
    shares it) their midpoints, ``inradii`` (M, read-only too) half of each
    cell's shortest side, and ``diameter`` is the longest cell diagonal;
    all five are derived from the cuts.
    """

    workspace: Workspace
    cuts: tuple[np.ndarray, ...]
    lows: np.ndarray = field(init=False)
    highs: np.ndarray = field(init=False)
    centers: np.ndarray = field(init=False)
    inradii: np.ndarray = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self):
        self.cuts = tuple(np.asarray(c, dtype=float) for c in self.cuts)

        def corners(faces):
            grid = np.meshgrid(*faces, indexing="ij")
            return np.stack(grid, axis=-1).reshape(-1, len(faces))

        self.lows = corners([c[:-1] for c in self.cuts])
        self.highs = corners([c[1:] for c in self.cuts])
        self.centers = 0.5 * (self.lows + self.highs)
        self.centers.flags.writeable = False
        self.inradii = 0.5 * (self.highs - self.lows).min(axis=1)
        self.inradii.flags.writeable = False
        # a product holds a cell that is widest on every axis at once
        self.diameter = float(np.linalg.norm(
            [np.diff(c).max() for c in self.cuts]))

    @property
    def cell_count(self) -> int:
        return self.lows.shape[0]

    @property
    def dimension(self) -> int:
        return self.workspace.dimension

    @property
    def cells_per_axis(self) -> tuple[int, ...]:
        """Cells along each axis."""
        return tuple(len(c) - 1 for c in self.cuts)

    def bounds(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of a cell (1-based index)."""
        if not 1 <= index <= self.cell_count:
            raise IndexError(f"no cell {index} in a {self.cell_count}-cell decomposition")
        return self.lows[index - 1], self.highs[index - 1]

    def center(self, index: int) -> np.ndarray:
        self.bounds(index)  # IndexError outside 1..cell_count
        return self.centers[index - 1]

    def inradius(self, index: int) -> float:
        self.bounds(index)  # IndexError outside 1..cell_count
        return float(self.inradii[index - 1])


def grid_decompose(workspace: Workspace, target_diameter: float,
                   cap: int = GRID_CELL_CAP) -> CellDecomposition:
    """Smallest uniform grid of cubical-target cells with diameter <= target.

    Each axis is split into ceil(extent / (target/sqrt(n))) equal parts, which
    is the fewest cells for which the cell diagonal fits under the target.
    """
    if target_diameter <= 0:
        raise ValueError(f"target diameter must be positive, got {target_diameter}")
    n = workspace.dimension
    side_target = target_diameter / math.sqrt(n)
    counts = tuple(int(math.ceil(workspace.extent[k] / side_target - 1e-12))
                   for k in range(n))
    counts = tuple(max(1, c) for c in counts)
    total = math.prod(counts)
    if total > cap:
        raise BudgetExceeded(
            f"grid would need {total} cells (cap {cap}); "
            f"coarsen the target diameter")
    sides = workspace.extent / np.array(counts, dtype=float)
    # one cut array per axis so adjacent cells share bitwise-equal faces
    grid_axes = []
    for k in range(n):
        cuts = workspace.lower[k] + sides[k] * np.arange(counts[k] + 1)
        cuts[-1] = workspace.upper[k]  # outer face exactly on the boundary
        grid_axes.append(cuts)
    return CellDecomposition(workspace, tuple(grid_axes))


def cell_of(decomposition: CellDecomposition, point) -> int:
    """1-based index of the cell containing a point.

    Cells are half-open; a point on the workspace's upper boundary belongs to
    the last cell along that axis. Points outside the workspace raise
    OutsideWorkspace.
    """
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.size != decomposition.dimension:
        raise OutsideWorkspace(f"point has dimension {p.size}, workspace has "
                               f"{decomposition.dimension}")
    return int(cells_of(decomposition, p))


def cells_of(decomposition: CellDecomposition, points) -> np.ndarray:
    """`cell_of` for every point of a (..., n) array at once.

    Returns an int array of shape (...). When some points lie outside the
    workspace, the OutsideWorkspace error names the first of them in C order.
    """
    pts = np.asarray(points, dtype=float)
    ws = decomposition.workspace
    if pts.ndim == 0 or pts.shape[-1] != ws.dimension:
        raise OutsideWorkspace(f"points have shape {pts.shape}, workspace "
                               f"has dimension {ws.dimension}")
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, ws.dimension)
    inside = np.all((pts >= ws.lower) & (pts <= ws.upper), axis=1)
    if not inside.all():
        k = int(np.argmin(inside))
        raise OutsideWorkspace(f"point {pts[k].tolist()} is outside the "
                               f"workspace")
    counts = decomposition.cells_per_axis
    # index of the last cut <= p; upper faces fold into the last cell
    idx = [np.clip(np.searchsorted(c, pts[:, k], side="right") - 1, 0,
                   counts[k] - 1)
           for k, c in enumerate(decomposition.cuts)]
    return (np.ravel_multi_index(idx, counts) + 1).reshape(shape)


@dataclass(eq=False)
class LabeledRegion:
    """Axis-aligned box with the services each agent can provide inside it."""

    lower: np.ndarray
    upper: np.ndarray
    services: dict[int, frozenset[str]]

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float).reshape(-1)
        self.upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if not np.all(self.lower < self.upper):
            raise ValueError("region must have positive extent")
        self.services = {int(a): frozenset(s) for a, s in self.services.items()}


@dataclass(eq=False)
class ServiceLabeling:
    """Per-agent service sets per cell; per-agent alphabets are disjoint."""

    alphabets: dict[int, frozenset[str]]
    labels: dict[int, dict[int, frozenset[str]]]

    def __post_init__(self):
        seen: dict[str, int] = {}
        for agent, alphabet in sorted(self.alphabets.items()):
            for service in alphabet:
                if service in seen:
                    raise SemanticError(
                        f"service '{service}' assigned to both agent "
                        f"{seen[service]} and agent {agent}; per-agent service "
                        f"sets must be disjoint")
                seen[service] = agent

    def label(self, agent: int, cell: int) -> frozenset[str]:
        return self.labels.get(agent, {}).get(cell, frozenset())


def _refined_axis(grid_cuts: np.ndarray, bounds: np.ndarray, tol: float):
    """One axis of a refinement: (cuts, where each region bound ended up).

    Region bounds within ``tol`` of a grid cut snap onto it. The cuts are
    the grid cuts plus the snapped bounds, with cuts closer than ``tol`` to
    the one below merged into it (no sliver cells). Each bound is returned
    as the cut it ended up on, so a region covers whole cells.
    """
    nearest = grid_cuts[np.abs(grid_cuts[:, None] - bounds).argmin(axis=0)]
    bounds = np.where(np.abs(nearest - bounds) <= tol, nearest, bounds)
    ordered, slot = np.unique(np.concatenate([grid_cuts, bounds]),
                              return_inverse=True)
    merged = [0]  # index into ordered of each kept cut
    into = np.zeros(len(ordered), dtype=int)  # kept cut of every value
    for i in range(1, len(ordered)):
        if ordered[i] - ordered[merged[-1]] > tol:
            merged.append(i)
        into[i] = len(merged) - 1
    cuts = ordered[merged]
    return cuts, cuts[into[slot[len(grid_cuts):]]]


def refine_to_compliance(
    regions: list[LabeledRegion],
    grid: CellDecomposition,
) -> tuple[CellDecomposition, ServiceLabeling]:
    """Refine a grid so service labels are constant per cell.

    The refined cuts on each axis are the grid cuts plus the region bounds,
    clipped to the workspace and snapped onto nearby cuts (see
    `_refined_axis`). So every refined cell lies inside exactly one grid
    cell, and inside or outside each region as a whole. An agent's label on
    a cell is the union of its services over the regions containing the
    cell; space no region covers stays unlabeled.
    """
    ws = grid.workspace
    n = ws.dimension
    for r in regions:
        if r.lower.size != n:
            raise SemanticError(
                f"region has dimension {r.lower.size}, workspace has {n}")
    # every region's lower corner, then every region's upper corner
    bounds = np.clip(np.reshape([r.lower for r in regions]
                                + [r.upper for r in regions], (-1, n)),
                     ws.lower, ws.upper)
    cuts = []
    for k in range(n):
        tol = _ALIGN_TOL * max(1.0, abs(ws.extent[k]))
        axis_cuts, bounds[:, k] = _refined_axis(grid.cuts[k], bounds[:, k],
                                                tol)
        cuts.append(axis_cuts)
    refined = CellDecomposition(ws, tuple(cuts))
    lows, highs = np.split(bounds, 2)
    # (cell, region) pairs where the cell lies inside the region
    covers = np.all((lows <= refined.lows[:, None])
                    & (refined.highs[:, None] <= highs), axis=2)

    agents = sorted({a for r in regions for a in r.services})
    labels: dict[int, dict[int, frozenset[str]]] = {a: {} for a in agents}
    for cell0, row in enumerate(covers):
        covering = [regions[i] for i in np.flatnonzero(row)]
        for agent in agents:
            svc = frozenset().union(
                *(r.services.get(agent, frozenset()) for r in covering))
            if svc:
                labels[agent][cell0 + 1] = svc
    labeling = ServiceLabeling(
        alphabets={a: frozenset().union(*labels[a].values()) for a in agents},
        labels=labels,
    )
    return refined, labeling
