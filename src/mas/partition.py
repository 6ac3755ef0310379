"""Workspace decompositions into axis-aligned cells, and service labelings.

Cells are half-open boxes [lo, hi) except on the workspace's upper faces,
where the boundary belongs to the touching cell, so every workspace point has
exactly one cell. Cell indices are 1-based. Decompositions that are a product
of per-axis cuts (uniform grids, and refinements that add cuts) are numbered
in C order (last axis fastest) and keep their cuts for a binary-search
lookup; refinements by tiling regions keep construction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, OutsideWorkspace, SemanticError

GRID_CELL_CAP = 10**6
_ALIGN_TOL = 1e-9  # relative snap distance for region bounds onto grid cuts
_LOOKUP_CHUNK = 1 << 15  # point x cell x axis comparisons per lookup block


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
    """Partition of a workspace into axis-aligned boxes.

    ``cuts`` is set when the cells are the product of per-axis cut arrays
    (see `_product_cells`); other decompositions are searched cell by cell.
    """

    workspace: Workspace
    lows: np.ndarray   # (M, n)
    highs: np.ndarray  # (M, n)
    cuts: tuple[np.ndarray, ...] | None = None
    diameter: float = field(default=0.0)

    def __post_init__(self):
        self.lows = np.asarray(self.lows, dtype=float)
        self.highs = np.asarray(self.highs, dtype=float)
        if self.diameter == 0.0:
            self.diameter = float(
                np.sqrt(((self.highs - self.lows) ** 2).sum(axis=1)).max())

    @property
    def cell_count(self) -> int:
        return self.lows.shape[0]

    @property
    def dimension(self) -> int:
        return self.workspace.dimension

    def bounds(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of a cell (1-based index)."""
        if not 1 <= index <= self.cell_count:
            raise IndexError(f"no cell {index} in a {self.cell_count}-cell decomposition")
        return self.lows[index - 1], self.highs[index - 1]

    def center(self, index: int) -> np.ndarray:
        lo, hi = self.bounds(index)
        return 0.5 * (lo + hi)

    def inradius(self, index: int) -> float:
        lo, hi = self.bounds(index)
        return 0.5 * float((hi - lo).min())

    @property
    def cells_per_axis(self) -> tuple[int, ...] | None:
        """Cells along each axis of a product of cuts, else None."""
        if self.cuts is None:
            return None
        return tuple(len(c) - 1 for c in self.cuts)


def _product_cells(workspace: Workspace, cuts,
                   diameter: float = 0.0) -> CellDecomposition:
    """The cells between consecutive cuts on every axis, in C order.

    Each cut array runs from the workspace's lower to its upper bound, so
    cell faces are the cut values themselves.
    """
    cuts = tuple(np.asarray(c, dtype=float) for c in cuts)

    def corners(faces):
        grid = np.meshgrid(*faces, indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, len(cuts))

    return CellDecomposition(workspace=workspace,
                             lows=corners([c[:-1] for c in cuts]),
                             highs=corners([c[1:] for c in cuts]),
                             cuts=cuts, diameter=diameter)


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
    return _product_cells(workspace, grid_axes,
                          diameter=float(np.linalg.norm(sides)))


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

    Returns an int array of shape (...). When some points have no cell, the
    OutsideWorkspace error names the first of them in C order.
    """
    pts = np.asarray(points, dtype=float)
    ws = decomposition.workspace
    if pts.ndim == 0 or pts.shape[-1] != ws.dimension:
        raise OutsideWorkspace(f"points have shape {pts.shape}, workspace "
                               f"has dimension {ws.dimension}")
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, ws.dimension)
    inside = np.all((pts >= ws.lower) & (pts <= ws.upper), axis=1)
    if decomposition.cuts is not None:
        counts = decomposition.cells_per_axis
        # index of the last cut <= p; upper faces fold into the last cell
        idx = [np.clip(np.searchsorted(c, pts[:, k], side="right") - 1, 0,
                       counts[k] - 1)
               for k, c in enumerate(decomposition.cuts)]
        cells = np.ravel_multi_index(idx, counts)
        found = inside
    else:
        lows, highs = decomposition.lows, decomposition.highs
        cells = np.empty(len(pts), dtype=int)
        found = np.empty(len(pts), dtype=bool)
        chunk = max(1, _LOOKUP_CHUNK // lows.size)
        for start in range(0, len(pts), chunk):
            p = pts[start:start + chunk, None, :]
            inside_cell = p < highs
            inside_cell |= (p == ws.upper) & (p == highs)
            inside_cell &= lows <= p
            hit = inside_cell.all(axis=2)
            first = np.argmax(hit, axis=1)  # the first containing cell
            cells[start:start + chunk] = first
            found[start:start + chunk] = hit[np.arange(len(first)), first]
        found &= inside
    if not found.all():
        k = int(np.argmin(found))
        where = "falls between cells" if inside[k] else \
            "is outside the workspace"
        raise OutsideWorkspace(f"point {pts[k].tolist()} {where}")
    return (cells + 1).reshape(shape)


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


def _snap(values: np.ndarray, cuts: np.ndarray, scale: float) -> np.ndarray:
    """Snap values onto nearby cut coordinates (within relative tolerance)."""
    out = values.copy()
    for i, v in enumerate(values):
        j = np.argmin(np.abs(cuts - v))
        if abs(cuts[j] - v) <= _ALIGN_TOL * max(1.0, abs(scale)):
            out[i] = cuts[j]
    return out


def _is_partition(regions, workspace) -> bool:
    """True when the regions tile the workspace (disjoint interiors, full cover)."""
    vol_ws = float(np.prod(workspace.extent))
    vol_sum = 0.0
    boxes = []
    for r in regions:
        lo = np.maximum(r.lower, workspace.lower)
        hi = np.minimum(r.upper, workspace.upper)
        if np.any(lo >= hi):
            return False
        boxes.append((lo, hi))
        vol_sum += float(np.prod(hi - lo))
    if abs(vol_sum - vol_ws) > 1e-9 * vol_ws:
        return False
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            lo = np.maximum(boxes[a][0], boxes[b][0])
            hi = np.minimum(boxes[a][1], boxes[b][1])
            if np.all(hi - lo > 1e-9 * np.max(workspace.extent)):
                return False
    return True


def refine_to_compliance(
    regions: list[LabeledRegion],
    grid: CellDecomposition,
) -> tuple[CellDecomposition, ServiceLabeling]:
    """Refine an abstraction grid so service labels are constant per cell.

    When the regions tile the workspace, the result is the set of pairwise
    region/cell intersections with empties dropped. Sparse labeled patches are
    completed rectilinearly first (cut coordinates = grid cuts + region
    bounds), leaving uncovered space unlabeled. Either way every output cell
    lies inside exactly one input grid cell and inside or outside each region
    as a whole.
    """
    ws = grid.workspace
    n = ws.dimension
    grid_cuts = [np.unique(np.concatenate([grid.lows[:, k], grid.highs[:, k]]))
                 for k in range(n)]
    for r in regions:
        if r.lower.size != n:
            raise SemanticError(
                f"region has dimension {r.lower.size}, workspace has {n}")
    # snap region bounds onto grid cut coordinates axis by axis
    fixed_regions = []
    for r in regions:
        lo = r.lower.copy()
        hi = r.upper.copy()
        for k in range(n):
            scale = ws.extent[k]
            lo[k:k + 1] = _snap(lo[k:k + 1], grid_cuts[k], scale)
            hi[k:k + 1] = _snap(hi[k:k + 1], grid_cuts[k], scale)
        fixed_regions.append(LabeledRegion(lo, hi, r.services))

    if fixed_regions and _is_partition(fixed_regions, ws):
        lows, highs, owners = [], [], []
        for cell_idx in range(1, grid.cell_count + 1):
            clo, chi = grid.bounds(cell_idx)
            for r in fixed_regions:
                lo = np.maximum(clo, r.lower)
                hi = np.minimum(chi, r.upper)
                if np.all(lo < hi):
                    lows.append(lo)
                    highs.append(hi)
                    owners.append([r])
        refined = CellDecomposition(
            workspace=ws,
            lows=np.array(lows).reshape(len(lows), n),
            highs=np.array(highs).reshape(len(highs), n),
        )
    else:
        cuts = []
        for k in range(n):
            coords = list(grid_cuts[k])
            for r in fixed_regions:
                coords.extend([r.lower[k], r.upper[k]])
            coords = [c for c in coords if ws.lower[k] <= c <= ws.upper[k]]
            ordered = np.unique(np.array(coords, dtype=float))
            # merge cuts closer than the snap tolerance (no sliver cells)
            tol = _ALIGN_TOL * max(1.0, abs(ws.extent[k]))
            merged = [float(ordered[0])]
            for c in ordered[1:]:
                if c - merged[-1] > tol:
                    merged.append(float(c))
            merged[0] = float(ws.lower[k])
            merged[-1] = float(ws.upper[k])
            cuts.append(np.array(merged))
        refined = _product_cells(ws, cuts)
        owners = [[r for r in fixed_regions
                   if np.all(r.lower <= lo) and np.all(hi <= r.upper)]
                  for lo, hi in zip(refined.lows, refined.highs)]

    agents = sorted({a for r in fixed_regions for a in r.services})
    labels: dict[int, dict[int, frozenset[str]]] = {a: {} for a in agents}
    alphabets: dict[int, set[str]] = {a: set() for a in agents}
    for cell0, covering in enumerate(owners):
        for agent in agents:
            svc: set[str] = set()
            for r in covering:
                svc |= r.services.get(agent, frozenset())
            if svc:
                labels[agent][cell0 + 1] = frozenset(svc)
                alphabets[agent] |= svc
    labeling = ServiceLabeling(
        alphabets={a: frozenset(s) for a, s in alphabets.items()},
        labels=labels,
    )
    return refined, labeling
