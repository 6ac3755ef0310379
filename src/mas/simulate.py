"""Continuous execution of synthesized plans and invariance trials.

Closed-loop execution uses the piecewise-constant feedback law from the
abstraction (aim at the target cell's center, subtract the measured drift,
clamp to the input bound). Between samples the input is constant and
x' = -Lx + v is linear, so the flow is propagated exactly rather than
integrated: with L = U diag(lam) U^T and s the offset into the interval,

    x(t_j + s) = x_j + A_s x_j + G_s v_j,
    A_s = U diag(expm1(-lam s)) U^T,  G_s = U diag(-expm1(-lam s)/lam) U^T

(G_s has s in place of the zero eigenvalue's entry). `substeps` sets how
many evenly spaced nodes per interval are recorded and checked against the
workspace; leaving it at any node is an error. Adding the small increment
A_s x_j + G_s v_j to x_j, instead of forming e^{-Ls} x_j, keeps agents that
sit still bitwise still. Saturated inputs are reported with a warning
because a well-posed plan never needs them.

Plan execution is computed for the whole horizon at once. Unclamped, the
feedback v_j = d_j/dt + L x_j, with d_j = C_j - x_j the offset from the
boundary state to interval j's target center C_j, cancels the held drift
(A_s + G_s L = 0), so every node is

    x(t_j + s) = x_j + (G_s/dt) d_j,   d_{j+1} = M d_j + (C_{j+1} - C_j),

with M = I - G_dt/dt diagonal in the eigenbasis, m(lam) in [0, 1). A
doubling scan (z[k:] += m^k z[:-k] for k = 1, 2, 4, ... until k covers the
horizon or m^k underflows to 0) gives every offset exactly, the boundary
states are x_j = C_j - d_j, one matrix product gives all nodes, and the
workspace check runs once over them. From the first step whose input would
clamp, the loop is stepped interval by interval with the clamped feedback,
as open-loop inputs always are.

The helpers after it turn a continuous trajectory back into discrete data:
the cell occupied at every sampling boundary and the services provided
(merging consecutive boundaries in the same cell into a single visit, stamped
at the midpoint of its first interval). Invariance trials are open loop:
`integrate_inputs` propagates given inputs, such as `bang_bang_inputs`, and
`Trajectory.relative_norms` gives the relative-state norm at every node, to
compare with the bound r_bar.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .abstraction import feedback_inputs
from .errors import (DimensionMismatch, InputSaturationFlag, LabelMismatch,
                     SemanticError, WorkspaceExit)
from .graph import NetworkGraph
from .partition import CellDecomposition, ServiceLabeling, Workspace, cells_of
from .partition import cell_of  # noqa: F401  (patched by lookup tracers)

logger = logging.getLogger(__name__)

WORKSPACE_TOL = 1e-9


@dataclass(eq=False)
class Trajectory:
    """Dense propagation output.

    states[k] is the configuration (agents x dimension) at times[k]; node
    j*substeps is the sampling boundary t_j. inputs[j] is the constant input
    applied over [t_j, t_{j+1}).
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    dt: float
    substeps: int
    saturated: tuple[tuple[int, int], ...] = ()

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    def relative_norms(self, g: NetworkGraph) -> np.ndarray:
        """Norm of the stacked relative state at every node."""
        tails, heads = (np.array(g.edges) - 1).T
        rel = self.states[:, tails] - self.states[:, heads]
        return np.linalg.norm(rel.reshape(rel.shape[0], -1), axis=1)


def _modes(g: NetworkGraph, dt: float, substeps: int):
    """Laplacian eigenbasis and the per-mode flow at s = h, 2h, ..., dt.

    Returns (basis, decay, gain) with decay[s] = expm1(-lam s) and
    gain[s] = -decay[s]/lam (s for a zero eigenvalue), each (substeps, N).
    """
    lam, basis = np.linalg.eigh(g.laplacian)
    offsets = np.arange(1, substeps + 1) * (dt / substeps)
    decay = np.expm1(np.outer(-offsets, lam))
    gain = np.divide(-decay, lam, where=lam != 0.0,
                     out=np.repeat(offsets[:, None], lam.size, axis=1))
    return basis, decay, gain


def _interval_operator(g: NetworkGraph, dt: float,
                       substeps: int) -> np.ndarray:
    """[A_s | G_s] for s = h, 2h, ..., dt stacked into (substeps*N, 2N)."""
    basis, decay, gain = _modes(g, dt, substeps)
    a = (basis * decay[:, None, :]) @ basis.T
    gam = (basis * gain[:, None, :]) @ basis.T
    return np.concatenate((a, gam), axis=2).reshape(substeps * basis.shape[0],
                                                    2 * basis.shape[0])


def _check_workspace(workspace: Workspace, block: np.ndarray,
                     times: np.ndarray) -> None:
    """Raise WorkspaceExit at the first node of a block that leaves it."""
    out = (block < workspace.lower - WORKSPACE_TOL) \
        | (block > workspace.upper + WORKSPACE_TOL)
    if out.any():
        k, i = np.argwhere(out.any(axis=2))[0]
        raise WorkspaceExit(
            f"agent {int(i) + 1} left the workspace at t={times[k]:.6g}")


def _blank_trajectory(g: NetworkGraph, x0: np.ndarray, steps: int, dt: float,
                      substeps: int) -> Trajectory:
    """Trajectory of the right shape holding x0 at node 0, the rest unset."""
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    total = steps * substeps
    states = np.empty((total + 1, g.agent_count, g.dimension))
    states[0] = x0
    return Trajectory(times=np.arange(total + 1) * (dt / substeps),
                      states=states,
                      inputs=np.empty((steps, g.agent_count, g.dimension)),
                      dt=dt, substeps=substeps)


def _propagate(g: NetworkGraph, traj: Trajectory,
               control: Callable[[int, np.ndarray], np.ndarray],
               workspace: Workspace | None, start: int = 0) -> None:
    """Step the exact flow under control(j, x_j) held over interval j.

    Fills traj's nodes and inputs from step ``start`` on, starting from the
    boundary state already stored there; every node from there on is checked
    against the workspace when one is given.
    """
    substeps, times, states = traj.substeps, traj.times, traj.states
    step = _interval_operator(g, traj.dt, substeps)
    if workspace is not None:
        k = start * substeps
        _check_workspace(workspace, states[k:k + 1], times[k:k + 1])
    for j in range(start, traj.steps):
        k = j * substeps
        x = states[k]
        v = control(j, x)
        traj.inputs[j] = v
        block = states[k + 1:k + substeps + 1]
        increment = step @ np.concatenate((x, v))
        np.add(x, increment.reshape(block.shape), out=block)
        if workspace is not None:
            _check_workspace(workspace, block, times[k + 1:k + substeps + 1])


def _track(g: NetworkGraph, traj: Trajectory, targets: np.ndarray,
           v_max: float) -> int:
    """Fill traj under unclamped feedback up to its first clamped step.

    targets[j] is interval j's aim C_j. Returns the first step whose input
    would clamp (traj.steps when none does); the nodes and inputs before it
    are set from the offset scan in the module docstring, the rest are left
    for the stepped loop. Nothing is checked against the workspace here.
    """
    steps, substeps, dt = traj.steps, traj.substeps, traj.dt
    if steps == 0:
        return 0
    basis, _, gain = _modes(g, dt, substeps)
    x0 = traj.states[0]
    # aim past the horizon at the last target, so x_steps = C_steps - d_steps
    aims = np.concatenate((targets, targets[-1:]))
    z = np.empty_like(aims)
    z[0] = aims[0] - x0
    np.subtract(aims[1:], aims[:-1], out=z[1:])
    z = basis.T @ z
    factor = (1.0 - gain[-1] / dt)[:, None]  # m, per eigenmode
    k = 1
    while k < len(z) and factor.any():
        z[k:] += factor * z[:-k]
        factor = factor * factor
        k *= 2
    offsets = basis @ z
    x = aims - offsets
    x[0] = x0
    v = offsets[:-1] / dt + g.laplacian @ x[:-1]
    clamped = (np.sqrt((v * v).sum(axis=2)) > v_max).any(axis=1)
    first = int(np.argmax(clamped)) if clamped.any() else steps
    agents, dimension = x0.shape
    node_op = ((basis * (gain / dt)[:, None, :]) @ basis.T).reshape(
        substeps * agents, agents)
    nodes = traj.states[1:first * substeps + 1]
    np.matmul(node_op, offsets[:first],
              out=nodes.reshape(first, substeps * agents, dimension))
    nodes = nodes.reshape(first, substeps, agents, dimension)
    nodes += x[:first, None]
    nodes[:, -1] = x[1:first + 1]
    traj.inputs[:first] = v[:first]
    return first


def integrate_inputs(g: NetworkGraph, x0: np.ndarray, inputs: np.ndarray,
                     dt: float, substeps: int = 4,
                     workspace: Workspace | None = None) -> Trajectory:
    """Propagate the coupled dynamics under given piecewise-constant inputs.

    inputs has shape (steps, agents, dimension); each row is held constant
    for one interval of length dt. Workspace policing is optional here so
    the same propagator serves open-loop invariance trials.
    """
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if x0.shape != (g.agent_count, g.dimension):
        raise DimensionMismatch(
            f"initial state must have shape {(g.agent_count, g.dimension)}, "
            f"got {x0.shape}")
    if inputs.ndim != 3 or inputs.shape[1:] != (g.agent_count, g.dimension):
        raise DimensionMismatch(
            f"inputs must have shape (steps, {g.agent_count}, "
            f"{g.dimension}), got {inputs.shape}")
    traj = _blank_trajectory(g, x0, inputs.shape[0], dt, substeps)
    _propagate(g, traj, lambda j, x: inputs[j], workspace)
    return traj


def _planned_cells(plans: list, positions: int,
                   agent_count: int) -> np.ndarray:
    """Planned cell of every agent at positions 0..positions-1.

    Shape (positions, N): each plan's prefix, then its cycle repeated, in
    the column of its ``agent``. SemanticError unless there is exactly one
    plan per agent.
    """
    agents = sorted(plan.agent for plan in plans)
    if agents != list(range(1, agent_count + 1)):
        raise SemanticError(
            f"need {agent_count} plans, one for each agent, got plans for "
            f"agents {agents}")
    j = np.arange(positions)
    out = np.empty((positions, agent_count), dtype=int)
    for plan in plans:
        lasso = np.array((*plan.prefix_cells, *plan.cycle_cells))
        p, c = plan.prefix_length, plan.cycle_length
        out[:, plan.agent - 1] = lasso[np.where(j < p, j, p + (j - p) % c)]
    return out


def integrate_plans(g: NetworkGraph, plans: list, decomp: CellDecomposition,
                    x0: np.ndarray, v_max: float, steps: int,
                    substeps: int = 4) -> Trajectory:
    """Execute plans in closed loop from x0 for the given number of steps.

    The input for step j is recomputed from the measured state at t_j and
    aims at the center of each agent's next planned cell. Plans are matched
    to agents by their ``agent`` number. Raises SemanticError unless there
    is exactly one plan per agent, every planned cell exists and x0 lies in
    the plans' first cells; WorkspaceExit if any agent ever leaves the
    workspace; ValueError for a negative step count.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.agent_count, g.dimension):
        raise DimensionMismatch(
            f"initial state must have shape {(g.agent_count, g.dimension)}, "
            f"got {x0.shape}")
    table = _planned_cells(plans, steps + 1, g.agent_count)
    dt = plans[0].dt
    count = decomp.cell_count
    for plan in plans:
        if plan.dt != dt:
            raise SemanticError("plans disagree on the sampling interval")
        for j, cell in enumerate((*plan.prefix_cells, *plan.cycle_cells)):
            if not 1 <= cell <= count:
                raise SemanticError(
                    f"agent {plan.agent}'s plan names cell {cell} at step "
                    f"{j}, but the scenario has {count} cells")
    starts = cells_of(decomp, x0)
    wrong = np.flatnonzero(starts != table[0])
    if wrong.size:
        i = int(wrong[0])
        raise SemanticError(
            f"agent {i + 1} starts in cell {starts[i]}, but its plan begins "
            f"in cell {table[0, i]}")

    targets = decomp.centers[table[1:] - 1]
    saturated: list[tuple[int, int]] = []

    def control(j: int, x: np.ndarray) -> np.ndarray:
        v, clipped = feedback_inputs(g, x, targets[j], dt, v_max)
        if clipped.any():
            saturated.extend((j, int(i) + 1) for i in np.flatnonzero(clipped))
        return v

    traj = _blank_trajectory(g, x0, steps, dt, substeps)
    first = _track(g, traj, targets, v_max)
    node = first * substeps + 1
    _check_workspace(decomp.workspace, traj.states[:node], traj.times[:node])
    _propagate(g, traj, control, decomp.workspace, start=first)
    if saturated:
        warnings.warn(
            f"feedback input saturated at {len(saturated)} (step, agent) "
            f"pairs; first at step {saturated[0][0]} for agent "
            f"{saturated[0][1]}", InputSaturationFlag, stacklevel=2)
    traj.saturated = tuple(saturated)
    logger.info("integrated %d steps (%d nodes) up to t=%.6g", steps,
                traj.states.shape[0], float(traj.times[-1]))
    return traj


def boundary_cells(traj: Trajectory, decomp: CellDecomposition) -> np.ndarray:
    """Cell index of every agent at every sampling boundary, (steps+1, N)."""
    return cells_of(decomp, traj.states[::traj.substeps])


def verify_against_plans(traj: Trajectory, decomp: CellDecomposition,
                         plans: list) -> np.ndarray:
    """Check the executed boundary cells against the planned ones.

    Returns the boundary-cell table on success; raises LabelMismatch at the
    first disagreement, SemanticError unless there is one plan per agent.
    """
    cells = boundary_cells(traj, decomp)
    expected = _planned_cells(plans, *cells.shape)
    wrong = np.argwhere(cells != expected)
    if wrong.size:
        j, i = (int(a) for a in wrong[0])
        raise LabelMismatch(
            f"agent {i + 1} at step {j}: plan visits cell "
            f"{expected[j, i]}, execution reached cell {cells[j, i]}")
    return cells


def extract_service_word(
    traj: Trajectory,
    decomp: CellDecomposition,
    labeling: ServiceLabeling,
    plans: list | None = None,
) -> dict[int, tuple[tuple[float, frozenset[str]], ...]]:
    """Services each agent provides along the executed trajectory.

    Consecutive boundaries in the same cell merge into one visit; the visit
    is stamped at the midpoint of its first sampling interval. Only visits
    that provide at least one service are reported. When plans are given the
    executed boundary cells are first checked against them (LabelMismatch).
    """
    if plans is not None:
        cells = verify_against_plans(traj, decomp, plans)
    else:
        cells = boundary_cells(traj, decomp)
    out: dict[int, tuple[tuple[float, frozenset[str]], ...]] = {}
    entered = np.ones(cells.shape, dtype=bool)
    entered[1:] = cells[1:] != cells[:-1]
    for i in range(cells.shape[1]):
        agent = i + 1
        visits: list[tuple[float, frozenset[str]]] = []
        for j in np.flatnonzero(entered[:, i]).tolist():
            services = labeling.label(agent, int(cells[j, i]))
            if services:
                visits.append(((j + 0.5) * traj.dt, services))
        out[agent] = tuple(visits)
    return out


def bang_bang_inputs(g: NetworkGraph, v_max: float, steps: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Adversarial piecewise-constant inputs at the full magnitude v_max.

    Each agent gets an independent random direction per interval, scaled to
    norm exactly v_max - the worst case the boundedness result must absorb.
    """
    raw = rng.normal(size=(steps, g.agent_count, g.dimension))
    norms = np.linalg.norm(raw, axis=2, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v_max * raw / norms
