"""The harness's own judge of an executed run.

It does not call `mas`. From ``trajectory.csv`` it reads every agent's
position at each sampling boundary, places it on the workload's uniform grid
and labels it with the regions that contain its cell. From that it rebuilds
what ``services.json`` must say (one entry per run of boundaries in the same
labelled cell, stamped mid-way through the run's first interval) and checks
every agent's goal on the sampled service signal: ``F[a,b] p`` holds when
some boundary at a time in [a, b] provides p, ``G[a,b] !p`` when none does.
Times are compared as exact decimals, as `mas` does.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from families import Workload


def boundary_positions(text: str, wl: Workload) -> list[list[tuple[float, ...]]]:
    """positions[j][i]: agent i+1's position at sampling boundary j."""
    lines = text.rstrip("\n").split("\n")
    agents = wl.scenario["agents"]
    dim = wl.scenario["dimension"]
    expected_rows = wl.horizon * wl.substeps + 1
    if len(lines) != expected_rows + 1:
        raise ValueError(f"trajectory.csv has {len(lines) - 1} rows, "
                         f"expected {expected_rows}")
    out = []
    for j in range(wl.horizon + 1):
        row = [float(v) for v in lines[1 + j * wl.substeps].split(",")]
        if not math.isclose(row[0], j * wl.dt, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"boundary {j} is stamped t = {row[0]}")
        coords = row[1:]
        if len(coords) != agents * dim:
            raise ValueError(f"row {j} has {len(coords)} coordinates")
        out.append([tuple(coords[i * dim:(i + 1) * dim])
                    for i in range(agents)])
    return out


def _cell(wl: Workload, point: tuple[float, ...]) -> tuple[int, ...]:
    last = wl.cells_per_axis - 1
    return tuple(min(last, max(0, math.floor((x - lo) / wl.side)))
                 for x, lo in zip(point, wl.lower))


def _region_cells(wl: Workload, agent: int) -> list[tuple[str, tuple, tuple]]:
    """(atom, first cell, last cell + 1) of each region serving the agent."""
    out = []
    for r in wl.regions:
        if r.agent == agent:
            lo = tuple(round((x - o) / wl.side) for x, o in zip(r.lower, wl.lower))
            hi = tuple(round((x - o) / wl.side) for x, o in zip(r.upper, wl.lower))
            out.append((r.atom, lo, hi))
    return out


def service_signal(wl: Workload, positions) -> tuple[dict, dict]:
    """Per agent: the cell and the provided services at every boundary."""
    cells, labels = {}, {}
    for agent in range(1, wl.scenario["agents"] + 1):
        boxes = _region_cells(wl, agent)
        agent_cells, agent_labels = [], []
        for row in positions:
            cell = _cell(wl, row[agent - 1])
            agent_cells.append(cell)
            agent_labels.append(frozenset(
                atom for atom, lo, hi in boxes
                if all(a <= c < b for c, a, b in zip(cell, lo, hi))))
        cells[agent], labels[agent] = agent_cells, agent_labels
    return cells, labels


def expected_services(wl: Workload, cells: dict, labels: dict) -> dict:
    """services.json as the signal says it must read."""
    out = {}
    for agent in sorted(cells):
        visits = []
        for j, cell in enumerate(cells[agent]):
            if j and cells[agent][j - 1] == cell:
                continue
            if labels[agent][j]:
                visits.append({"time": (j + 0.5) * wl.dt,
                               "services": sorted(labels[agent][j])})
        out[str(agent)] = visits
    return out


def goal_violations(wl: Workload, labels: dict) -> list[str]:
    """Every goal term the sampled service signal violates."""
    dt = Fraction(repr(wl.dt))
    problems = []
    for agent, terms in sorted(wl.goals.items()):
        for term in terms:
            lo, hi = Fraction(term.lo), Fraction(term.hi)
            if hi > wl.horizon * dt:
                problems.append(f"agent {agent}: {term.text} ends after the "
                                f"simulated horizon")
                continue
            window = [j for j in range(wl.horizon + 1) if lo <= j * dt <= hi]
            hits = [term.atom in labels[agent][j] for j in window]
            holds = any(hits) if term.op == "F" else not any(hits)
            if not holds:
                problems.append(f"agent {agent}: executed run violates "
                                f"{term.text}")
    return problems


def judge(wl: Workload, trajectory_text: str, services_text: str) -> list[str]:
    """Problems found with one executed run; empty when it is correct."""
    try:
        positions = boundary_positions(trajectory_text, wl)
        reported = json.loads(services_text)
    except ValueError as exc:
        return [f"unreadable artifact: {exc}"]
    cells, labels = service_signal(wl, positions)
    problems = goal_violations(wl, labels)
    if reported != expected_services(wl, cells, labels):
        problems.append("services.json disagrees with the services read off "
                        "trajectory.csv")
    return problems
