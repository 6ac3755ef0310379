"""Seeded scenario families for the benchmark workloads.

A generator maps a seed to one scenario for `mas` plus what the harness needs
to judge the run without asking `mas`: the expected exit code and the
argument for it, every agent's goal as F/G terms over one atom, the region
boxes, the uniform grid the regions are aligned to, and the simulation
horizon. The seed picks grid-aligned region slots and initial positions
inside their cells; cell count, degrees, cell diameter and dt stay fixed per
family, so every seed asks for the same amount of abstraction work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Term:
    """One conjunct of a goal: ``F[lo,hi] atom`` or ``G[lo,hi] !atom``."""

    op: str
    lo: str
    hi: str
    atom: str

    @property
    def text(self) -> str:
        arg = self.atom if self.op == "F" else "!" + self.atom
        return f"{self.op}[{self.lo},{self.hi}] {arg}"


@dataclass(frozen=True)
class Region:
    agent: int
    atom: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scenario: dict
    goals: dict[int, tuple[Term, ...]]
    regions: tuple[Region, ...]
    lower: tuple[float, ...]      # workspace lower corner
    side: float                   # grid cell side (cubical cells)
    cells_per_axis: int
    dt: float
    horizon: int                  # sampling steps passed to `mas simulate`
    substeps: int                 # integrator stages per step (mas default)
    expected_exit: int            # for synthesize, simulate and every check
    reason: str                   # why the expected verdict holds


def _scenario(name, edges, v_max, upper, positions, regions, goals, params):
    dim = len(upper)
    return {
        "name": name,
        "agents": len(goals),
        "dimension": dim,
        "edges": [list(e) for e in edges],
        "v_max": v_max,
        "workspace": {"lower": [0.0] * dim, "upper": list(upper)},
        "initial_positions": [list(p) for p in positions],
        "regions": [{"lower": list(r.lower), "upper": list(r.upper),
                     "services": {str(r.agent): [r.atom]}} for r in regions],
        "formulas": {str(a): " & ".join(t.text for t in terms)
                     for a, terms in sorted(goals.items())},
        "parameters": params,
    }


def _point_in(rng: random.Random, cell: tuple[int, ...], side: float):
    """A point well inside a grid cell (20-80% along each axis)."""
    return tuple(round((c + rng.uniform(0.2, 0.8)) * side, 6) for c in cell)


def _box(cell: tuple[int, ...], width: tuple[int, ...], side: float):
    lower = tuple(round(c * side, 6) for c in cell)
    upper = tuple(round((c + w) * side, 6) for c, w in zip(cell, width))
    return lower, upper


def line3_abstract(seed: int) -> Workload:
    """3 agents on a path in 1-D, 24 cells, ``F[0,0.02]`` goals.

    The path3-line ladder scenario with seeded region slots and positions.
    The abstraction enumerates 24^3 actions for the middle agent, so it does
    nearly all the work; synthesis and the 36-step closed loop are small.
    """
    rng = random.Random(f"line3-abstract/{seed}")
    side, cells = 0.168, 24
    # regions cover two cells each; slot k spans cells 2k and 2k+1
    slots = rng.sample(range(cells // 2), 3)
    atoms = ("port", "dock", "pier")
    regions = tuple(Region(a + 1, atoms[a], *_box((2 * slots[a],), (2,), side))
                    for a in range(3))
    positions = [_point_in(rng, (rng.randrange(cells),), side)
                 for _ in range(3)]
    goals = {a + 1: (Term("F", "0", "0.02", atoms[a]),) for a in range(3)}
    scenario = _scenario(
        "line3-abstract", [(1, 2), (2, 3)], 1000.0, [cells * side],
        positions, regions, goals,
        {"safety": 1.05, "lambda": 0.5, "cell_diameter": side, "dt": 0.0006})
    return Workload(
        name="line3-abstract", seed=seed, scenario=scenario, goals=goals,
        regions=regions, lower=(0.0,), side=side, cells_per_axis=cells,
        dt=0.0006, horizon=36, substeps=4, expected_exit=0,
        reason="reach budget 0.5*1000*0.0006 = 0.3 covers a one-cell move "
               "(worst corner 1.5*0.168 = 0.252, drift term <= "
               "0.0006*2*4.032 = 0.005) for any neighbour cells, and every "
               "cell has a self-loop, so each agent walks to its region in "
               "at most 23 of the 33 steps inside [0, 0.02] on its own")


def plane3_closed_loop(seed: int) -> Workload:
    """The path3-plane family: 3 agents in 2-D, 4x4 cells, 5 000-step loop.

    The verdict is mostly the 2-D abstraction (16^3 actions with 64 corner
    rows each for the middle agent); validation is dominated by integrating
    and reading back a long closed-loop run and writing its trajectory.
    """
    rng = random.Random(f"plane3-closed-loop/{seed}")
    side, per_axis = 0.19, 4
    all_cells = [(i, j) for i in range(per_axis) for j in range(per_axis)]
    slots = rng.sample(all_cells, 3)
    atoms = ("green", "orange", "black")
    regions = tuple(Region(a + 1, atoms[a], *_box(slots[a], (1, 1), side))
                    for a in range(3))
    positions = [_point_in(rng, rng.choice(all_cells), side)
                 for _ in range(3)]
    goals = {1: (Term("F", "0", "0.0069", "green"),),
             2: (Term("F", "0.002", "0.009", "orange"),),
             3: (Term("F", "0.0014", "0.009", "black"),)}
    scenario = _scenario(
        "plane3-closed-loop", [(1, 2), (2, 3)], 1000.0,
        [per_axis * side] * 2, positions, regions, goals,
        {"safety": 1.05, "lambda": 0.45, "cell_diameter": 0.27,
         "dt": 0.00069})
    return Workload(
        name="plane3-closed-loop", seed=seed, scenario=scenario, goals=goals,
        regions=regions, lower=(0.0, 0.0), side=side,
        cells_per_axis=per_axis, dt=0.00069, horizon=5000, substeps=4,
        expected_exit=0,
        reason="reach budget 0.45*1000*0.00069 = 0.31 covers a move to an "
               "axis-adjacent cell (worst corner 0.300, drift term <= "
               "0.00069*2*1.075 = 0.0015) for any neighbour cells, and every "
               "cell has a self-loop; a 4x4 grid is at most 6 such moves "
               "across, and each window holds a sample at or after step 6 "
               "(t = 0.00414), so each agent reaches and holds its cell")


# Hand-written configuration table for the pair family: port in slot 2 and
# dock in slot 4 (the pair-line geometry), agent 1 in any cell, agent 2 in a
# cell right of the dock. Moving the regions changes how far the joint
# fallback search walks (940 to 4 451 states measured), which would make the
# workload's cost depend on the seed; initial cells here do not (1 044).
PAIR_PORT_SLOT = 2
PAIR_DOCK_SLOT = 4
PAIR_AGENT1_CELLS = tuple(range(12))
PAIR_AGENT2_CELLS = tuple(range(5, 12))


def pair_twowindow_synth(seed: int) -> Workload:
    """Two agents on a line with two-window goals, 12 cells.

    Agent 1 has ``F[0,1] port & F[1,2] port`` and agent 2 has
    ``F[0,1] dock & G[0,0.5] !dock``. The per-agent runs do not combine, so
    synthesis enumerates per-agent lassos, rejects every combination and then
    searches the joint product; the abstraction is negligible.
    """
    rng = random.Random(f"pair-twowindow-synth/{seed}")
    side, cells = 0.336, 12
    regions = (
        Region(1, "port", *_box((PAIR_PORT_SLOT,), (1,), side)),
        Region(2, "dock", *_box((PAIR_DOCK_SLOT,), (1,), side)),
    )
    positions = [_point_in(rng, (rng.choice(PAIR_AGENT1_CELLS),), side),
                 _point_in(rng, (rng.choice(PAIR_AGENT2_CELLS),), side)]
    goals = {1: (Term("F", "0", "1", "port"), Term("F", "1", "2", "port")),
             2: (Term("F", "0", "1", "dock"), Term("G", "0", "0.5", "dock"))}
    scenario = _scenario(
        "pair-twowindow-synth", [(1, 2)], 100.0, [cells * side], positions,
        regions, goals,
        {"safety": 1.05, "lambda": 0.5, "cell_diameter": side, "dt": 0.0103})
    return Workload(
        name="pair-twowindow-synth", seed=seed, scenario=scenario,
        goals=goals, regions=regions, lower=(0.0,), side=side,
        cells_per_axis=cells, dt=0.0103, horizon=1000, substeps=4,
        expected_exit=0,
        reason="hand-written table: a one-cell move needs 1.5*0.336 = 0.504 "
               "of the 0.515 reach budget, leaving room for drift away from "
               "a neighbour up to about two cells behind; the agents close "
               "up, agent 1 walks to the port and stays on it over [0, 2], "
               "agent 2 waits right of the dock until t = 0.5 and then steps "
               "in, all within 194 steps; a passing operation re-proves it "
               "because the oracle checks the executed services")


FAMILIES = {
    "line3-abstract": line3_abstract,
    "pair-twowindow-synth": pair_twowindow_synth,
    "plane3-closed-loop": plane3_closed_loop,
}
