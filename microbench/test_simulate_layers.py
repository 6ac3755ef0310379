"""Microbenchmarks of closed-loop validation on the plane3-closed-loop
benchmark scenario at seed 0 (3 agents in 2-D, 16 refined cells):

* ``integrate_plans`` over 5 000 sampling steps with 4 nodes per step, the
  run ``mas simulate`` makes there;
* ``cells_of`` on its 15 003 boundary points (5 001 boundaries x 3 agents)
  in the refined decomposition, the read-back behind ``services.json``;
* ``_write_trajectory_csv`` on that run's 20 001 nodes, the
  ``trajectory.csv`` it writes, where 77 rows move;
* ``_write_trajectory_csv`` on the 4 001 nodes of the 1 000-step closed
  loop of the pair-twowindow-synth scenario (``SCENARIO`` of
  ``test_synthesis_layers``, its step-4 plans), where 3 369 rows move;

and of the whole ``mas simulate`` command, in process, on the line3-abstract
benchmark scenario at seed 0 (3 agents in 1-D, 24 cells) with that
workload's 36 steps, reusing a ``plans.json`` synthesized once.

Time them from the repository root; the default test run runs each once
with ``--benchmark-disable`` (tests/test_microbench.py):

    PYTHONPATH=src python -m pytest microbench --benchmark-min-rounds=5
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from mas.cli import _write_trajectory_csv, load_scenario, main, \
    stage_abstract, stage_bounds, stage_synthesize
from mas.partition import cells_of
from mas.simulate import integrate_plans

from test_abstraction_layers import LINE3
from test_synthesis_layers import SCENARIO as PAIR

STEPS = 5000

PLANE3 = {
    "name": "plane3-closed-loop", "agents": 3, "dimension": 2,
    "edges": [[1, 2], [2, 3]], "v_max": 1000.0,
    "workspace": {"lower": [0.0, 0.0], "upper": [0.76, 0.76]},
    "initial_positions": [[0.462733, 0.444679], [0.420656, 0.441295],
                          [0.091583, 0.147635]],
    "regions": [
        {"lower": [0.38, 0.57], "upper": [0.57, 0.76],
         "services": {"1": ["green"]}},
        {"lower": [0.0, 0.57], "upper": [0.19, 0.76],
         "services": {"2": ["orange"]}},
        {"lower": [0.57, 0.38], "upper": [0.76, 0.57],
         "services": {"3": ["black"]}}],
    "formulas": {"1": "F[0,0.0069] green", "2": "F[0.002,0.009] orange",
                 "3": "F[0.0014,0.009] black"},
    "parameters": {"safety": 1.05, "lambda": 0.45, "cell_diameter": 0.27,
                   "dt": 0.00069},
}


@pytest.fixture(scope="module")
def loop(tmp_path_factory):
    """(pipeline, plans) of the scenario, synthesized once."""
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(PLANE3))
    pipe = stage_abstract(stage_bounds(load_scenario(path)))
    return pipe, stage_synthesize(pipe).plans


def _run(pipe, plans):
    sc = pipe.scenario
    return integrate_plans(pipe.g, plans, pipe.decomp, sc.initial_positions,
                           sc.v_max, STEPS, substeps=4)


def test_closed_loop_integration(benchmark, loop):
    traj = benchmark(_run, *loop)
    assert traj.states.shape == (4 * STEPS + 1, 3, 2)
    assert not traj.saturated


def test_trajectory_csv_writer(benchmark, loop, tmp_path):
    traj = _run(*loop)
    path = tmp_path / "trajectory.csv"
    benchmark(_write_trajectory_csv, path, traj, 3, 2)
    assert len(path.read_text().splitlines()) == 1 + 4 * STEPS + 1


def test_trajectory_csv_writer_on_moving_rows(benchmark, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(PAIR))
    pipe = stage_abstract(stage_bounds(load_scenario(scenario)))
    sc = pipe.scenario
    traj = integrate_plans(pipe.g, stage_synthesize(pipe).plans, pipe.decomp,
                           sc.initial_positions, sc.v_max, 1000, substeps=4)
    bits = traj.states.reshape(4001, -1).view(np.uint64)
    # row 0, and every row whose state differs from the row above
    assert 1 + (bits[1:] != bits[:-1]).any(axis=1).sum() == 3369
    path = tmp_path / "trajectory.csv"
    benchmark(_write_trajectory_csv, path, traj, 2, 1)
    assert len(path.read_text().splitlines()) == 1 + 4001


def test_boundary_cell_lookup(benchmark, loop):
    pipe, plans = loop
    points = _run(pipe, plans).states[::4]
    assert points.size // 2 == 15003
    cells = benchmark(cells_of, pipe.decomp, points)
    assert cells.shape == (STEPS + 1, 3)


def test_simulate_command_from_saved_plans(benchmark, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(LINE3))
    common = ["--scenario", str(scenario), "--out", str(tmp_path / "run")]
    assert main(["synthesize", *common]) == 0
    simulate = ["simulate", *common, "--horizon", "36", "--substeps", "4"]
    assert benchmark(main, simulate) == 0
    assert "reusing" in capsys.readouterr().out
