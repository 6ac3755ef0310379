"""Microbenchmarks of the abstraction stage: ``build_agent_wts`` for the
middle agent of a three-agent path, whose action tuples number cells^3,
and the whole ``stage_abstract`` of line3 and of the 6x6 plane, which
builds one transition table per neighbor count and shares the end agents'.

* line3: 24 cells in 1-D, 13 824 action tuples (the line3-abstract
  benchmark scenario at seed 0);
* plane 6x6: the path3-plane geometry on 36 cells, 46 656 action tuples;
* plane 8x8: the same geometry on 64 cells, 262 144 action tuples, whose
  box test is larger than one chunk of ``BOX_TEST_ELEMENTS``.

Time them from the repository root; the default test run runs each once
with ``--benchmark-disable`` (tests/test_microbench.py):

    PYTHONPATH=src python -m pytest microbench --benchmark-min-rounds=5
"""

from __future__ import annotations

import json

import pytest

from mas.abstraction import build_agent_wts
from mas.cli import (load_scenario, stage_abstract, stage_bounds,
                     stage_partition)

LINE3 = {
    "name": "line3-abstract", "agents": 3, "dimension": 1,
    "edges": [[1, 2], [2, 3]], "v_max": 1000.0,
    "workspace": {"lower": [0.0], "upper": [4.032]},
    "initial_positions": [[2.243752], [0.911611], [1.449651]],
    "regions": [
        {"lower": [0.336], "upper": [0.672], "services": {"1": ["port"]}},
        {"lower": [1.008], "upper": [1.344], "services": {"2": ["dock"]}},
        {"lower": [2.688], "upper": [3.024], "services": {"3": ["pier"]}}],
    "formulas": {"1": "F[0,0.02] port", "2": "F[0,0.02] dock",
                 "3": "F[0,0.02] pier"},
    "parameters": {"safety": 1.05, "lambda": 0.5, "cell_diameter": 0.168,
                   "dt": 0.0006},
}

PLANE6 = {
    "name": "plane-6x6", "agents": 3, "dimension": 2,
    "edges": [[1, 2], [2, 3]], "v_max": 1000.0,
    "workspace": {"lower": [0.0, 0.0], "upper": [1.14, 1.14]},
    "initial_positions": [[0.095, 0.095], [0.285, 0.285], [1.045, 1.045]],
    "regions": [
        {"lower": [0.38, 0.38], "upper": [0.57, 0.57],
         "services": {"1": ["green"]}},
        {"lower": [0.57, 0.0], "upper": [0.76, 0.19],
         "services": {"2": ["orange"]}},
        {"lower": [0.0, 0.57], "upper": [0.19, 0.76],
         "services": {"3": ["black"]}}],
    "formulas": {"1": "F[0,0.0069] green", "2": "F[0.002,0.009] orange",
                 "3": "F[0.0014,0.009] black"},
    "parameters": {"safety": 1.05, "lambda": 0.45, "cell_diameter": 0.27,
                   "dt": 0.00069},
}


PLANE8 = {**PLANE6, "name": "plane-8x8",
          "workspace": {"lower": [0.0, 0.0], "upper": [1.52, 1.52]},
          "initial_positions": [[0.095, 0.095], [0.285, 0.285],
                                [1.425, 1.425]]}


@pytest.fixture(scope="module", params=[LINE3, PLANE6, PLANE8],
                ids=lambda sc: sc["name"])
def pipe(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(request.param))
    return stage_abstract(stage_bounds(load_scenario(path)))


def test_middle_agent_abstraction(benchmark, pipe):
    wts = benchmark(build_agent_wts, pipe.g, 2, pipe.decomp, pipe.labeling,
                    pipe.report, pipe.disc, pipe.initial_cells[1])
    assert len(wts.transitions) == len(wts.cells) ** 3


@pytest.fixture(scope="module", params=[LINE3, PLANE6],
                ids=lambda sc: sc["name"])
def partitioned(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(request.param))
    return stage_partition(stage_bounds(load_scenario(path)))


def test_stage_abstract(benchmark, partitioned):
    pipe = benchmark(stage_abstract, partitioned)
    ends, middle = pipe.wts_list[0::2], pipe.wts_list[1]
    cells = len(middle.cells)
    assert len(middle.transitions) == cells ** 3
    assert ends[0].transitions is ends[1].transitions
    assert [len(w.transitions) for w in ends] == [cells ** 2] * 2
