"""One transition table per neighbor count within one `stage_abstract` call.

Every agent shares dt, the reach budget and the remainder, so agents with
the same number of neighbors have the same `SumClassTable`. `stage_abstract`
builds it with the first agent of each degree and hands it to the later
ones. Each table must equal the one a fresh per-agent `build_agent_wts`
builds, and the classes must be numbered as ``np.unique(axis=0)`` numbers
them.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mas.abstraction
from mas.abstraction import _number_classes, build_agent_wts
from mas.cli import (Pipeline, load_scenario, stage_abstract, stage_bounds,
                     stage_partition)
from mas.errors import BudgetExceeded
from mas.graph import build_graph

from conftest import bench_families, random_connected_graph
from test_abstraction import _grid_system
from test_cli import STEP4_SCENARIO

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _assert_tables_equal(shared, fresh):
    assert list(shared.classes.items()) == list(fresh.classes.items())
    assert shared.targets == fresh.targets
    assert shared.reach == fresh.reach
    assert len(shared) == len(fresh)
    assert shared.transition_count() == fresh.transition_count()


def _assert_shared_as_built(pipe):
    """Every agent's table equals a fresh build; equal degrees share one
    table object, and different degrees do not."""
    g = pipe.g
    by_degree = {}
    for w in pipe.wts_list:
        fresh = build_agent_wts(g, w.agent, pipe.decomp, pipe.labeling,
                                pipe.report, pipe.disc, w.initial)
        _assert_tables_equal(w.transitions, fresh.transitions)
        # the agent's own state is not shared
        assert w.labels == fresh.labels
        assert w.initial == pipe.initial_cells[w.agent - 1]
        assert w.neighbor_agents == g.neighbors(w.agent)
        assert w.certify.args[1] == w.agent
        by_degree.setdefault(len(g.neighbors(w.agent)), []).append(w)
    for ws in by_degree.values():
        assert all(w.transitions is ws[0].transitions for w in ws)
    firsts = [ws[0].transitions for ws in by_degree.values()]
    assert len({id(t) for t in firsts}) == len(firsts)
    return by_degree


def _pipe(path):
    return stage_abstract(stage_bounds(load_scenario(path)))


def _cases(tmp_path):
    paths = [SCENARIOS / name for name in
             ("pair_line.json", "path3_plane.json", "pair_line_unsat.json")]
    step4 = tmp_path / "step4.json"
    step4.write_text(json.dumps(STEP4_SCENARIO))
    paths.append(step4)
    for family, generate in sorted(bench_families().items()):
        for seed in range(3):
            path = tmp_path / f"{family}-{seed}.json"
            path.write_text(json.dumps(generate(seed).scenario))
            paths.append(path)
    return paths


def test_shared_tables_equal_fresh_builds_on_the_scenarios(tmp_path):
    paths = _cases(tmp_path)
    assert len(paths) == 13
    shared = 0
    for path in paths:
        by_degree = _assert_shared_as_built(_pipe(path))
        shared += sum(len(ws) - 1 for ws in by_degree.values())
    assert shared >= 10


KINDS = ["path", "star", "cycle", "random"]


def _topology(kind, rng):
    n = int(rng.integers(2, 5))
    if kind == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "star":
        edges = [(1, j) for j in range(2, n + 1)]
    elif kind == "cycle":
        n = max(n, 3)
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    else:
        g = random_connected_graph(rng, max_agents=4, max_dimension=1)
        n, edges = g.agent_count, g.edges
    return n, edges


@pytest.mark.parametrize("counts", [(5,), (3, 2)])
@pytest.mark.parametrize("kind", KINDS)
def test_shared_tables_equal_fresh_builds_on_random_graphs(kind, counts):
    rng = np.random.default_rng(len(counts) * 10 + KINDS.index(kind))
    for _ in range(3):
        n, edges = _topology(kind, rng)
        g = build_graph(n, edges, len(counts))
        side = float(rng.uniform(0.2, 1.0))
        dt = float(rng.uniform(0.05, 0.3))
        v_max = side * float(rng.uniform(1.0, 3.0)) / (0.5 * dt)
        decomp, labeling, rep, disc = _grid_system(
            g, side, counts, dt, v_max, float(rng.uniform(0.1, 0.4)) * side)
        initial = [int(c) for c in
                   rng.integers(1, decomp.cell_count + 1, size=n)]
        pipe = Pipeline(scenario=SimpleNamespace(agent_count=n), g=g,
                        spec=None, report=rep, disc=disc, decomp=decomp,
                        labeling=labeling, initial_cells=initial)
        by_degree = _assert_shared_as_built(stage_abstract(pipe))
        if kind == "cycle":
            assert list(by_degree) == [2]
        if kind in ("path", "star") and n > 2:
            assert len(by_degree) == 2


def test_two_calls_share_no_table():
    first = [w.transitions for w in _pipe(SCENARIOS / "path3_plane.json")
             .wts_list]
    second = [w.transitions for w in _pipe(SCENARIOS / "path3_plane.json")
              .wts_list]
    assert first[0] is first[2]
    assert not {id(t) for t in first} & {id(t) for t in second}


@pytest.fixture
def built(monkeypatch):
    """The degrees `build_transition_table` is called with, in order."""
    degrees = []
    original = mas.abstraction.build_transition_table

    def counting(degree, *args):
        degrees.append(degree)
        return original(degree, *args)

    monkeypatch.setattr(mas.abstraction, "build_transition_table", counting)
    return degrees


def test_one_table_build_per_degree(built):
    pipe = _pipe(SCENARIOS / "path3_plane.json")
    assert [len(w.neighbor_agents) for w in pipe.wts_list] == [1, 2, 1]
    assert built == [1, 2]


def test_the_action_cap_names_the_agent_before_any_table_is_built(built):
    sc = load_scenario(SCENARIOS / "path3_plane.json")
    cells = stage_partition(stage_bounds(sc)).decomp.cell_count
    # the end agents fit, the middle agent does not
    with pytest.raises(BudgetExceeded, match=r"^agent 2 "):
        stage_abstract(stage_bounds(sc), max_actions=cells ** 2)
    assert built == [1]
    built.clear()
    with pytest.raises(BudgetExceeded, match=r"^agent 1 "):
        stage_abstract(stage_bounds(sc), max_actions=cells ** 2 - 1)
    assert built == []


def _oracle(sums):
    keys, inverse = np.unique(sums, axis=0, return_inverse=True)
    return keys, inverse.reshape(-1)


@pytest.mark.parametrize("seed", range(6))
def test_lexsort_numbering_equals_unique(seed):
    rng = np.random.default_rng(seed)
    rows, width = int(rng.integers(1, 300)), 2 * int(rng.integers(1, 4))
    pool = np.array([0.0, -0.0, 1.5, -2.25, 0.1 + 0.2, 0.3, 1e-300])
    sums = rng.choice(pool, size=(rows, width))
    sums[rng.random(rows) < 0.3] = sums[0]  # repeated rows
    keys, inverse = _number_classes(sums)
    expected_keys, expected_inverse = _oracle(sums)
    assert inverse.tolist() == expected_inverse.tolist()
    # -0.0 and 0.0 fall into one class either way; which sign the class
    # key keeps may differ, and the box test squares it away
    assert keys.shape == expected_keys.shape
    assert (keys == expected_keys).all()
    assert (keys[inverse] == sums).all()


def test_lexsort_numbering_of_one_row():
    keys, inverse = _number_classes(np.array([[-0.0, 0.0]]))
    assert keys.shape == (1, 2) and inverse.tolist() == [0]
