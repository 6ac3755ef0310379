"""The class-keyed transition table against a per-action-tuple enumerator.

``build_agent_wts`` tests each (source cell, neighbor-sum class) once and
stores its targets once. The oracle below is a local copy of the enumerator
it replaced, which tested and stored every (own cell, neighbor cells...)
tuple. On random star systems, 1-D and 2-D, of degree 1 to 3, on uniform and
region-refined grids large enough that many neighbor tuples share a sum,
`SumClassTable.enabled` must answer every action tuple as the per-tuple
table does, with the same counts and the same per-cell successors.

The build itself is one broadcast box test over (source cell, class,
target), chunked over sources. `conftest.per_source_table` is the loop over
source cells it replaced; on random 1-, 2- and 3-D grids of degree 1 to 3,
with no target passing the remainder test, and with the sources split into
chunks of every size, the classes, targets, counts and successors must be
those of the loop.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from mas import abstraction
from mas.abstraction import AgentWTS, build_agent_wts
from mas.bounds import BoundsReport, DiscretizationRange, deviation_remainder
from mas.cli import load_scenario, stage_abstract, stage_bounds
from mas.graph import build_graph
from mas.partition import (LabeledRegion, Workspace, grid_decompose,
                           refine_to_compliance)

from conftest import class_table, enabled_actions, per_source_table


# --------------------------------------------------------------------------
# oracle: the per-tuple enumerator
# --------------------------------------------------------------------------

def _tuple_worst_distances(decomp, actions, centers, dt):
    lows = decomp.lows[actions - 1]    # (A, deg+1, n)
    highs = decomp.highs[actions - 1]
    deg = actions.shape[1] - 1
    sums = (lows[:, 1:].sum(axis=1), highs[:, 1:].sum(axis=1))
    ends = [own + dt * (total - deg * own)
            for own in (lows[:, 0], highs[:, 0]) for total in sums]
    lo = np.minimum.reduce(ends)[:, None, :]
    hi = np.maximum.reduce(ends)[:, None, :]
    far = np.maximum(np.abs(centers[None] - lo), np.abs(centers[None] - hi))
    return np.linalg.norm(far, axis=2)


def _tuple_transitions(g, agent, decomp, bounds, disc):
    """One dict entry per enabled action tuple, sources in order and the
    neighbor cells in ``itertools.product`` order."""
    nbrs = g.neighbors(agent)
    cells = tuple(range(1, decomp.cell_count + 1))
    dt = disc.chosen_dt
    budget = bounds.lambda_reach * bounds.v_max * dt
    rho = deviation_remainder(bounds, dt)
    centers = np.array([decomp.center(c) for c in cells])
    inradii = np.array([decomp.inradius(c) for c in cells])
    sized = np.nonzero(rho <= inradii)[0]
    nbr_cells = np.array(list(itertools.product(cells, repeat=len(nbrs))),
                         dtype=int).reshape(len(cells) ** len(nbrs), len(nbrs))
    transitions = {}
    for source in cells:
        actions = np.column_stack(
            [np.full(len(nbr_cells), source), nbr_cells])
        ok = _tuple_worst_distances(decomp, actions, centers[sized], dt) \
            <= budget
        for row in np.nonzero(ok.any(axis=1))[0]:
            transitions[tuple(actions[row].tolist())] = \
                tuple((sized[ok[row]] + 1).tolist())
    return transitions


# --------------------------------------------------------------------------
# random star systems
# --------------------------------------------------------------------------

def _system(dimension, degree, side, counts, dt, v_max, rho, regions=()):
    """Agent 1 at the center of a star with ``degree`` leaves, on a grid of
    ``counts`` cells of side ``side`` refined to ``regions``, with the
    remainder rho(dt) set to about ``rho``."""
    g = build_graph(degree + 1, [(1, j) for j in range(2, degree + 2)],
                    dimension)
    extent = side * np.array(counts, dtype=float)
    grid = grid_decompose(Workspace(np.zeros(dimension), extent),
                          side * math.sqrt(dimension))
    assert grid.cells_per_axis == tuple(counts)
    decomp, labeling = refine_to_compliance(list(regions), grid)
    m_bound = rho / (dt * dt * math.exp(dt)) - v_max  # with l_total = 1
    rep = BoundsReport(k2=1.0, r_bar=m_bound, m_bound=m_bound, l1=1.0,
                       l2=1.0, l_total=1.0, v_max=v_max, lambda_reach=0.5,
                       safety=1.1)
    disc = DiscretizationRange(d_max_sup=1.0, dt_lo=dt, dt_hi=dt,
                               chosen_d_max=side, chosen_dt=dt)
    return g, decomp, labeling, rep, disc


def _star(rng, dimension, degree, counts, refine, reach=(0.55, 1.2)):
    """A random `_system`, refined to a random region if asked. The reach
    budget is ``reach`` cell sides, by default 0.55 to 1.2, about the
    farthest distance from the nearest target center to a one-side-wide
    endpoint box in 1-D, so some actions have no target; 1 - degree*dt
    takes both signs; and the remainder rho(dt) is up to 0.45 sides, so
    thin refined cells may not fit it."""
    side = float(rng.uniform(0.1, 0.5))
    dt = float(rng.uniform(0.05, 0.45))
    v_max = side * float(rng.uniform(*reach)) / (0.5 * dt)
    rho = float(rng.uniform(0.05, 0.45)) * side
    extent = side * np.array(counts, dtype=float)
    regions = []
    if refine:
        lo = rng.uniform(0.1, 0.6, dimension) * extent
        hi = lo + rng.uniform(0.1, 0.3, dimension) * extent
        regions.append(LabeledRegion(lo, hi, {1: frozenset({"p"})}))
    return _system(dimension, degree, side, counts, dt, v_max, rho, regions)


def _oracle_successors(transitions, cell):
    targets = {t for action, ts in transitions.items() if action[0] == cell
               for t in ts}
    return tuple(sorted(targets, key=lambda t: (t == cell, t)))


# (dimension, degree, grid cells per axis, refined by a random region)
_CASES = [
    (1, 1, (9,), False), (1, 1, (8,), True), (1, 2, (10,), False),
    (1, 2, (9,), True), (1, 3, (12,), False), (1, 3, (10,), True),
    (2, 1, (4, 3), True), (2, 2, (4, 4), False), (2, 2, (3, 4), True),
    (2, 3, (3, 2), False), (2, 3, (2, 2), True),
]


@pytest.mark.parametrize("dimension,degree,counts,refine", _CASES)
def test_class_table_equals_the_per_tuple_table(dimension, degree, counts,
                                                refine):
    rng = np.random.default_rng(7000 + 100 * dimension + 10 * degree + refine)
    shared = mixed = False
    for _ in range(4):
        g, decomp, labeling, rep, disc = _star(rng, dimension, degree,
                                               counts, refine)
        w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=1)
        table = w.transitions
        expected = _tuple_transitions(g, 1, decomp, rep, disc)
        for action in itertools.product(w.cells, repeat=degree + 1):
            assert table.enabled(action[0], action[1:]) == \
                expected.get(action, ())
        assert len(table) == len(expected)
        assert w.transition_count() == sum(map(len, expected.values()))
        by_hand = AgentWTS(agent=1, cells=w.cells, initial=1, dt=w.dt,
                           labels={}, transitions=class_table(expected))
        assert w.transition_count() == by_hand.transition_count()
        for cell in w.cells:
            assert w.successors(cell) == _oracle_successors(expected, cell)
            assert w.successors(cell) == by_hand.successors(cell)
        # cells out of range, and neighbor tuples of the wrong arity
        top = decomp.cell_count + 1
        probes = [(0, (1,) * degree), (top, (1,) * degree),
                  (1, (top,) * degree), (1, (1,) * (degree - 1)),
                  (1, (1,) * (degree + 1)), (1, ())]
        for own, neighbors in probes:
            assert table.enabled(own, neighbors) == ()
        shared |= len(table.targets) < len(expected)
        mixed |= 0 < len(expected) < decomp.cell_count ** (degree + 1)
    assert mixed  # some system has both enabled and disabled actions
    # with two or more neighbors, some class stands for several tuples
    assert shared == (degree > 1)


def test_equal_real_sums_that_round_apart_are_separate_classes():
    # cell bounds k/10 are inexact, so two neighbor tuples with the same real
    # sum of bounds can sum an ulp apart in floating point, and so can their
    # worst distances to a target; with the reach budget set exactly to the
    # smaller distance (dt and lambda are powers of two), one tuple enables
    # that target and the other does not
    g, decomp, _, _, _ = _system(1, 2, 0.1, (12,), 1 / 16, 1.0, 0.001)
    cells = range(1, decomp.cell_count + 1)
    centers = np.array([decomp.center(c) for c in cells])
    pairs = list(itertools.product(cells, repeat=2))
    split = None
    for source, (a, b), (c, d) in itertools.product(cells, pairs, pairs):
        if a + b != c + d or (a, b) >= (c, d):
            continue
        actions = np.array([(source, a, b), (source, c, d)])
        near, far = _tuple_worst_distances(decomp, actions, centers, 1 / 16)
        differ = np.nonzero(near < far)[0]
        if differ.size:
            split = (source, a, b), (source, c, d), int(differ[0]) + 1
            budget = float(near[differ[0]])
            break
    assert split is not None
    enabled, disabled, target = split
    g, decomp, labeling, rep, disc = _system(1, 2, 0.1, (12,), 1 / 16,
                                             32 * budget, 0.001)
    assert rep.lambda_reach * rep.v_max * disc.chosen_dt == budget
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=1)
    assert target in w.transitions.enabled(enabled[0], enabled[1:])
    assert target not in w.transitions.enabled(disabled[0], disabled[1:])
    assert enabled_actions(w) == _tuple_transitions(g, 1, decomp, rep, disc)


# --------------------------------------------------------------------------
# the array build against the per-source loop
# --------------------------------------------------------------------------

def _assert_equals_the_per_source_loop(g, decomp, labeling, rep, disc):
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=1)
    want = per_source_table(g, 1, decomp, rep, disc)
    table = w.transitions
    assert table.classes == want.classes
    assert table.targets == want.targets
    assert len(table) == want.length
    assert w.transition_count() == want.transition_count
    for cell in (0,) + w.cells + (decomp.cell_count + 1,):
        assert w.successors(cell) == want.successors.get(cell, ())
    # one tuple per distinct target set
    shared = {}
    for enabled in table.targets.values():
        assert shared.setdefault(enabled, enabled) is enabled
    return w, want


# (dimension, degree, grid cells per axis)
_GRIDS = [
    (1, 1, (11,)), (1, 2, (9,)), (1, 3, (7,)),
    (2, 1, (4, 4)), (2, 2, (4, 3)), (2, 3, (3, 2)),
    (3, 1, (3, 3, 2)), (3, 2, (2, 3, 2)), (3, 3, (2, 2, 2)),
]


@pytest.mark.parametrize("dimension,degree,counts", _GRIDS)
def test_array_build_equals_the_per_source_loop(dimension, degree, counts):
    rng = np.random.default_rng(9000 + 100 * dimension + 10 * degree)
    mixed = False
    # the farthest box corner grows with the dimension, and so does the
    # largest reach here; a refined 3-D grid has too many cells for
    # cells^(degree+1) tuples
    reach = (0.55, 1.2 * math.sqrt(dimension))
    for refine in (False, dimension < 3) * 2:
        w, want = _assert_equals_the_per_source_loop(
            *_star(rng, dimension, degree, counts, refine, reach))
        mixed |= 0 < len(want.targets) < \
            len(w.cells) * (max(want.classes.values()) + 1)
    assert mixed  # some (source, class) rows enable nothing, some do


def test_no_target_fits_the_remainder():
    # rho(dt) above every cell's inradius: no target passes, so the box
    # test runs over zero targets and the table is empty
    for dimension, counts in ((1, (9,)), (2, (3, 3))):
        g, decomp, labeling, rep, disc = _system(
            dimension, 2, 0.1, counts, 0.1, 2.0, 0.06)
        rho = deviation_remainder(rep, disc.chosen_dt)
        assert all(rho > decomp.inradius(c)
                   for c in range(1, decomp.cell_count + 1))
        _, want = _assert_equals_the_per_source_loop(
            g, decomp, labeling, rep, disc)
        assert want.targets == {} and want.transition_count == 0


def test_source_chunk_boundaries_do_not_change_the_table(monkeypatch):
    rng = np.random.default_rng(9500)
    for dimension, degree, counts in ((1, 2, (10,)), (2, 2, (3, 3))):
        g, decomp, labeling, rep, disc = system = _star(
            rng, dimension, degree, counts, True)
        rho = deviation_remainder(rep, disc.chosen_dt)
        sized = sum(rho <= decomp.inradius(c)
                    for c in range(1, decomp.cell_count + 1))
        classes = max(per_source_table(g, 1, decomp, rep, disc)
                      .classes.values()) + 1
        per_source = classes * sized * dimension  # doubles per temporary
        assert per_source > 0 and decomp.cell_count > 3
        # 1, 2 and 3 sources per chunk, the last chunk maybe shorter; all
        for budget in (1, 2 * per_source, 3 * per_source, 10**9):
            monkeypatch.setattr(abstraction, "BOX_TEST_ELEMENTS", budget)
            _assert_equals_the_per_source_loop(*system)


# --------------------------------------------------------------------------
# size
# --------------------------------------------------------------------------

def _plane(per_axis):
    """The path3-plane geometry (cells of side 0.19, dt = 0.00069) on a
    ``per_axis`` x ``per_axis`` grid, three agents on a path."""
    side = 0.19
    upper = per_axis * side
    return {
        "name": f"plane-{per_axis}x{per_axis}", "agents": 3, "dimension": 2,
        "edges": [[1, 2], [2, 3]], "v_max": 1000.0,
        "workspace": {"lower": [0.0, 0.0], "upper": [upper, upper]},
        "initial_positions": [[0.095, 0.095], [0.285, 0.285],
                              [upper - 0.095, upper - 0.095]],
        "regions": [
            {"lower": [0.38, 0.38], "upper": [0.57, 0.57],
             "services": {"1": ["green"]}},
            {"lower": [0.57, 0.0], "upper": [0.76, 0.19],
             "services": {"2": ["orange"]}},
            {"lower": [0.0, 0.57], "upper": [0.19, 0.76],
             "services": {"3": ["black"]}}],
        "formulas": {"1": "F[0,0.0069] green",
                     "2": "F[0.002,0.009] orange",
                     "3": "F[0.0014,0.009] black"},
        "parameters": {"safety": 1.05, "lambda": 0.45,
                       "cell_diameter": 0.27, "dt": 0.00069},
    }


def test_class_table_stores_a_fraction_of_the_action_tuples(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_plane(6)))
    pipe = stage_abstract(stage_bounds(load_scenario(path)))
    middle = pipe.wts_list[1]
    assert middle.neighbor_agents == (1, 3)
    tuples = len(middle.cells) ** 3
    assert tuples == 46_656
    entries = len(middle.transitions.targets)
    assert entries * 5 < tuples
    expected = _tuple_transitions(pipe.g, 2, pipe.decomp, pipe.report,
                                  pipe.disc)
    assert len(middle.transitions) == len(expected)
    assert middle.transition_count() == sum(map(len, expected.values()))
