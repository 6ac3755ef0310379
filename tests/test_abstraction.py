"""Consensus drift, well-posed cell transitions, agent/product systems."""

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest

from mas.abstraction import (ProductWTS, TransitionCertificate,
                             _box_distances, build_agent_wts,
                             feedback_inputs)
from mas.bounds import (BoundsReport, DiscretizationRange,
                        deviation_remainder, discretization_range,
                        theorem1_constants)
from mas.cli import load_scenario, stage_abstract, stage_bounds
from mas.errors import ArityMismatch, BudgetExceeded
from mas.graph import build_graph, spectral
from mas.partition import (LabeledRegion, ServiceLabeling, Workspace,
                           grid_decompose, refine_to_compliance)

from conftest import (bench_families, enabled_actions, granted_chain_wts,
                      random_connected_graph, reference_drift,
                      reference_feedback, scalar_certificate)


def _pair_setup():
    """Two agents on a line segment with self-consistent bounds."""
    g = build_graph(2, [(1, 2)])
    rep = theorem1_constants(spectral(g), g, v_max=100.0, safety=1.05,
                             lambda_reach=0.5)
    disc = discretization_range(rep, chosen_d_max=0.336, chosen_dt=0.0103)
    ws = Workspace(np.array([0.0]), np.array([4.032]))
    grid = grid_decompose(ws, 0.336)
    regions = [LabeledRegion(np.array([0.672]), np.array([1.008]),
                             {1: frozenset({"port"})}),
               LabeledRegion(np.array([1.344]), np.array([1.68]),
                             {2: frozenset({"dock"})})]
    decomp, labeling = refine_to_compliance(regions, grid)
    return g, rep, disc, decomp, labeling


def test_drift_hand_values_on_path3():
    g = build_graph(3, [(1, 2), (2, 3)])
    x = np.array([[0.0], [1.0], [3.0]])
    assert np.array_equal([reference_drift(g, i, x) for i in (1, 2, 3)],
                          [[1.0], [1.0], [-2.0]])
    assert np.array_equal(-(g.laplacian @ x), [[1.0], [1.0], [-2.0]])
    # aimed at where they are, the inputs only cancel the drift
    v, clipped = feedback_inputs(g, x, x, dt=1.0, v_max=np.inf)
    assert np.array_equal(v, [[-1.0], [-1.0], [2.0]]) and not clipped.any()


def test_drift_is_negative_laplacian_action():
    rng = np.random.default_rng(2)
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], dimension=3)
    x = rng.normal(size=(4, 3))
    per_agent = np.array([reference_drift(g, i, x) for i in range(1, 5)])
    assert np.allclose(per_agent, -(g.laplacian @ x), atol=1e-12)


def test_self_loops_are_always_well_posed():
    g, rep, disc, decomp, labeling = _pair_setup()
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    for source in (1, 5, 12):
        for nbr in (1, 6, 12):
            assert w.certificate((source, nbr), source) is not None


def test_adjacent_moves_enabled_near_neighbors_only():
    g, rep, disc, decomp, labeling = _pair_setup()
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    # neighbor in the adjacent cell: moving toward it is fine
    assert 5 in w.transitions.enabled(6, (7,))
    assert 7 in w.transitions.enabled(6, (7,))
    # distant cells are out of one-step reach regardless of the neighbor
    assert 3 not in w.transitions.enabled(6, (7,))
    assert 9 not in w.transitions.enabled(6, (7,))
    # a far-away neighbor drags the drift term above the reach budget
    assert 5 not in w.transitions.enabled(6, (12,))


def test_certificate_records_the_validated_move():
    g, rep, disc, decomp, labeling = _pair_setup()
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    cert = w.certificate((6, 7), 5)
    assert cert.agent == 1
    assert (cert.source, cert.target) == (6, 5)
    assert cert.neighbor_cells == (7,)
    assert np.linalg.norm(cert.nominal_input) \
        <= rep.lambda_reach * rep.v_max + 1e-9
    lo, hi = decomp.bounds(5)
    assert cert.remainder <= 0.5 * float(np.min(hi - lo))


def test_reach_budget_monotone_in_lambda():
    g = build_graph(2, [(1, 2)])
    ws = Workspace(np.array([0.0]), np.array([4.032]))
    grid = grid_decompose(ws, 0.336)
    decomp, labeling = refine_to_compliance([], grid)
    counts = {}
    for lam in (0.3, 0.5):
        rep = theorem1_constants(spectral(g), g, v_max=100.0, safety=1.05,
                                 lambda_reach=lam)
        disc = discretization_range(rep, chosen_d_max=0.336, chosen_dt=0.0103)
        counts[lam] = build_agent_wts(g, 1, decomp, labeling, rep, disc,
                                      initial_cell=1).transition_count()
    assert counts[0.3] <= counts[0.5]


def test_agent_wts_construction_matches_scenario_shape():
    g, rep, disc, decomp, labeling = _pair_setup()
    w1 = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    w2 = build_agent_wts(g, 2, decomp, labeling, rep, disc, initial_cell=7)
    assert w1.cells == tuple(range(1, 13))
    assert w1.initial == 6 and w2.initial == 7
    assert w1.neighbor_agents == (2,) and w2.neighbor_agents == (1,)
    assert w1.label(3) == frozenset({"port"}) and w1.label(5) == frozenset()
    assert w2.label(5) == frozenset({"dock"})
    # frozen shape of this fixture's table
    assert len(w1.transitions) == 144
    assert w1.transition_count() == 352
    assert len(w2.transitions) == 144
    # every enabled move carries a certificate and is a cell-graph move
    moves = enabled_actions(w1)
    for action, targets in moves.items():
        for t in targets:
            assert w1.certificate(action, t) is not None
            assert t in w1.successors(action[0])
    # self-loops granted under every listed neighbor configuration
    for action, targets in moves.items():
        assert action[0] in targets


def test_agent_wts_action_budget():
    g, rep, disc, decomp, labeling = _pair_setup()
    with pytest.raises(BudgetExceeded):
        build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6,
                        max_actions=100)


def test_product_synchronizes_agent_moves():
    dt = 1.0
    cells = (1, 2, 3)
    g = build_graph(2, [(1, 2)])
    w1 = granted_chain_wts(1, (1, 2, 3), {}, (2,), cells, dt)
    w2 = granted_chain_wts(2, (3, 2), {}, (1,), cells, dt)
    product = ProductWTS([w1, w2], g)
    assert product.initial_states() == ((1, 3),)
    assert product.successors((1, 3)) == [(1, 2), (1, 3), (2, 2), (2, 3)]
    assert product.agent_action((1, 3), 1) == (1, 3)
    assert product.agent_action((1, 3), 2) == (3, 1)
    # dead joint states have no successors at all (synchronous semantics)
    assert product.successors((3, 1)) == []


def test_product_rejects_mismatched_sampling_periods():
    g = build_graph(2, [(1, 2)])
    w1 = granted_chain_wts(1, (1, 2), {}, (2,), (1, 2), 1.0)
    w2 = granted_chain_wts(2, (2, 1), {}, (1,), (1, 2), 0.5)
    with pytest.raises(ArityMismatch):
        ProductWTS([w1, w2], g)


def test_product_rejects_systems_out_of_agent_order():
    # successors read agent i's cell at joint position i - 1, while the
    # initial state and the labels read the list in its order
    g = build_graph(2, [(1, 2)])
    cells = (1, 2, 3)
    w1 = granted_chain_wts(1, (1, 2, 3), {}, (2,), cells, 1.0)
    w2 = granted_chain_wts(2, (3, 2), {}, (1,), cells, 1.0)
    w3 = granted_chain_wts(3, (3, 2), {}, (1,), cells, 1.0)
    for wts_list in ([w2, w1], [w1, w3], [w1, w1], [w1], [w1, w2, w3]):
        with pytest.raises(ArityMismatch, match="in order"):
            ProductWTS(wts_list, g)
    assert ProductWTS([w1, w2], g).initial_states() == ((1, 3),)


def test_product_keeps_one_label_per_distinct_union():
    g = build_graph(2, [(1, 2)])
    cells = (1, 2, 3)
    w1 = granted_chain_wts(1, (1, 2, 3), {1: {"a"}, 2: {"a"}}, (2,), cells,
                           1.0)
    w2 = granted_chain_wts(2, (3, 2), {2: {"b"}, 3: {"b"}}, (1,), cells, 1.0)
    product = ProductWTS([w1, w2], g)
    joints = list(itertools.product(cells, repeat=2))
    labels = [product.label(joint) for joint in joints]
    assert labels[joints.index((1, 2))] == frozenset({"a", "b"})
    assert labels[joints.index((3, 1))] == frozenset()
    for joint, label in zip(joints, labels):
        assert product.label(joint) is label
        for other, same in zip(joints, labels):
            assert (same is label) == (same == label), (joint, other)
    assert len({id(label) for label in labels}) == 4


def test_feedback_input_compensates_drift():
    g = build_graph(2, [(1, 2)])
    positions = np.array([[0.0], [1.0]])
    # already at the target center: agent 1's input only cancels the coupling
    v, clipped = feedback_inputs(g, positions, np.array([[0.0], [1.0]]),
                                 dt=0.5, v_max=10.0)
    assert not clipped[0]
    assert v[0] == pytest.approx([-1.0])
    # reach for a center half a cell away
    v, clipped = feedback_inputs(g, positions, np.array([[0.5], [1.0]]),
                                 dt=0.5, v_max=10.0)
    assert not clipped[0]
    assert v[0] == pytest.approx([0.0])
    # saturated when the request exceeds the budget
    v, clipped = feedback_inputs(g, positions, np.array([[3.0], [1.0]]),
                                 dt=0.5, v_max=1.0)
    assert clipped[0]
    assert np.linalg.norm(v[0]) == pytest.approx(1.0)


def test_all_agents_feedback_matches_the_per_agent_law():
    rng = np.random.default_rng(5)
    graphs = [build_graph(3, [(1, 2), (2, 3)], dimension=2),
              build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
              build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)], dimension=3)]
    clamped = unclamped = 0
    for g in graphs:
        for _ in range(30):
            x = rng.uniform(0.0, 4.0, size=(g.agent_count, g.dimension))
            centers = x + rng.normal(scale=0.3, size=x.shape)
            dt = float(rng.uniform(1e-3, 0.1))
            # a bound near the typical input length clamps some rows only
            v_max = float(rng.uniform(0.5, 1.5) * np.median(
                np.linalg.norm((centers - x) / dt, axis=1)))
            v, flags = feedback_inputs(g, x, centers, dt, v_max)
            assert v.shape == x.shape and flags.shape == (g.agent_count,)
            for i in range(g.agent_count):
                ref, ref_flag = reference_feedback(g, i + 1, x, centers[i],
                                                   dt, v_max)
                assert bool(flags[i]) == ref_flag
                assert np.allclose(v[i], ref, rtol=1e-12, atol=1e-9)
                clamped += ref_flag
                unclamped += not ref_flag
            assert np.all(np.linalg.norm(v, axis=1) <= v_max * (1 + 1e-12))
    assert clamped > 20 and unclamped > 20


def test_validated_moves_cover_the_planning_chain():
    """The pair scenario's planned runs only use moves the abstraction
    actually validates under the neighbor cells seen along the runs."""
    g, rep, disc, decomp, labeling = _pair_setup()
    w1 = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    w2 = build_agent_wts(g, 2, decomp, labeling, rep, disc, initial_cell=7)
    run1 = (6, 5, 4, 3)
    run2 = (7, 6, 5, 5)
    for k in range(3):
        assert run1[k + 1] in w1.transitions.enabled(run1[k], (run2[k],))
        assert run2[k + 1] in w2.transitions.enabled(run2[k], (run1[k],))


# --------------------------------------------------------------------------
# box reachability against the corner oracle
# --------------------------------------------------------------------------

def _corner_worst(decomp, action, centers, dt):
    """Oracle: largest distance from each target center to the sampled
    prediction, by brute force over every corner of the source cell and every
    corner assignment of the neighbor cells. The endpoint is written as the
    abstraction writes it, so the box test must agree exactly."""
    corners = [list(itertools.product(*zip(*decomp.bounds(c))))
               for c in action]
    deg = len(action) - 1
    worst = np.zeros(len(centers))
    for own in map(np.array, corners[0]):
        for assignment in itertools.product(*corners[1:]):
            total = sum(np.array(x) for x in assignment)
            end = own + dt * (total - deg * own)
            worst = np.maximum(worst, np.linalg.norm(centers - end, axis=1))
    return worst


def _star_system(dimension, degree, side, counts, dt, v_max, rho,
                 regions=()):
    """Agent 1 at the center of a star with ``degree`` leaves, on a grid of
    ``counts`` cells of side ``side`` (refined to ``regions`` if given), with
    the remainder rho(dt) set to about ``rho``."""
    g = build_graph(degree + 1, [(1, j) for j in range(2, degree + 2)],
                    dimension)
    return (g, *_grid_system(g, side, counts, dt, v_max, rho, regions))


def _grid_system(g, side, counts, dt, v_max, rho, regions=()):
    """Decomposition, labelling, bounds and discretization of graph ``g`` on
    a grid as `_star_system` describes it."""
    dimension = g.dimension
    ws = Workspace(np.zeros(dimension), side * np.array(counts, dtype=float))
    grid = grid_decompose(ws, side * math.sqrt(dimension))
    assert grid.cells_per_axis == tuple(counts)
    decomp, labeling = refine_to_compliance(list(regions), grid)
    m_bound = rho / (dt * dt * math.exp(dt)) - v_max  # with l_total = 1
    rep = BoundsReport(k2=1.0, r_bar=m_bound, m_bound=m_bound, l1=1.0,
                       l2=1.0, l_total=1.0, v_max=v_max, lambda_reach=0.5,
                       safety=1.1)
    disc = DiscretizationRange(d_max_sup=1.0, dt_lo=dt, dt_hi=dt,
                               chosen_d_max=side, chosen_dt=dt)
    return decomp, labeling, rep, disc


# (dimension, degree, grid cells per axis, refined by a random region)
_BOX_CASES = [
    (1, 1, (4,), False), (1, 2, (3,), True), (1, 3, (3,), False),
    (1, 3, (2,), True), (2, 1, (2, 2), False), (2, 1, (2, 1), True),
    (2, 2, (2, 2), False), (2, 3, (2, 1), False),
]


@pytest.mark.parametrize("dimension,degree,counts,refine", _BOX_CASES)
def test_box_reachability_matches_corner_oracle(dimension, degree, counts,
                                                refine):
    rng = np.random.default_rng(1000 * dimension + 10 * degree + refine)
    outcomes = set()
    for _ in range(2):
        side = float(rng.uniform(0.2, 1.0))
        dt = float(rng.uniform(0.05, 0.45))  # 1 - deg*dt takes both signs
        v_max = side * float(rng.uniform(0.3, 2.0)) / (0.5 * dt)
        rho = float(rng.uniform(0.1, 0.45)) * side  # slivers may not fit
        regions = []
        if refine:
            lo = rng.uniform(0.05, 0.45, dimension) * side * np.array(counts)
            hi = lo + rng.uniform(0.2, 0.5, dimension) * side
            regions.append(LabeledRegion(lo, hi, {1: frozenset({"p"})}))
        g, decomp, labeling, rep, disc = _star_system(
            dimension, degree, side, counts, dt, v_max, rho, regions)
        cells = range(1, decomp.cell_count + 1)
        centers = np.array([decomp.center(c) for c in cells])
        budget = rep.lambda_reach * rep.v_max * dt
        rho = deviation_remainder(rep, dt)
        assert rho <= 0.5 * side
        w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=1)
        actions = list(itertools.product(cells, repeat=degree + 1))
        # the box test `build_agent_wts` runs, on each tuple's own sums
        lows = decomp.lows[np.array(actions) - 1]
        highs = decomp.highs[np.array(actions) - 1]
        box = _box_distances(lows[:, 0], highs[:, 0],
                             (lows[:, 1:].sum(axis=1),
                              highs[:, 1:].sum(axis=1)),
                             degree, centers, dt)
        expected = {}
        for a, action in enumerate(actions):
            worst = _corner_worst(decomp, action, centers, dt)
            assert np.array_equal(box[a], worst)
            for t in cells:
                ok = worst[t - 1] <= budget and rho <= decomp.inradius(t)
                outcomes.add(ok)
                if ok:
                    expected.setdefault(action, []).append(t)
                cert = w.certificate(action, t)
                assert (cert is not None) == ok
                if ok:
                    # the star's agent j+1 sits in cell action[j]
                    x = np.array([decomp.center(c) for c in action])
                    nominal = (decomp.center(t) - x[0]
                               - dt * reference_drift(g, 1, x)) / dt
                    assert (cert.source, cert.target) == (action[0], t)
                    assert cert.neighbor_cells == action[1:]
                    assert np.array_equal(cert.nominal_input, nominal)
                    assert cert.remainder == rho
        assert enabled_actions(w) == \
            {a: tuple(ts) for a, ts in expected.items()}
    assert outcomes == {True, False}


def test_box_reachability_accepts_a_worst_corner_exactly_at_the_budget():
    # dyadic data, so every operation is exact: from cell [1/4, 1/2) with the
    # neighbor in the same cell, the farthest prediction from the center 3/8
    # lies 1/8 away, and the reach budget is 0.5 * 4 * 1/16 = 1/8
    for v_max, enabled in ((4.0, True), (np.nextafter(4.0, 0.0), False)):
        g, decomp, labeling, rep, disc = _star_system(
            1, 1, 0.25, (4,), 1 / 16, v_max, 0.01)
        assert decomp.bounds(2)[0][0] == 0.25 and decomp.bounds(2)[1][0] == 0.5
        assert _corner_worst(decomp, (2, 2), decomp.center(2)[None], 1 / 16) \
            == 0.125
        w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=2)
        assert (2 in w.transitions.enabled(2, (2,))) == enabled
        assert (w.certificate((2, 2), 2) is not None) == enabled


def test_certificates_are_the_feedback_law_at_cell_centers():
    """A certificate's nominal input is row ``agent`` of `feedback_inputs`
    with the agent at its source center, its neighbors at their cell centers
    and its target center in its row; the other agents' rows and positions
    play no part. An enabled move keeps it within lambda*v_max."""
    rng = np.random.default_rng(41)
    checked = coupled = 0
    for counts in [(5,), (6,), (3, 2), (2, 3)] * 3:
        g = random_connected_graph(rng, max_agents=4, max_dimension=1)
        g = build_graph(g.agent_count, g.edges, len(counts))
        side = float(rng.uniform(0.2, 1.0))
        dt = float(rng.uniform(0.05, 0.3))
        v_max = side * float(rng.uniform(1.0, 3.0)) / (0.5 * dt)
        decomp, labeling, rep, disc = _grid_system(
            g, side, counts, dt, v_max, float(rng.uniform(0.1, 0.4)) * side)
        for agent in range(1, g.agent_count + 1):
            w = build_agent_wts(g, agent, decomp, labeling, rep, disc,
                                initial_cell=1)
            moves = [(a, t) for a, ts in enabled_actions(w).items()
                     for t in ts]
            for k in rng.choice(len(moves), min(len(moves), 40),
                                replace=False):
                action, target = moves[k]
                cert = w.certificate(action, target)
                x = rng.uniform(0.0, side * max(counts),
                                (g.agent_count, g.dimension))
                centers = rng.uniform(0.0, side * max(counts), x.shape)
                x[agent - 1] = decomp.center(action[0])
                for j, c in zip(g.neighbors(agent), action[1:]):
                    x[j - 1] = decomp.center(c)
                centers[agent - 1] = decomp.center(target)
                v, _ = feedback_inputs(g, x, centers, dt, np.inf)
                law = v[agent - 1]
                # relative to the terms summed, which may cancel
                scale = np.linalg.norm((centers - x)[agent - 1]) / dt \
                    + np.linalg.norm(np.abs(g.laplacian[agent - 1]) @ abs(x))
                assert np.allclose(cert.nominal_input, law, rtol=1e-12,
                                   atol=1e-12 * scale)
                assert cert.norm \
                    <= rep.lambda_reach * v_max * (1 + 1e-12)
                checked += 1
                coupled += bool(np.any(g.laplacian[agent - 1] @ x))
    # most moves have a nonzero drift, so its sign is pinned
    assert checked > 400 and coupled > checked // 2


def test_certificates_are_computed_once_per_move():
    g, rep, disc, decomp, labeling = _pair_setup()
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    first = w.certificate((6, 7), 5)
    assert w.certificate((6, 7), 5) is first
    assert w.certificate((6, 7), 3) is None      # not enabled
    hand_built = granted_chain_wts(1, (1, 2), {}, (), (1, 2), 1.0)
    assert hand_built.certificate((1,), 2) is None


# --------------------------------------------------------------------------
# batched certificates against the one-move evaluation
# --------------------------------------------------------------------------

def _assert_certificates_equal_the_one_move_law(w, decomp, rep, disc):
    """Every enabled move's certificate, from one batch, equals the law
    evaluated for that move alone, bit for bit; returns the move count."""
    dt = disc.chosen_dt
    rho = deviation_remainder(rep, dt)
    center = {c: decomp.center(c) for c in w.cells}.__getitem__
    moves = [(a, t) for a, ts in enabled_actions(w).items() for t in ts]
    certs = w.certificates([a for a, _ in moves], [t for _, t in moves])
    for (action, target), cert in zip(moves, certs):
        nominal, norm, remainder = scalar_certificate(
            center, dt, rho, action, target)
        assert (cert.agent, cert.source, cert.target, cert.neighbor_cells) \
            == (w.agent, action[0], target, action[1:])
        assert cert.nominal_input.tobytes() == nominal.tobytes()
        assert cert.norm.hex() == norm.hex()
        assert cert.remainder.hex() == remainder.hex()
    for k in range(0, len(moves), 97):
        assert w.certificate(*moves[k]) is certs[k]
    return len(moves)


def test_certificates_equal_the_one_move_law_on_the_bench_scenarios(
        tmp_path):
    checked = 0
    for family, generate in bench_families().items():
        for seed in range(3):
            path = tmp_path / f"{family}-{seed}.json"
            path.write_text(json.dumps(generate(seed).scenario))
            pipe = stage_abstract(stage_bounds(load_scenario(path)))
            for w in pipe.wts_list:
                checked += _assert_certificates_equal_the_one_move_law(
                    w, pipe.decomp, pipe.report, pipe.disc)
    assert checked > 100_000


@pytest.mark.parametrize("counts", [(6,), (3, 3), (2, 2, 2)])
def test_certificates_equal_the_one_move_law_on_random_grids(counts):
    rng = np.random.default_rng(43 + len(counts))
    checked = 0
    for _ in range(4):
        g = random_connected_graph(rng, max_agents=4, max_dimension=1)
        g = build_graph(g.agent_count, g.edges, len(counts))
        side = float(rng.uniform(0.2, 1.0))
        dt = float(rng.uniform(0.05, 0.3))
        v_max = side * float(rng.uniform(1.0, 3.0)) / (0.5 * dt)
        decomp, labeling, rep, disc = _grid_system(
            g, side, counts, dt, v_max, float(rng.uniform(0.1, 0.4)) * side)
        for agent in range(1, g.agent_count + 1):
            w = build_agent_wts(g, agent, decomp, labeling, rep, disc,
                                initial_cell=1)
            checked += _assert_certificates_equal_the_one_move_law(
                w, decomp, rep, disc)
    assert checked > 1000


# --------------------------------------------------------------------------
# tuple certificates against the frozen-dataclass ones they replace
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class _DataclassCertificate:
    agent: int
    source: int
    target: int
    neighbor_cells: tuple[int, ...]
    nominal_input: np.ndarray
    norm: float
    remainder: float


def _dataclass_certify(centers, agent, dt, rho, moves):
    """The batch as it was written with one frozen dataclass per move."""
    actions = np.array([action for action, _ in moves])
    own = centers[actions[:, 0] - 1]
    drift = np.zeros_like(own)
    for j in range(1, actions.shape[1]):
        drift -= own - centers[actions[:, j] - 1]
    goals = centers[np.array([target for _, target in moves]) - 1]
    nominal = (goals - own - dt * drift) / dt
    norms = np.sqrt(np.vecdot(nominal, nominal)).tolist()
    return [_DataclassCertificate(agent=agent, source=action[0],
                                  target=target, neighbor_cells=action[1:],
                                  nominal_input=x, norm=norm, remainder=rho)
            for (action, target), x, norm in zip(moves, nominal, norms)]


def _dataclass_certificates(w, known, certify, actions, targets):
    """`AgentWTS.certificates` over its own memo ``known``, as it was."""
    moves = list(zip(actions, targets))
    new = [m for m in dict.fromkeys(moves) if m not in known
           and m[1] in w.transitions.enabled(m[0][0], m[0][1:])]
    if new:
        known.update(zip(new, certify(new)))
    return list(map(known.get, moves))


@pytest.mark.parametrize("counts", [(5,), (7,), (3, 3), (2, 4)])
def test_tuple_certificates_match_the_dataclass_ones(counts):
    rng = np.random.default_rng(47 + sum(counts))
    checked = disabled = 0
    for _ in range(3):
        g = random_connected_graph(rng, max_agents=4, max_dimension=1)
        g = build_graph(g.agent_count, g.edges, len(counts))
        side = float(rng.uniform(0.2, 1.0))
        dt = float(rng.uniform(0.05, 0.3))
        v_max = side * float(rng.uniform(1.0, 3.0)) / (0.5 * dt)
        decomp, labeling, rep, disc = _grid_system(
            g, side, counts, dt, v_max, float(rng.uniform(0.1, 0.4)) * side)
        rho = deviation_remainder(rep, dt)
        for agent in range(1, g.agent_count + 1):
            w = build_agent_wts(g, agent, decomp, labeling, rep, disc,
                                initial_cell=1)
            oracle = functools.partial(_dataclass_certify, decomp.centers,
                                       agent, dt, rho)
            known = {}
            batches = []
            calls = []
            certify = w.certify
            w.certify = lambda moves: calls.append(len(moves)) or \
                certify(moves)
            for _ in range(3):
                # enabled and disabled moves, each a few times, in any order
                size = int(rng.integers(1, 60))
                actions = [tuple(int(c) for c in rng.integers(
                    1, len(w.cells) + 1, size=len(w.neighbor_agents) + 1))
                    for _ in range(size)]
                targets = [int(t) for t in rng.integers(
                    1, len(w.cells) + 1, size=size)]
                moves = [(a, t) for a, ts in enabled_actions(w).items()
                         for t in ts]
                for k in rng.choice(len(moves), size, replace=True):
                    actions.append(moves[k][0])
                    targets.append(moves[k][1])
                order = rng.permutation(len(actions))
                actions = [actions[k] for k in order]
                targets = [targets[k] for k in order]
                got = w.certificates(actions, targets)
                want = _dataclass_certificates(w, known, oracle, actions,
                                               targets)
                for cert, old in zip(got, want, strict=True):
                    if old is None:
                        assert cert is None
                        disabled += 1
                        continue
                    assert type(cert) is TransitionCertificate
                    assert (cert.agent, cert.source, cert.target,
                            cert.neighbor_cells) == \
                        (old.agent, old.source, old.target,
                         old.neighbor_cells)
                    assert cert.nominal_input.tobytes() == \
                        old.nominal_input.tobytes()
                    assert cert.norm.hex() == old.norm.hex()
                    assert cert.remainder.hex() == old.remainder.hex()
                    checked += 1
                batches.append((actions, targets, got))
            # the memo answers every later call with the same objects and
            # certifies each enabled move once over all calls
            for actions, targets, got in batches:
                again = w.certificates(actions, targets)
                assert all(a is b for a, b in zip(again, got, strict=True))
            assert sum(calls) == len(w._certificates) == len(known)
    assert checked > 500 and disabled > 100


def test_a_certificate_is_immutable_and_compares_by_identity():
    g, rep, disc, decomp, labeling = _pair_setup()
    w = build_agent_wts(g, 1, decomp, labeling, rep, disc, initial_cell=6)
    cert = w.certificate((6, 7), 5)
    for name in ("agent", "source", "target", "neighbor_cells",
                 "nominal_input", "norm", "remainder", "extra"):
        with pytest.raises(AttributeError):
            setattr(cert, name, 0)
    twin = TransitionCertificate(
        agent=cert.agent, source=cert.source, target=cert.target,
        neighbor_cells=cert.neighbor_cells,
        nominal_input=cert.nominal_input, norm=cert.norm,
        remainder=cert.remainder)
    assert cert == cert and not cert != cert
    assert not twin == cert and twin != cert
    assert hash(twin) != hash(cert)
    assert len({cert, twin}) == 2
    # a hand-built system has no certificates, enabled move or not
    hand_built = granted_chain_wts(1, (1, 2), {}, (), (1, 2), 1.0)
    assert hand_built.certificates([(1,), (1,), (2,)], [2, 1, 2]) == \
        [None, None, None]
