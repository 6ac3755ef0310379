"""Continuous execution: exact propagation, policing, service extraction."""

import warnings

import numpy as np
import pytest

from mas.abstraction import feedback_inputs
from mas.errors import (DimensionMismatch, InputSaturationFlag, LabelMismatch,
                        SemanticError, WorkspaceExit)
from mas.graph import build_graph, relative_state
from mas.partition import (CellDecomposition, ServiceLabeling, Workspace,
                           grid_decompose)
from mas.simulate import (WORKSPACE_TOL, Trajectory, _interval_operator,
                          bang_bang_inputs, boundary_cells,
                          extract_service_word, integrate_inputs,
                          integrate_plans, verify_against_plans)
from mas.synthesis import Plan

from conftest import batched_rk4, reference_feedback


def _ws(lower, upper):
    return Workspace(np.asarray(lower, dtype=float),
                     np.asarray(upper, dtype=float))


def _exact_state(g, x0, v, t):
    """Closed-form solution of x' = -Lx + v for constant v (per coordinate)."""
    lam, basis = np.linalg.eigh(g.laplacian)
    y0 = basis.T @ x0
    w = basis.T @ v
    decay = np.exp(-lam * t)
    gain = np.where(np.abs(lam) > 1e-12,
                    (1.0 - decay) / np.where(np.abs(lam) > 1e-12, lam, 1.0),
                    t)
    y = decay[:, None] * y0 + gain[:, None] * w
    return basis @ y


def _plan(cells, dt, provided=None):
    """Hand-built plan with a one-cell terminal cycle, no certificates."""
    prefix = tuple(cells[:-1])
    cycle = (cells[-1],)
    k = len(prefix)
    provided = provided or {}
    return Plan(
        agent=1, dt=dt, prefix_cells=prefix, cycle_cells=cycle,
        prefix_actions=tuple((c,) for c in prefix), cycle_actions=(cycle,),
        provided_prefix=tuple(provided.get(c, frozenset()) for c in prefix),
        provided_cycle=(provided.get(cycle[0], frozenset()),),
        certificates_prefix=(None,) * k, certificates_cycle=(None,))


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def test_integrator_matches_the_closed_form_solution():
    g = build_graph(3, [(1, 2), (2, 3)])
    x0 = np.array([[0.0], [1.0], [5.0]])
    v = np.array([[0.3], [-0.2], [0.1]])
    traj = integrate_inputs(g, x0, np.tile(v, (4, 1, 1)), dt=0.5, substeps=8)
    expected = _exact_state(g, x0, v, 2.0)
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-12


def test_every_node_is_the_exact_flow():
    g = build_graph(3, [(1, 2), (2, 3)])
    x0 = np.array([[0.0], [1.0], [5.0]])
    v = np.array([[0.3], [-0.2], [0.1]])
    for substeps in (1, 2, 8):
        traj = integrate_inputs(g, x0, v[None], dt=0.8, substeps=substeps)
        assert traj.states.shape[0] == substeps + 1
        for t, state in zip(traj.times, traj.states):
            assert np.max(np.abs(state - _exact_state(g, x0, v, t))) < 1e-12


def test_zero_input_consensus_contracts_the_relative_state():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)], dimension=2)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 2))
    zeros = np.zeros((20, 4, 2))
    traj = integrate_inputs(g, x0, zeros, dt=0.25, substeps=4)
    norms = traj.relative_norms(g)
    assert norms[-1] < 0.01 * norms[0]
    assert np.all(np.diff(norms) <= 1e-12)


def test_relative_norms_match_the_per_node_relative_state():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)], dimension=2)
    rng = np.random.default_rng(2)
    traj = integrate_inputs(g, rng.normal(size=(4, 2)),
                            rng.normal(size=(6, 4, 2)), dt=0.3, substeps=3)
    per_node = [np.linalg.norm(relative_state(g, x)) for x in traj.states]
    assert np.max(np.abs(traj.relative_norms(g) - per_node)) < 1e-12


def test_input_and_state_shapes_are_validated():
    g = build_graph(2, [(1, 2)])
    with pytest.raises(DimensionMismatch):
        integrate_inputs(g, np.zeros((3, 1)), np.zeros((1, 2, 1)), dt=0.1)
    with pytest.raises(DimensionMismatch):
        integrate_inputs(g, np.zeros((2, 1)), np.zeros((1, 2, 2)), dt=0.1)
    with pytest.raises(ValueError):
        integrate_inputs(g, np.zeros((2, 1)), np.zeros((1, 2, 1)), dt=0.1,
                         substeps=0)


def test_leaving_the_workspace_is_an_error():
    g = build_graph(2, [(1, 2)])
    x0 = np.array([[0.2], [0.8]])
    push = np.zeros((5, 2, 1))
    push[:, 1, 0] = 10.0  # agent 2 sprints through the right wall
    with pytest.raises(WorkspaceExit, match="agent 2 left the workspace"):
        integrate_inputs(g, x0, push, dt=0.1, substeps=4,
                         workspace=_ws([0.0], [1.0]))


# --------------------------------------------------------------------------
# discrete readback
# --------------------------------------------------------------------------

def _readback_fixture():
    decomp = grid_decompose(_ws([0.0], [4.0]), 1.0)  # cells 1..4, size 1
    labeling = ServiceLabeling({1: frozenset({"port"})},
                               {1: {2: frozenset({"port"})}})
    positions = [0.5, 0.5, 1.5, 1.5, 2.5, 1.5]
    states = np.array(positions)[:, None, None]
    traj = Trajectory(times=np.arange(6) * 2.0, states=states,
                      inputs=np.zeros((5, 1, 1)), dt=2.0, substeps=1)
    return decomp, labeling, traj


def test_boundary_cells_follow_the_trajectory():
    decomp, _, traj = _readback_fixture()
    cells = boundary_cells(traj, decomp)
    assert cells.tolist() == [[1], [1], [2], [2], [3], [2]]


def test_visits_merge_and_are_stamped_mid_interval():
    decomp, labeling, traj = _readback_fixture()
    word = extract_service_word(traj, decomp, labeling)
    # two port visits: boundaries 2-3 merge (stamp 2.5*dt), then boundary 5
    assert word[1] == ((5.0, frozenset({"port"})),
                       (11.0, frozenset({"port"})))


def test_execution_is_checked_against_plans():
    decomp, labeling, traj = _readback_fixture()
    good = _plan([1, 1, 2, 2, 3, 2], 2.0)
    table = verify_against_plans(traj, decomp, [good])
    assert table.tolist() == [[1], [1], [2], [2], [3], [2]]
    bad = _plan([1, 1, 4, 2, 3, 2], 2.0)
    with pytest.raises(LabelMismatch, match="agent 1 at step 2"):
        verify_against_plans(traj, decomp, [bad])
    with pytest.raises(LabelMismatch):
        extract_service_word(traj, decomp, labeling, plans=[bad])
    good.agent = 2  # plans are matched by agent number, not position
    with pytest.raises(SemanticError, match=r"got plans for agents \[2\]"):
        verify_against_plans(traj, decomp, [good])


# --------------------------------------------------------------------------
# closed-loop plan execution
# --------------------------------------------------------------------------

def _pair_setup():
    g = build_graph(2, [(1, 2)])
    decomp = grid_decompose(_ws([0.0], [4.0]), 1.0)
    labeling = ServiceLabeling({1: frozenset({"port"}), 2: frozenset()},
                               {1: {2: frozenset({"port"})}, 2: {}})
    plan1 = _plan([1, 2, 2], 0.25, provided={2: frozenset({"port"})})
    plan2 = _plan([4, 3, 3], 0.25)
    plan2.agent = 2
    x0 = np.array([[0.5], [3.5]])
    return g, decomp, labeling, [plan1, plan2], x0


def test_closed_loop_execution_follows_the_plans():
    g, decomp, labeling, plans, x0 = _pair_setup()
    traj = integrate_plans(g, plans, decomp, x0, v_max=1000.0, steps=3)
    assert not traj.saturated
    cells = verify_against_plans(traj, decomp, plans)
    assert cells.tolist() == [[1, 4], [2, 3], [2, 3], [2, 3]]
    word = extract_service_word(traj, decomp, labeling, plans=plans)
    assert word[1] == ((0.375, frozenset({"port"})),)
    assert word[2] == ()


def test_undersized_input_bound_is_flagged():
    g, decomp, _, plans, x0 = _pair_setup()
    with pytest.warns(InputSaturationFlag):
        traj = integrate_plans(g, plans, decomp, x0, v_max=0.5, steps=3)
    assert traj.saturated
    assert traj.saturated[0][0] == 0  # clipped from the very first step


def test_plan_execution_preconditions():
    g, decomp, _, plans, x0 = _pair_setup()
    with pytest.raises(SemanticError, match="need 2 plans"):
        integrate_plans(g, plans[:1], decomp, x0, v_max=10.0, steps=2)
    with pytest.raises(SemanticError, match="starts in cell"):
        integrate_plans(g, plans, decomp, np.array([[1.5], [3.5]]),
                        v_max=10.0, steps=2)
    slow = _plan([4, 3, 3], 0.5)
    slow.agent = 2
    with pytest.raises(SemanticError, match="sampling interval"):
        integrate_plans(g, [plans[0], slow], decomp, x0, v_max=10.0, steps=2)
    with pytest.raises(ValueError, match="steps must be non-negative"):
        integrate_plans(g, plans, decomp, x0, v_max=10.0, steps=-1)


@pytest.mark.parametrize("cell", [0, 5, 999])
def test_planned_cells_outside_the_decomposition_are_refused(cell):
    g, decomp, _, plans, x0 = _pair_setup()
    bad = _plan([4, 3, cell], 0.25)
    bad.agent = 2
    with pytest.raises(SemanticError,
                       match=rf"agent 2's plan names cell {cell} at step 2, "
                             rf"but the scenario has 4 cells"):
        integrate_plans(g, [plans[0], bad], decomp, x0, v_max=10.0, steps=1)


def _reference_closed_loop(g, plans, decomp, x0, v_max, steps, substeps):
    """Closed loop from the per-agent feedback law and batched RK4 (oracle)."""
    dt = plans[0].dt
    h = dt / substeps
    x = np.asarray(x0, dtype=float)
    states, saturated = [x], []
    for j in range(steps):
        v = np.empty_like(x)
        for i, plan in enumerate(plans):
            v[i], clipped = reference_feedback(
                g, i + 1, x, decomp.center(plan.cell_at(j + 1)), dt, v_max)
            if clipped:
                saturated.append((j, i + 1))
        for _ in range(substeps):
            x = batched_rk4(g, x[None], v[None], h, substeps=16)[0]
            states.append(x)
    return np.array(states), saturated


def _random_walk_plans(decomp, rng, agents, dt, length):
    """Plans that wander between neighbouring cells of a uniform grid."""
    counts = np.array(decomp.cells_per_axis)
    plans = []
    for agent in range(1, agents + 1):
        idx = rng.integers(0, counts)
        cells = []
        for _ in range(length):
            cells.append(int(np.ravel_multi_index(tuple(idx), counts)) + 1)
            idx = np.clip(idx + rng.integers(-1, 2, size=idx.size), 0,
                          counts - 1)
        plan = _plan(cells, dt)
        plan.agent = agent
        plans.append(plan)
    return plans


def test_closed_loop_matches_a_reference_integration():
    rng = np.random.default_rng(9)
    cases = [(build_graph(3, [(1, 2), (2, 3)], dimension=2),
              _ws([0.0, 0.0], [4.0, 3.0])),
             (build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
              _ws([0.0], [6.0]))]
    saw_clamping = False
    for g, ws in cases:
        decomp = grid_decompose(ws, np.sqrt(ws.dimension) + 1e-9)
        for v_max in (1000.0, 40.0):
            plans = _random_walk_plans(decomp, rng, g.agent_count, 0.02, 12)
            x0 = np.array([decomp.center(p.cell_at(0)) for p in plans])
            x0 += rng.uniform(-0.2, 0.2, size=x0.shape)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InputSaturationFlag)
                traj = integrate_plans(g, plans, decomp, x0, v_max, steps=16,
                                       substeps=3)
            states, saturated = _reference_closed_loop(
                g, plans, decomp, x0, v_max, steps=16, substeps=3)
            assert np.max(np.abs(traj.states - states)) < 1e-9
            assert list(traj.saturated) == saturated
            reference = Trajectory(times=traj.times, states=states,
                                   inputs=traj.inputs, dt=0.02, substeps=3)
            assert np.array_equal(boundary_cells(traj, decomp),
                                  boundary_cells(reference, decomp))
            saw_clamping |= bool(saturated)
    assert saw_clamping


def test_agents_parked_at_their_targets_stay_bitwise_still():
    g = build_graph(3, [(1, 2), (2, 3)], dimension=2)
    decomp = grid_decompose(_ws([0.0, 0.0], [4.032, 2.688]), 0.475)
    plans = []
    for agent, cell in enumerate((5, 23, 40), start=1):
        plan = _plan([cell, cell], 0.00069)
        plan.agent = agent
        plans.append(plan)
    x0 = np.array([decomp.center(p.cell_at(0)) for p in plans])
    traj = integrate_plans(g, plans, decomp, x0, v_max=1000.0, steps=50,
                           substeps=4)
    assert np.array_equal(traj.states, np.broadcast_to(x0, traj.states.shape))


def test_closed_loop_names_the_agent_that_leaves_the_workspace():
    g = build_graph(2, [(1, 2)])
    ws = _ws([0.0], [4.0])
    # the last cut lies past the workspace, and so does the last cell's center
    decomp = CellDecomposition(ws, (np.array([0.0, 1.0, 2.0, 3.0, 7.0]),))
    plan1 = _plan([1, 1, 1], 0.25)
    plan2 = _plan([3, 4, 4], 0.25)
    plan2.agent = 2
    x0 = np.array([[0.5], [2.5]])
    states, _ = _reference_closed_loop(g, [plan1, plan2], decomp, x0, 1000.0,
                                       steps=2, substeps=4)
    first = int(np.argmax(states[:, 1, 0] > 4.0 + 1e-9))
    assert first % 4 == 3  # mid-block: later nodes of the block are out too
    assert np.all(states[:, 0, 0] < 4.0)
    with pytest.raises(WorkspaceExit,
                       match=f"agent 2 left the workspace at "
                             f"t={first * 0.0625:.6g}$"):
        integrate_plans(g, [plan1, plan2], decomp, x0, v_max=1000.0, steps=2,
                        substeps=4)


def _stepped_closed_loop(g, plans, decomp, x0, v_max, steps, substeps):
    """The closed loop stepped one interval at a time (test oracle).

    Feedback from the measured boundary state, then the exact flow over the
    interval's nodes, each checked against the workspace in time order.
    Returns (states, inputs, saturated).
    """
    dt = plans[0].dt
    ordered = sorted(plans, key=lambda plan: plan.agent)
    step = _interval_operator(g, dt, substeps)
    ws = decomp.workspace
    h = dt / substeps
    states, inputs, saturated = [np.asarray(x0, dtype=float)], [], []

    def check(x, k):
        out = ((x < ws.lower - WORKSPACE_TOL)
               | (x > ws.upper + WORKSPACE_TOL)).any(axis=1)
        if out.any():
            raise WorkspaceExit(f"agent {int(np.argmax(out)) + 1} left the "
                                f"workspace at t={k * h:.6g}")

    check(states[0], 0)
    for j in range(steps):
        x = states[-1]
        aims = np.array([decomp.center(p.cell_at(j + 1)) for p in ordered])
        v, clipped = feedback_inputs(g, x, aims, dt, v_max)
        saturated.extend((j, int(i) + 1) for i in np.flatnonzero(clipped))
        inputs.append(v)
        block = x + (step @ np.concatenate((x, v))).reshape(substeps, *x.shape)
        for s, node in enumerate(block, start=1):
            check(node, j * substeps + s)
            states.append(node)
    return np.array(states), np.array(inputs), saturated


def _random_connected_graph(rng, agents, dimension):
    edges = {(int(rng.integers(1, i)), i) for i in range(2, agents + 1)}
    for i in range(1, agents + 1):
        for k in range(i + 1, agents + 1):
            if rng.random() < 0.3:
                edges.add((i, k))
    return build_graph(agents, sorted(edges), dimension=dimension)


def _outcome(g, plans, decomp, x0, v_max, steps, substeps):
    """(trajectory or WorkspaceExit text) of integrate_plans, no warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InputSaturationFlag)
        try:
            return integrate_plans(g, plans, decomp, x0, v_max, steps,
                                   substeps=substeps)
        except WorkspaceExit as exc:
            return str(exc)


def test_closed_loop_matches_the_stepped_loop_on_long_random_runs():
    rng = np.random.default_rng(13)
    steps = 2000
    clamped_mid_run = exits = 0
    for trial in range(12):
        dimension = 1 + trial % 2
        g = _random_connected_graph(rng, int(rng.integers(2, 5)), dimension)
        lower = rng.uniform(-2.0, 2.0, size=dimension)
        ws = _ws(lower, lower + rng.uniform(1.0, 4.0, size=dimension))
        grid = grid_decompose(ws, float(rng.uniform(0.3, 0.8)))
        dt = float(10 ** rng.uniform(-3.0, -0.3))  # m from ~1e-3 to ~0.4
        substeps = int(rng.integers(1, 5))
        plans = _random_walk_plans(grid, rng, g.agent_count, dt, steps + 1)
        # one far jump mid-run: the largest input of an unclamped run
        jump = int(rng.integers(steps // 4, 3 * steps // 4))
        cells = [*plans[0].prefix_cells, *plans[0].cycle_cells]
        cells[jump + 1:] = [grid.cell_count + 1 - c for c in cells[jump + 1:]]
        plans[0] = _plan(cells, dt)
        decomp = grid
        if trial % 4 == 3:  # cells on the upper x face reach past the wall
            cuts = list(grid.cuts)
            cuts[0] = np.append(cuts[0][:-1], ws.upper[0] + 3.0 * ws.extent[0])
            decomp = CellDecomposition(ws, tuple(cuts))
        x0 = np.array([grid.center(p.cell_at(0)) for p in plans])
        x0 += rng.uniform(-0.2, 0.2, size=x0.shape) * grid.diameter
        x0 = np.clip(x0, ws.lower, ws.upper)
        args = (g, plans, decomp, x0)
        try:
            _, free, _ = _stepped_closed_loop(*args, np.inf, steps, substeps)
            peaks = np.linalg.norm(free, axis=2).max(axis=1)
            limits = (np.inf, 0.5 * (peaks[:jump].max() + peaks.max()))
        except WorkspaceExit:
            limits = (np.inf,)
        for v_max in limits:
            got = _outcome(*args, v_max, steps, substeps)
            try:
                states, inputs, saturated = _stepped_closed_loop(
                    *args, v_max, steps, substeps)
            except WorkspaceExit as exc:
                assert got == str(exc)
                exits += 1
                continue
            scale = float(ws.extent.max())
            assert np.max(np.abs(got.states - states)) <= 1e-12 * scale
            assert np.max(np.abs(got.inputs - inputs)) <= 1e-12 * scale / dt
            assert list(got.saturated) == saturated
            if saturated:
                assert saturated[0][0] >= jump > 0
                clamped_mid_run += 1
    assert clamped_mid_run and exits


# --------------------------------------------------------------------------
# boundedness trials
# --------------------------------------------------------------------------

def test_boundedness_report_tracks_entry_and_containment():
    g = build_graph(3, [(1, 2), (2, 3)])
    x0 = np.array([[0.0], [0.0], [9.0]])
    assert np.linalg.norm(relative_state(g, x0)) == pytest.approx(9.0)
    norms = integrate_inputs(g, x0, np.zeros((10, 3, 1)), dt=1.0,
                             substeps=8).relative_norms(g)
    assert norms[0] == 9.0
    # contained in max(initial norm, r_bar) = 9, and inside r_bar = 2 at the end
    assert norms.max() <= 9.0 + 1e-6
    assert norms[-1] <= 2.0 + 1e-6
    short = integrate_inputs(g, x0, np.zeros((0, 3, 1)), dt=1.0,
                             substeps=8).relative_norms(g)
    assert short.shape == (1,) and short[0] == 9.0


def test_adversarial_inputs_saturate_the_magnitude_bound():
    g = build_graph(3, [(1, 2), (2, 3)], dimension=2)
    rng = np.random.default_rng(3)
    inputs = bang_bang_inputs(g, v_max=1.5, steps=7, rng=rng)
    assert inputs.shape == (7, 3, 2)
    assert np.allclose(np.linalg.norm(inputs, axis=2), 1.5)
