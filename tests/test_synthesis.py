"""Plan synthesis: per-agent products, alignment, consistency, joint search."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mas import synthesis, tba
from mas.abstraction import AgentWTS, ProductWTS
from mas.cli import load_scenario, stage_abstract, stage_bounds
from mas.errors import LengthMismatch, Unsatisfiable
from mas.graph import NetworkGraph, build_graph
from mas.mitl import evaluate, parse, word_from_lasso
from mas.synthesis import (BuchiProduct, align_runs, consistent,
                           enumerate_accepting_lassos, find_accepting_lasso,
                           synthesize, witness_instant)
from mas.tba import accepts_lasso, canonical_letters, from_flat_mitl

from conftest import class_table, four_state_timed_wts, planning_example


def _single_agent_product(formula_text, wts=None):
    # a period of 1.5 brings green back every 3 time units
    wts = wts or four_state_timed_wts(dt=1.5)
    auto = from_flat_mitl(parse(formula_text),
                          letters=canonical_letters({"green"}))
    return BuchiProduct(wts, auto), wts, auto


def _word_of(lasso, wts):
    """Timed word traced by a product lasso, one sampling period a move."""
    return word_from_lasso([wts.label(s[0]) for s in lasso.prefix_states],
                           [wts.label(s[0]) for s in lasso.cycle_states],
                           wts.dt)


def test_deadline_goal_has_accepting_lasso():
    product, wts, auto = _single_agent_product("F[2,5] green")
    lasso = find_accepting_lasso(product)
    assert lasso is not None
    word = _word_of(lasso, wts)
    assert accepts_lasso(auto, word)
    assert evaluate(word, parse("F[2,5] green"))


def test_canonical_lasso_revisits_green_at_three():
    # s0 -> s1 -> s0 takes two periods of 1.5, so green comes back at
    # t = 3, the earliest instant inside [2, 5]; the cheapest lasso's word
    # witnesses there.
    product, wts, _ = _single_agent_product("F[2,5] green")
    lassos = enumerate_accepting_lassos(product)
    assert lassos
    word = _word_of(lassos[0], wts)
    assert witness_instant(word, parse("F[2,5] green")) == 3


def test_unreachable_deadline_has_no_accepting_lasso():
    # green recurs at multiples of 3 only, never inside [2, 2.5]
    product, _, _ = _single_agent_product("F[2,2.5] green")
    assert find_accepting_lasso(product) is None


def test_product_states_stay_label_synchronized():
    product, wts, _ = _single_agent_product("F[2,5] green")
    seen, frontier = set(), list(product.initial())
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        cell, location, _ = state
        assert product.automaton.labels[product.location(location)] \
            == wts.label(cell)
        targets = wts.successors(cell)
        for nxt in product.successors(state):
            assert nxt[0] in targets
            frontier.append(nxt)
    assert seen


def test_lassos_come_out_cheapest_first():
    product, _, _ = _single_agent_product("F[0,10] green")
    lassos = enumerate_accepting_lassos(product)
    assert lassos
    lengths = [(len(l.prefix_states), len(l.cycle_states)) for l in lassos]
    assert lengths == sorted(lengths)


def test_align_runs_to_common_prefix_and_period():
    run_a = ((1, 2), (3, 4))          # prefix 2, cycle 2
    run_b = ((9,), (8, 7, 6))         # prefix 1, cycle 3
    (pa, ca), (pb, cb) = align_runs([run_a, run_b])
    assert pa == (1, 2) and ca == (3, 4, 3, 4, 3, 4)
    assert pb == (9, 8) and cb == (7, 6, 8, 7, 6, 8)
    # runs already in the common shape, as a joint lasso's projections
    # are, come back equal
    run_c = ((1, 2, 3), (4, 5, 4, 5, 4, 5))
    run_d = ((9, 8, 7), (6, 8, 7, 6, 8, 7))
    assert align_runs([run_a, run_b, run_c, run_d])[2:] == [run_c, run_d]
    assert align_runs([run_c, run_d]) == [run_c, run_d]
    assert align_runs([run_a, run_a]) == [run_a, run_a]


def test_align_runs_respects_the_period_cap():
    run_a = ((), tuple(range(32)))
    run_b = ((), tuple(range(63)))   # lcm 2016 > 1000
    with pytest.raises(LengthMismatch):
        align_runs([run_a, run_b], lcm_cap=1000)


def _gated_pair():
    """Agent 2 may leave cell 3 only while agent 1 sits in cell 2."""
    g = build_graph(2, [(1, 2)])
    cells = (1, 2, 3)
    from conftest import granted_chain_wts
    w1 = granted_chain_wts(1, (1, 2, 3), {}, (2,), cells, 1.0)
    table = {(3, 2): (2, 3), (3, 1): (3,), (3, 3): (3,),
             (2, 1): (2,), (2, 2): (2,), (2, 3): (2,)}
    w2 = AgentWTS(agent=2, cells=cells, initial=3, dt=1.0, labels={},
                  transitions=class_table(table), neighbor_agents=(1,))
    return [w1, w2], ProductWTS([w1, w2], g)


def test_consistency_accepts_jointly_granted_runs():
    _, product = _gated_pair()
    runs = [((1, 2), (3,)), ((3, 3), (2,))]  # agent 2 waits for the gate
    assert consistent(runs, product)


def test_consistency_rejects_ungated_joint_steps():
    _, product = _gated_pair()
    bad = [((1, 2), (3,)), ((3, 2), (2,))]  # leaves 3 while agent 1 is at 1
    assert not consistent(bad, product)


def test_three_agent_chains_meet_their_deadlines():
    wts_list, g, formulas = planning_example(1.0)
    result = synthesize(wts_list, g, formulas)
    assert result.step_used == 3
    assert result.combinations_tried == 1
    assert [p.witness_time for p in result.plans] == [3, 3, 3]
    for plan, w in zip(result.plans, wts_list):
        assert plan.agent == w.agent
        assert evaluate(plan.word(), parse(plan.formula_text))
    # the red agent reaches its region a step early and provides on opening
    assert result.plans[1].cell_at(2) == 24
    assert result.plans[1].cell_at(3) == 24


def test_slower_sampling_shifts_witnesses_inside_windows():
    wts_list, g, formulas = planning_example(1.5)
    result = synthesize(wts_list, g, formulas)
    assert [p.witness_time for p in result.plans] \
        == [Fraction(9, 2), 3, Fraction(9, 2)]


def test_plans_expose_steps_actions_and_services():
    wts_list, g, formulas = planning_example(1.0)
    plan = synthesize(wts_list, g, formulas).plans[0]
    assert [plan.cell_at(j) for j in range(4)] == [14, 17, 10, 20]
    assert plan.prefix_actions[0][0] == 14
    assert plan.word().time(4) == 4
    # positions wrap around the cycle indefinitely
    assert plan.cell_at(plan.prefix_length + plan.cycle_length) \
        == plan.cell_at(plan.prefix_length)
    word = plan.word()
    assert word.letter(3) == frozenset({"yellow"})
    assert plan.provided_prefix[3] == frozenset({"yellow"})


def test_an_agent_without_neighbours_acts_with_its_own_cell():
    # build_graph needs two agents, but the plans read the actions off any
    # graph: a lone agent's are 1-tuples, as ProductWTS.agent_action has them
    product, wts, _ = _single_agent_product("F[2,5] green")
    runs = align_runs([synthesis._project_cells(
        find_accepting_lasso(product), None)])
    joint = ProductWTS([wts], NetworkGraph(1, 1, ()))
    [plan] = synthesis._build_plans(runs, [wts], joint,
                                    {1: parse("F[2,5] green")}, wts.dt)
    cells = plan.prefix_cells + plan.cycle_cells
    assert plan.prefix_actions + plan.cycle_actions \
        == tuple(joint.agent_action((cell,), 1) for cell in cells) \
        == tuple((cell,) for cell in cells)


def test_forced_joint_search_finds_the_same_witnesses():
    wts_list, g, formulas = planning_example(1.0)
    result = synthesize(wts_list, g, formulas, r_iter=0)
    assert result.step_used == 4
    assert result.combinations_tried == 0
    for plan, w in zip(result.plans, wts_list):
        assert evaluate(plan.word(), formulas[w.agent])


def test_impossible_deadline_is_proven_unsatisfiable():
    wts_list, g, formulas = planning_example(1.0)
    formulas[3] = parse("F[0,1] blue")  # blue is three moves away
    with pytest.raises(Unsatisfiable, match=r"agent 3 .* F\[0,1\] \(blue\)"):
        synthesize(wts_list, g, formulas)


def test_joint_conflict_is_proven_unsatisfiable_by_the_joint_search():
    # each agent meets its goal on its own, but agent 1 may leave cell 0
    # for its cell a only while agent 2 sits in its cell b, where agent 2
    # must never be
    g = build_graph(2, [(1, 2)])
    w1 = AgentWTS(agent=1, cells=(0, 1), initial=0, dt=1.0,
                  labels={1: frozenset({"a"})},
                  transitions=class_table({(0, 0): (0,), (0, 1): (0, 1),
                                           (1, 0): (1,), (1, 1): (1,)}),
                  neighbor_agents=(2,))
    w2 = AgentWTS(agent=2, cells=(0, 1), initial=0, dt=1.0,
                  labels={1: frozenset({"b"})},
                  transitions=class_table({(c, d): (0, 1) for c in (0, 1)
                                           for d in (0, 1)}),
                  neighbor_agents=(1,))
    formulas = {1: parse("F[0,3] a"), 2: parse("G[0,inf) !b")}
    with pytest.raises(Unsatisfiable, match="no accepting joint run"):
        synthesize([w1, w2], g, formulas)


def _six_service_pair() -> dict:
    """pair_line's geometry with six one-service regions per agent: agent 1
    serves s1..s6 in cells 1-6 and agent 2 ds1..ds6 in cells 7-12."""
    scenario = json.loads(
        (Path(__file__).resolve().parent.parent / "scenarios"
         / "pair_line.json").read_text())
    side = scenario["parameters"]["cell_diameter"]
    scenario["regions"] = [
        {"lower": [round((cell - 1) * side, 6)],
         "upper": [round(cell * side, 6)],
         "services": {str(agent): [f"{prefix}s{k}"]}}
        for agent, prefix, first in ((1, "", 1), (2, "d", 7))
        for k, cell in enumerate(range(first, first + 6), start=1)]
    scenario["formulas"] = {"1": "F[0,1] s1 & F[0,2] s2", "2": "F[0,1] ds3"}
    return scenario


def _phase_of(location):
    """A location with its letters left out: unit locations are (phase,
    letter), intersection locations (left, right, round)."""
    if len(location) == 2:
        return location[0]
    return _phase_of(location[0]), _phase_of(location[1]), location[2]


def test_agent_automata_expand_only_the_letters_the_cells_emit(
        tmp_path, monkeypatch):
    # each agent emits 7 of its 64 letters: none and one per service
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_six_service_pair()))
    pipe = stage_abstract(stage_bounds(load_scenario(path)))
    built = []

    def recording(formula, letters=None):
        built.append(tba.from_flat_mitl(formula, letters))
        return built[-1]

    monkeypatch.setattr(synthesis, "from_flat_mitl", recording)
    result = synthesize(pipe.wts_list, pipe.g, pipe.scenario.formulas)
    assert len(result.plans) == 2 and len(built) == 2
    for auto in built:
        assert len({auto.labels[q] for q in auto.locations}) == 7
        per_phase = Counter(_phase_of(q) for q in auto.locations)
        assert max(per_phase.values()) <= 7


def test_one_formula_per_agent_is_checked():
    wts_list, g, formulas = planning_example(1.0)
    with pytest.raises(ValueError):
        synthesize(wts_list, g, {1: formulas[1]})


def test_witness_instant_basics():
    word = word_from_lasso([frozenset(), frozenset({"g"})], [frozenset()], 1)
    assert witness_instant(word, parse("F[0,3] g")) == 1
    assert witness_instant(word, parse("F[2,3] g")) is None
    assert witness_instant(word, parse("G[0,3] g")) is None
    never = word_from_lasso([], [frozenset()], 1)
    assert witness_instant(never, parse("F[0,inf) g")) is None
