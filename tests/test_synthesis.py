"""Plan synthesis: per-agent products, alignment, consistency, joint search."""

from fractions import Fraction

import pytest

from mas.abstraction import AgentWTS, ProductWTS
from mas.errors import LengthMismatch, Unsatisfiable
from mas.graph import build_graph
from mas.mitl import evaluate, parse, word_from_lasso
from mas.synthesis import (BuchiProduct, align_runs, consistent,
                           enumerate_accepting_lassos, find_accepting_lasso,
                           synthesize, witness_instant)
from mas.tba import accepts_lasso, from_flat_mitl

from conftest import four_state_timed_wts, planning_example


def _single_agent_product(formula_text, wts=None):
    # a period of 1.5 brings green back every 3 time units
    wts = wts or four_state_timed_wts(dt=1.5)
    auto = from_flat_mitl(parse(formula_text), alphabet=frozenset({"green"}))
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
        assert product.automaton.labels[location] == wts.label(cell)
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
                  transitions=table, neighbor_agents=(1,))
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
    assert plan.action_at(0)[0] == 14
    assert plan.word().time(4) == 4
    # positions wrap around the cycle indefinitely
    assert plan.cell_at(plan.prefix_length + plan.cycle_length) \
        == plan.cell_at(plan.prefix_length)
    word = plan.word()
    assert word.letter(3) == frozenset({"yellow"})
    assert plan.provided_at(3) == frozenset({"yellow"})


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
    with pytest.raises(Unsatisfiable):
        synthesize(wts_list, g, formulas)


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
