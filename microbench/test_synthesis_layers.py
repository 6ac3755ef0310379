"""Microbenchmarks of the timed search inside ``synthesize``.

Nine of them run on a two-agent scenario with two-window goals whose
per-agent runs never combine, so synthesis enumerates lassos, rejects all
276 combinations and searches the joint product:

* cold ``BuchiProduct.successors`` expansion of agent 1's whole product;
* cold ``enumerate_accepting_lassos`` on agent 1's product (its 12 lassos);
* cold ``enumerate_accepting_lassos`` on both agents' products (12 and 23
  lassos; ``sat`` is 195 and 98 ticks, and most layers below it are
  replayed rather than expanded);
* ``consistent`` over the 276 combinations of per-agent lassos, against a
  fresh ``ProductWTS`` each round, since the check fills its successor
  cache;
* step 3's loop over the same 276 combinations (``_combine``), which walks
  the first and counts the rest, failing at the same move, as tried;
* ``intersect`` of the two agents' automata, with its largest constant
  (built at once) and its 728 locations (listed only when asked for);
* the cold joint search of step 4: a fresh ``ProductWTS`` against the
  intersection, expanded by ``find_accepting_lasso`` until it closes its
  lasso, which passes 1 044 distinct states to ``successors``;
* the guard-segment compile (``TickClocks.segments``) of the 50 joint
  locations that search reaches, on a fresh intersection and clock;
* steps 3 and 4 on one fresh ``ProductWTS``, as ``synthesize`` runs them:
  the 276 checks, then the joint search, which finds the successor lists
  the checks computed in the product's cache.

Another runs cold ``enumerate_accepting_lassos`` on all three agent
products of the line3-abstract scenario at seed 0 (``LINE3`` of
``test_abstraction_layers``), 24 lassos each. One more translates
``F[0,1] a & F[0,2] b & G[0,3] !c`` over the letters an agent with k
one-service regions emits, none and one per service, for k = 3..7. The
last five take the two-agent scenario's step-4 plans, 917 steps per
agent: one writes the text of plans.json, one walks that text's document
against the ``PLANS`` table (``_walk``, as every read of plans.json does,
its 1 834 step objects on the fast path), one builds both plans' timed
words (``Plan.word``) and runs the checks ``_build_plans`` makes on them,
``evaluate`` and ``witness_instant`` against each agent's formula, one
runs all of ``_build_plans`` on those runs, with no certificate computed
yet (each agent's certificates of its distinct moves in one batch), and
the last times that share alone: cold ``AgentWTS.certificates`` over both
agents' 917 moves (135 and 248 distinct).

Time them from the repository root; the default test run runs each once
with ``--benchmark-disable`` (tests/test_microbench.py):

    PYTHONPATH=src python -m pytest microbench --benchmark-min-rounds=5
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from mas.cli import (load_scenario, stage_abstract, stage_bounds,
                     stage_synthesize)
from mas.files import PLANS, _walk, plans_json
from mas.mitl import evaluate, parse, witness_instant
from mas.synthesis import (DEFAULT_R_ITER, BuchiProduct, _build_plans,
                           _combine, _project_cells, consistent,
                           enumerate_accepting_lassos, find_accepting_lasso)
from mas.abstraction import ProductWTS
from mas.tba import TickClocks, from_flat_mitl, intersect

from test_abstraction_layers import LINE3

SCENARIO = {
    "name": "pair-twowindow-synth", "agents": 2, "dimension": 1,
    "edges": [[1, 2]], "v_max": 100.0,
    "workspace": {"lower": [0.0], "upper": [4.032]},
    "initial_positions": [[2.78155], [1.776972]],
    "regions": [
        {"lower": [0.672], "upper": [1.008], "services": {"1": ["port"]}},
        {"lower": [1.344], "upper": [1.68], "services": {"2": ["dock"]}}],
    "formulas": {"1": "F[0,1] port & F[1,2] port",
                 "2": "F[0,1] dock & G[0,0.5] !dock"},
    "parameters": {"safety": 1.05, "lambda": 0.5, "cell_diameter": 0.336,
                   "dt": 0.0103},
}


def _pipe(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(scenario))
    return stage_abstract(stage_bounds(load_scenario(path)))


def _automata(pipe):
    """Each agent's automaton over the letters ``synthesize`` passes."""
    return [from_flat_mitl(pipe.scenario.formulas[w.agent],
                           {w.label(c) for c in w.cells})
            for w in pipe.wts_list]


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    return _pipe(tmp_path_factory, SCENARIO)


@pytest.fixture(scope="module")
def automata(pipe):
    return _automata(pipe)


def _expand_all(system, automaton) -> int:
    product = BuchiProduct(system, automaton)
    seen = set(product.initial())
    frontier = list(seen)
    while frontier:
        for child in product.successors(frontier.pop()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return len(seen)


def test_cold_successor_expansion(benchmark, pipe, automata):
    states = benchmark(_expand_all, pipe.wts_list[0], automata[0])
    assert states > 1000


def test_lasso_enumeration(benchmark, pipe, automata):
    lassos = benchmark(lambda: enumerate_accepting_lassos(
        BuchiProduct(pipe.wts_list[0], automata[0])))
    assert len(lassos) == 12


def test_pair_lasso_enumeration(benchmark, pipe, automata):
    products = list(zip(pipe.wts_list, automata))
    counts = benchmark(lambda: [
        len(enumerate_accepting_lassos(BuchiProduct(w, auto)))
        for w, auto in products])
    assert counts == [12, 23]


def test_line3_lasso_enumeration(benchmark, tmp_path_factory):
    line3 = _pipe(tmp_path_factory, LINE3)
    products = list(zip(line3.wts_list, _automata(line3)))
    counts = benchmark(lambda: [
        len(enumerate_accepting_lassos(BuchiProduct(w, auto)))
        for w, auto in products])
    assert counts == [24, 24, 24]


@pytest.fixture(scope="module")
def lassos(pipe, automata):
    """Each agent's 12 and 23 lassos."""
    return [enumerate_accepting_lassos(BuchiProduct(w, auto))
            for w, auto in zip(pipe.wts_list, automata)]


@pytest.fixture(scope="module")
def combinations(lassos):
    """The 276 combinations of the two agents' projected lassos."""
    per_agent = [[_project_cells(lasso, None) for lasso in agent_lassos]
                 for agent_lassos in lassos]
    combos = list(itertools.product(*per_agent))
    assert len(combos) == 276
    return combos


def test_consistency_over_all_combinations(benchmark, pipe, combinations):
    def check_all():
        product = ProductWTS(pipe.wts_list, pipe.g)
        return sum(consistent(runs, product) for runs in combinations)

    assert benchmark(check_all) == 0


def test_step3_loop_over_all_combinations(benchmark, pipe, lassos):
    # every combination fails at the same move, so one walk decides all
    assert benchmark(lambda: _combine(
        lassos, ProductWTS(pipe.wts_list, pipe.g), DEFAULT_R_ITER)) \
        == (276, None)


def test_intersection_of_agent_automata(benchmark, automata):
    c_max = benchmark(lambda: intersect(*automata).c_max)
    assert c_max == 2
    assert intersect(*automata).location_count() == 728


def _counting_states(product: BuchiProduct) -> set:
    """The distinct states the search will pass to ``product.successors``,
    gathered as perfbench's tracer counts them."""
    seen = set()
    expand = product.successors

    def successors(state):
        seen.add(state)
        return expand(state)

    product.successors = successors
    return seen


def test_cold_joint_product_search(benchmark, pipe, automata):
    def search():
        product = BuchiProduct(ProductWTS(pipe.wts_list, pipe.g),
                               intersect(*automata))
        expanded = _counting_states(product)
        return find_accepting_lasso(product), len(expanded)

    lasso, expanded = benchmark(search)
    assert (len(lasso.prefix_states), len(lasso.cycle_states)) == (865, 52)
    assert expanded == 1044


def test_compile_of_the_joint_locations_step4_reaches(benchmark, pipe,
                                                      automata):
    product = BuchiProduct(ProductWTS(pipe.wts_list, pipe.g),
                           intersect(*automata))
    clocks, compiled = product.clocks, []
    segments = clocks.segments
    clocks.segments = lambda i: compiled.append(i) or segments(i)
    find_accepting_lasso(product)
    reached = [clocks.locations[i] for i in dict.fromkeys(compiled)]
    assert (len(reached), len(clocks.locations)) == (50, 128)

    def compile_reached():
        fresh = TickClocks(intersect(*automata), clocks.delta)
        return [fresh.segments(fresh.number(q)) for q in reached]

    assert benchmark(compile_reached) == [segments(clocks.number(q))
                                          for q in reached]


def test_step3_then_step4_on_one_product(benchmark, pipe, automata,
                                         combinations):
    def steps():
        product = ProductWTS(pipe.wts_list, pipe.g)
        tried = sum(consistent(runs, product) for runs in combinations)
        lasso = find_accepting_lasso(BuchiProduct(product,
                                                  intersect(*automata)))
        return tried, len(lasso.prefix_states), len(lasso.cycle_states)

    assert benchmark(steps) == (0, 865, 52)


@pytest.mark.parametrize("k", range(3, 8))
def test_translation_over_emitted_letters(benchmark, k):
    formula = parse("F[0,1] a & F[0,2] b & G[0,3] !c")
    letters = [frozenset()] + [frozenset({s}) for s in "abcdefg"[:k]]
    automaton = benchmark(from_flat_mitl, formula, letters)
    assert {automaton.labels[q] for q in automaton.locations} \
        <= set(letters)


@pytest.fixture(scope="module")
def step4_result(pipe):
    result = stage_synthesize(pipe)
    assert result.step_used == 4
    return result


def test_plans_json_writer(benchmark, pipe, step4_result):
    text = benchmark(plans_json, pipe.scenario, step4_result)
    assert text.count('"time"') == 2 * 917


def test_plans_walk(benchmark, pipe, step4_result):
    document = json.loads(plans_json(pipe.scenario, step4_result))
    benchmark(_walk, document, PLANS, "plans.json")
    assert sum(len(a["prefix"]) + len(a["cycle"])
               for a in document["agents"]) == 2 * 917


def test_plan_words_and_checks(benchmark, pipe, step4_result):
    formulas = pipe.scenario.formulas

    def check_all():
        out = []
        for plan in step4_result.plans:
            word, formula = plan.word(), formulas[plan.agent]
            out.append((evaluate(word, formula),
                        witness_instant(word, formula)))
        return out

    # neither goal is a top-level F, so neither has a witness instant
    assert benchmark(check_all) == [(True, None), (True, None)]


def test_build_plans_with_cold_certificates(benchmark, pipe, step4_result):
    aligned = [(plan.prefix_cells, plan.cycle_cells)
               for plan in step4_result.plans]
    product = ProductWTS(pipe.wts_list, pipe.g)

    def build():
        cold = [dataclasses.replace(w, _certificates={})
                for w in pipe.wts_list]
        return _build_plans(aligned, cold, product, pipe.scenario.formulas,
                            cold[0].dt)

    plans = benchmark(build)
    assert [p.prefix_length + p.cycle_length for p in plans] == [917, 917]
    assert all(c is not None for p in plans for c in p.certificates_prefix)


def test_certificates_of_the_step4_moves(benchmark, pipe, step4_result):
    moves = []
    for w, plan in zip(pipe.wts_list, step4_result.plans):
        run = plan.prefix_cells + plan.cycle_cells + plan.cycle_cells[:1]
        moves.append((w, plan.prefix_actions + plan.cycle_actions, run[1:]))

    def certify():
        return [dataclasses.replace(w, _certificates={}).certificates(
            actions, targets) for w, actions, targets in moves]

    certificates = benchmark(certify)
    assert [len(c) for c in certificates] == [917, 917]
    assert [len(set(c)) for c in certificates] == [135, 248]
    assert None not in certificates[0] + certificates[1]
