"""Acceptance sweep: one self-contained check per guarantee the package
makes, each printing a single PASS/FAIL line (run with ``pytest -s`` to see
them). The checks intentionally re-derive their expectations from scratch
rather than reusing library shortcuts, and they enforce runtime budgets.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from mas.abstraction import AgentWTS
from mas.bounds import discretization_range, theorem1_constants
from mas.cli import load_scenario, main, stage_abstract, stage_bounds
from mas.graph import (build_graph, perp_component, relative_state, spectral)
from mas.mitl import TimedWord, evaluate, parse, to_fraction, word_from_lasso
from mas.partition import cell_of
from mas.simulate import bang_bang_inputs, integrate_inputs
from mas.synthesis import BuchiProduct, find_accepting_lasso, synthesize
from mas.tba import accepts_lasso, canonical_letters, from_flat_mitl

from conftest import (batched_rk4, class_table, enabled_actions,
                      planning_example, random_connected_graph,
                      random_flat_formula, random_lasso_word,
                      reference_feedback)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" +
          (f" -- {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


# --------------------------------------------------------------------------
# 1. spectral inequalities behind the invariance bound
# --------------------------------------------------------------------------

def test_relative_state_inequalities_on_random_graphs():
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    min_slack = math.inf
    for _ in range(1000):
        g = random_connected_graph(rng)
        s = spectral(g)
        x = rng.normal(size=(g.agent_count, g.dimension)) \
            * 10.0 ** float(rng.integers(-2, 3))
        perp = perp_component(g, x).reshape(g.agent_count, g.dimension)
        lhs = np.linalg.norm(g.laplacian @ x, axis=0)
        rhs = s.lambda2 * np.linalg.norm(perp, axis=0)
        min_slack = min(min_slack, float(np.min(lhs - rhs)))
        factor = math.sqrt(2 * (g.agent_count - 1))
        min_slack = min(min_slack, float(
            np.linalg.norm(perp) - np.linalg.norm(relative_state(g, x)) / factor))
    elapsed = time.perf_counter() - start
    _report("laplacian/relative-state inequalities",
            min_slack >= -1e-9 and elapsed < 10.0,
            f"1000 random graphs, min slack {min_slack:.3e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. invariance of the relative-state ball under admissible inputs
# --------------------------------------------------------------------------

def test_disturbed_consensus_enters_and_stays_in_the_bound():
    rng = np.random.default_rng(20240902)
    g = build_graph(3, [(1, 2), (2, 3)])
    report = theorem1_constants(spectral(g), g, v_max=1.0, safety=1.05)
    bound = report.r_bar + 1e-6
    steps, dt = 400, 0.5  # horizon 200 time units
    start = time.perf_counter()
    worst_peak_after_entry = 0.0
    for trial in range(50):
        x0 = rng.normal(size=(3, 1))
        scale = 3.0 if trial % 2 else 0.3
        rel = float(np.linalg.norm(relative_state(g, x0)))
        x0 *= scale * report.r_bar / rel
        inputs = bang_bang_inputs(g, 1.0, steps, rng)
        traj = integrate_inputs(g, x0, inputs, dt, substeps=8)
        norms = traj.relative_norms(g)
        inside = np.nonzero(norms <= bound)[0]
        assert inside.size, "trajectory never entered the bound"
        tail = norms[inside[0]:]
        worst_peak_after_entry = max(worst_peak_after_entry, float(tail.max()))
        assert np.all(tail <= bound), "trajectory left the bound after entry"
    elapsed = time.perf_counter() - start
    _report("invariance of the relative-state bound",
            worst_peak_after_entry <= bound and elapsed < 60.0,
            f"50 trials x 200s, bound {report.r_bar:.4g}, worst tail "
            f"{worst_peak_after_entry:.4g}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. sampling-interval collapse at the diameter supremum
# --------------------------------------------------------------------------

def test_sampling_interval_collapses_at_the_diameter_supremum():
    g = build_graph(2, [(1, 2)])
    report = theorem1_constants(spectral(g), g, v_max=1.0, safety=1.05,
                                lambda_reach=0.5, r_bar_override=1.1)
    sup = discretization_range(report).d_max_sup
    disc = discretization_range(report, chosen_d_max=sup)
    target = (1.0 - 0.5) * 1.0 / (2.0 * report.m_bound * report.l_total)
    gap = abs(disc.dt_hi - disc.dt_lo)
    err = max(abs(disc.dt_lo - target), abs(disc.dt_hi - target))
    _report("interval collapse at the diameter supremum",
            gap < 1e-12 and err < 1e-12,
            f"gap {gap:.2e}, offset from (1-l)v/(2ML) {err:.2e}")


# --------------------------------------------------------------------------
# 4. every abstract transition survives adversarial execution
# --------------------------------------------------------------------------

def test_every_abstract_transition_survives_adversarial_execution():
    rng = np.random.default_rng(20240904)
    start = time.perf_counter()
    pipe = stage_abstract(stage_bounds(
        load_scenario(SCENARIOS / "pair_line.json")))
    sc, g, decomp = pipe.scenario, pipe.g, pipe.decomp
    dt, v_max, samples = pipe.disc.chosen_dt, sc.v_max, 200
    checked = contained = 0
    for w in pipe.wts_list:
        own_idx = w.agent - 1
        nbr_idx = [a - 1 for a in w.neighbor_agents]
        for action, targets in enabled_actions(w).items():
            boxes = [decomp.bounds(c) for c in action]
            for target in targets:
                positions = np.empty((samples, g.agent_count, g.dimension))
                (lo, hi) = boxes[0]
                positions[:, own_idx] = rng.uniform(lo, hi,
                                                    (samples, g.dimension))
                for k, j in enumerate(nbr_idx):
                    lo, hi = boxes[1 + k]
                    positions[:, j] = rng.uniform(lo, hi,
                                                  (samples, g.dimension))
                inputs = bang_bang_inputs(g, v_max, samples, rng)
                center = decomp.center(target)
                for b in range(samples):
                    v, _ = reference_feedback(g, w.agent, positions[b],
                                              center, dt, v_max)
                    inputs[b, own_idx] = v
                ends = batched_rk4(g, positions, inputs, dt, substeps=8)
                checked += samples
                contained += sum(
                    cell_of(decomp, ends[b, own_idx]) == target
                    for b in range(samples))
    elapsed = time.perf_counter() - start
    _report("adversarial validation of abstract transitions",
            checked > 0 and contained == checked and elapsed < 300.0,
            f"{checked // samples} transitions x {samples} samples, "
            f"{contained}/{checked} endpoints contained, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 5. evaluator and template automata agree on random flat formulas
# --------------------------------------------------------------------------

def test_word_evaluator_agrees_with_template_automata():
    rng = np.random.default_rng(20240905)
    agreements = satisfied = 0
    for _ in range(500):
        formula = random_flat_formula(rng)
        # r is a service outside the automaton's alphabet
        word = random_lasso_word(rng, names=("p", "q", "r"))
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        by_eval = evaluate(word, formula)
        by_auto = accepts_lasso(auto, word)
        agreements += by_eval is by_auto
        satisfied += by_eval
    _report("evaluator/automaton agreement on random formulas",
            agreements == 500,
            f"{agreements}/500 agree ({satisfied} satisfied, "
            f"{500 - satisfied} not)")


# --------------------------------------------------------------------------
# 6. deadline and safety example words
# --------------------------------------------------------------------------

def test_deadline_and_safety_example_words():
    green, none = frozenset({"green"}), frozenset()
    r1 = TimedWord(
        prefix=((green, Fraction(0)), (none, Fraction(1)),
                (green, Fraction(3)), (none, Fraction(4))),
        cycle=((green, Fraction(2)), (none, Fraction(1))))
    r2 = TimedWord(
        prefix=((green, Fraction(0)), (none, Fraction(1)),
                (none, Fraction(5, 2)), (none, Fraction(3))),
        cycle=((none, Fraction(3, 2)), (none, Fraction(1))))
    deadline, safety = parse("F[2,5] green"), parse("G[0,5] green")
    ok = (evaluate(r1, deadline)
          and accepts_lasso(from_flat_mitl(deadline), r1)
          and not evaluate(r2, safety)
          and not accepts_lasso(from_flat_mitl(safety), r2))
    _report("deadline met / safety violated example words", ok,
            "r1 satisfies F[2,5] green, r2 falsifies G[0,5] green, "
            "evaluator and automata agree")


# --------------------------------------------------------------------------
# 7. granted-table scenario meets all goals
# --------------------------------------------------------------------------

def test_granted_table_scenario_meets_all_goals():
    wts_list, g, formulas = planning_example(1.0)
    result = synthesize(wts_list, g, formulas)
    ok = result.step_used == 3
    ok &= [p.witness_time for p in result.plans] == [3, 3, 3]
    for plan, w in zip(result.plans, wts_list):
        ok &= evaluate(plan.word(), formulas[w.agent])
    # slower sampling realizes the per-agent instants 3dt, 2dt, 3dt
    wts_list, g, formulas = planning_example(1.5)
    slower = synthesize(wts_list, g, formulas)
    ok &= [p.witness_time for p in slower.plans] \
        == [Fraction(9, 2), 3, Fraction(9, 2)]
    for plan, w in zip(slower.plans, wts_list):
        ok &= evaluate(plan.word(), formulas[w.agent])
    _report("granted-table planning example", bool(ok),
            "dt=1: instants (3,3,3) all in window; dt=1.5: (3dt,2dt,3dt) "
            "= (4.5,3,4.5)")


# --------------------------------------------------------------------------
# 8. product emptiness matches exhaustive word search
# --------------------------------------------------------------------------

def _random_instance(rng):
    n = int(rng.integers(3, 9))
    cells = tuple(range(n))
    labels = {}
    for c in cells:
        r = rng.random()
        if r < 0.5:
            continue
        labels[c] = (frozenset({"p"}) if r < 0.7 else
                     frozenset({"q"}) if r < 0.9 else frozenset({"p", "q"}))
    transitions = {}
    for c in cells:
        k = int(rng.integers(1, 3))
        targets = rng.choice(n, size=min(k, n), replace=False)
        transitions[(c,)] = tuple(sorted(int(t) for t in targets))
    wts = AgentWTS(agent=1, cells=cells, initial=0, dt=1.0, labels=labels,
                   transitions=class_table(transitions))
    return wts, random_flat_formula(rng)


def _all_lasso_words(wts, max_prefix=6, max_cycle=4, cap=4000):
    """Every distinct word of a lasso run with bounded prefix/cycle length."""
    succ = {c: wts.transitions.enabled(c, ()) for c in wts.cells}
    words = set()
    stems = [(0,)]  # breadth-first stems from the initial cell
    frontier = [(0,)]
    for _ in range(max_prefix - 1):
        frontier = [s + (t,) for s in frontier for t in succ[s[-1]]]
        stems += frontier
    for stem in stems:
        anchor = stem[-1]
        cycles = [(anchor,)]
        partial = [(anchor,)]
        for _ in range(max_cycle - 1):
            partial = [p + (t,) for p in partial for t in succ[p[-1]]]
            cycles += partial
        for cyc in cycles:
            if anchor not in succ[cyc[-1]]:
                continue
            letters_p = tuple(wts.label(c) for c in stem[:-1])
            letters_c = tuple(wts.label(c) for c in (stem[-1],) + cyc[1:])
            words.add((letters_p, letters_c))
            if len(words) >= cap:
                return words
    return words


def test_product_emptiness_matches_exhaustive_word_search():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    with_plan = without = 0
    for _ in range(20):
        wts, formula = _random_instance(rng)
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        lasso = find_accepting_lasso(BuchiProduct(wts, auto))
        words = _all_lasso_words(wts)
        sample = itertools.islice(sorted(words), 25)
        for lp, lc in sample:
            w = word_from_lasso(list(lp), list(lc), 1)
            assert accepts_lasso(auto, w) is evaluate(w, formula)
        any_satisfying = any(
            evaluate(word_from_lasso(list(lp), list(lc), 1), formula)
            for lp, lc in words)
        if lasso is None:
            without += 1
            assert not any_satisfying, \
                "search reported empty, but a satisfying run exists"
        else:
            with_plan += 1
            cells_p = [s[0] for s in lasso.prefix_states]
            cells_c = [s[0] for s in lasso.cycle_states]
            w = word_from_lasso([wts.label(c) for c in cells_p],
                                [wts.label(c) for c in cells_c], 1)
            assert evaluate(w, formula) and accepts_lasso(auto, w), \
                "found lasso's word does not satisfy the formula"
            assert any_satisfying, \
                "exhaustive enumeration missed the satisfying run"
    elapsed = time.perf_counter() - start
    _report("product emptiness vs exhaustive word search",
            with_plan >= 8 and without >= 8,
            f"20 instances: {with_plan} satisfiable, {without} empty, "
            f"both directions agree, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. plane scenario: synthesize, execute, verify all goals
# --------------------------------------------------------------------------

def _word_from_visits(visits):
    prefix = [(frozenset(), Fraction(0))]
    for v in visits:
        prefix.append((frozenset(v["services"]), to_fraction(v["time"])))
    return TimedWord(tuple(prefix), ((frozenset(), Fraction(1)),))


def test_plane_scenario_synthesizes_and_simulates_correctly(tmp_path):
    start = time.perf_counter()
    scenario = str(SCENARIOS / "path3_plane.json")
    out = tmp_path / "run"
    assert main(["synthesize", "--scenario", scenario,
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    product_states = report["abstraction"]["cells"] ** 3
    assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    services = json.loads((out / "services.json").read_text())
    sc = load_scenario(scenario)
    satisfied = 0
    for agent in (1, 2, 3):
        word = _word_from_visits(services[str(agent)])
        satisfied += evaluate(word, sc.formulas[agent])
    elapsed = time.perf_counter() - start
    _report("plane scenario end to end",
            satisfied == 3 and product_states <= 10_000 and elapsed < 600.0,
            f"3/3 executed goal words satisfied, product {product_states} "
            f"states, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 10. synthesis output is deterministic
# --------------------------------------------------------------------------

def test_plan_synthesis_is_deterministic(tmp_path):
    scenario = str(SCENARIOS / "path3_plane.json")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["synthesize", "--scenario", scenario,
                     "--out", str(out)]) == 0
        blobs.append((out / "plans.json").read_bytes())
    _report("byte-identical plans across reruns", blobs[0] == blobs[1],
            f"two runs, {len(blobs[0])} bytes each")
