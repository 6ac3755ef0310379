"""The tick-layered lasso sweep against the breadth-first search it replaced.

``enumerate_accepting_lassos`` sweeps the product's tick layers of
(state, location) pairs instead of searching its states with one global
parent map. The generic enumerator (``conftest.shortest_lassos``, with
accepting locations expanded first in each layer) is the oracle: both must
return the same lassos, state for state and in the same order, on random
instances, on the benchmark's scenarios and on the shipped ones, and raise
``BudgetExceeded`` at the same caps.

Below the saturated tick the sweep replays layers that repeat instead of
expanding them again. The sweep as it was before that, every layer
expanded (``_unreplayed_layers``), is the oracle on random products whose
windows are long against the sampling period: the same layers, parents
and lassos, and ``BudgetExceeded`` at the same caps.

``BuchiProduct.moves`` keeps one answer per (state, location, guard
segment of the location), filled on first use; since searches ask for
ticks in any order, it is checked on shuffled ticks against a direct
filter of the system's successors and the automaton's edges by
``tick_range``, and so are the segment tables of ``TickClocks.segments``
at every tick.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mas import _ndfs
from mas.cli import load_scenario, stage_abstract, stage_bounds
from mas.errors import BudgetExceeded
from mas.synthesis import (BuchiProduct, _tick_layers,
                           enumerate_accepting_lassos)
from mas.tba import canonical_letters, from_flat_mitl

from conftest import bench_families, random_flat_formula, shortest_lassos
from test_tick_equivalence import (_random_instances, _random_timed_system,
                                   _scaled)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _oracle(product: BuchiProduct, max_states=None):
    accepting = product.clocks.accepting
    return shortest_lassos(product.initial(), product.successors,
                           product.accepting, max_states=max_states,
                           priority=lambda s: not accepting[s[1]])


def _outcome(search, product: BuchiProduct, max_states):
    try:
        return search(product, max_states=max_states)
    except BudgetExceeded as exc:
        return str(exc)


def _state_count(product: BuchiProduct) -> int:
    seen, frontier = set(product.initial()), list(product.initial())
    while frontier:
        for child in product.successors(frontier.pop()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return len(seen)


def test_sweep_matches_the_bfs_on_random_instances():
    lassos = budgets = 0
    for wts, auto in _random_instances():
        got = enumerate_accepting_lassos(BuchiProduct(wts, auto))
        assert got == _oracle(BuchiProduct(wts, auto))
        lassos += len(got)
        count = _state_count(BuchiProduct(wts, auto))
        for cap in range(1, count + 2):
            want = _outcome(_oracle, BuchiProduct(wts, auto), cap)
            assert _outcome(enumerate_accepting_lassos,
                            BuchiProduct(wts, auto), cap) == want, cap
            budgets += isinstance(want, str)
    assert lassos > 100 and budgets > 1000


def _unreplayed_layers(product: BuchiProduct, max_states=None):
    """The layer sweep with every layer expanded: (layers, parents)."""
    clocks = product.clocks
    sat, accepting = clocks.sat, clocks.accepting
    memo, moves = product.memo, product.moves
    layer = list(dict.fromkeys((s, q) for s, q, _ in product.initial()))
    layers, parents = [layer], [None]
    count = len(layer)
    _ndfs._check_budget(count, max_states)
    shared: set = set()
    while layer:
        d = len(layers)
        k = d if d < sat else sat
        seen = set() if d < sat else shared
        nxt, up = [], []
        order = [i for i, pair in enumerate(layer) if accepting[pair[1]]]
        order += [i for i, pair in enumerate(layer) if not accepting[pair[1]]]
        at: list = [None] * len(clocks.locations)
        for i in order:
            s, q = layer[i]
            by_state = at[q]
            if by_state is None:
                segment_of, _, by_segment = memo(q)
                by_state = at[q] = by_segment[segment_of[k]]
            pairs = by_state.get(s)
            if pairs is None:
                pairs = moves(s, q, k)
            for child in pairs:
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    up.append(i)
        count += len(nxt)
        _ndfs._check_budget(count, max_states)
        layers.append(nxt)
        parents.append(up)
        layer = nxt
    return layers, parents


def _unreplayed_lassos(product: BuchiProduct, max_states=None):
    """``enumerate_accepting_lassos`` over `_unreplayed_layers`."""
    layers, parents = _unreplayed_layers(product, max_states)
    sat, accepting = product.clocks.sat, product.clocks.accepting
    found = []
    for d in range(sat, len(layers)):
        for i, (s, q) in enumerate(layers[d]):
            if not accepting[q]:
                continue
            loop = _ndfs._shortest_loop((s, q, sat), product.successors)
            if loop is None:
                continue
            stem, p = [], i
            for j in range(d - 1, -1, -1):
                p = parents[j + 1][p]
                s2, q2 = layers[j][p]
                stem.append((s2, q2, j if j < sat else sat))
            stem.reverse()
            found.append((d, len(loop), _ndfs.Lasso(tuple(stem), loop)))
    found.sort(key=lambda item: item[:2])
    return [item[2] for item in found]


def _long_window_instances():
    """40 (system, automaton) pairs whose windows, scaled by 3 to 6, are
    long against the system's period, so ``sat`` reaches 100 and more."""
    rng = np.random.default_rng(7025)
    for _ in range(40):
        wts = _random_timed_system(rng)
        formula = _scaled(random_flat_formula(rng),
                          Fraction(int(rng.integers(3, 7))))
        yield wts, from_flat_mitl(formula,
                                  letters=canonical_letters({"p", "q"}))


def test_replayed_sweep_matches_the_full_sweep_on_long_windows():
    replayed = longest = budgets = 0
    for wts, auto in _long_window_instances():
        layers, parents = _tick_layers(BuchiProduct(wts, auto), None)
        assert (layers, parents) \
            == _unreplayed_layers(BuchiProduct(wts, auto))
        assert enumerate_accepting_lassos(BuchiProduct(wts, auto)) \
            == _unreplayed_lassos(BuchiProduct(wts, auto))
        # a replayed layer is the very list object of an earlier depth
        shared = len(layers) - len({id(layer) for layer in layers})
        replayed += shared > 0
        longest = max(longest, shared)
        count = _state_count(BuchiProduct(wts, auto))
        for cap in range(1, count + 2):
            want = _outcome(_unreplayed_lassos, BuchiProduct(wts, auto), cap)
            assert _outcome(enumerate_accepting_lassos,
                            BuchiProduct(wts, auto), cap) == want, cap
            budgets += isinstance(want, str)
    assert replayed > 10 and longest > 50 and budgets > 1000, \
        (replayed, longest, budgets)


def _scenarios():
    """The benchmark's families at seeds 0-2, then the shipped scenarios."""
    families = bench_families()
    cases = [pytest.param(families[family](seed).scenario,
                          id=f"{family}-{seed}")
             for family in sorted(families) for seed in range(3)]
    return cases + [pytest.param(json.loads(path.read_text()), id=path.name)
                    for path in sorted(SCENARIOS.glob("*.json"))]


@pytest.mark.parametrize("scenario", _scenarios())
def test_sweep_matches_the_bfs_on_scenarios(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    pipe = stage_abstract(stage_bounds(load_scenario(path)))
    for w in pipe.wts_list:
        # the automaton synthesize builds: over the letters w's cells emit
        auto = from_flat_mitl(pipe.scenario.formulas[w.agent],
                              {w.label(c) for c in w.cells})
        assert enumerate_accepting_lassos(BuchiProduct(w, auto)) \
            == _oracle(BuchiProduct(w, auto))


def _direct_edges(clocks, q: int, k: int) -> list:
    """(target letter, target number) of location number q's edges whose
    guard admits tick k, in edge order, filtered straight from
    ``edges_from`` by ``tick_range``."""
    auto = clocks.automaton
    admitted = []
    for edge in auto.edges_from[clocks.locations[q]]:
        lo, hi = clocks.tick_range(edge.guard)
        if lo <= k <= hi:
            admitted.append((auto.labels[edge.target],
                             clocks.number(edge.target)))
    return admitted


def _direct_moves(product: BuchiProduct, s, q: int, k: int) -> list:
    """(s2, target) pairs of (s, q) whose guard admits tick k, in
    successor order and then edge order."""
    system = product.system
    edges = _direct_edges(product.clocks, q, k)
    return [(s2, target) for s2 in system.successors(s)
            for letter, target in edges if letter == system.label(s2)]


def test_moves_answers_shuffled_ticks_as_a_direct_filter():
    rng = np.random.default_rng(2210)
    hits = fills = 0
    for wts, auto in _random_instances():
        product = BuchiProduct(wts, auto)
        clocks = product.clocks
        locations = [clocks.number(q) for q in auto.locations]
        # every tick up to sat, so every guard bound in range, twice over
        calls = [(s, q, k) for s in wts.cells for q in locations
                 for k in range(clocks.sat + 1)] * 2
        for j in rng.permutation(len(calls)):
            s, q, k = calls[j]
            segment_of = clocks.segments(q)[0]
            segment = segment_of[k]
            by_state = product.memo(q)[2][segment]
            filled = s in by_state
            got = product.moves(s, q, k)
            assert got == _direct_moves(product, s, q, k), (s, q, k)
            assert by_state[s] is got
            if filled:
                hits += 1
                continue
            fills += 1
            # an answer holds for every tick of its segment
            assert all(_direct_moves(product, s, q, t) == got
                       for t, other in enumerate(segment_of)
                       if other == segment), (s, q, k)
    assert hits > 10000 and fills > 1000, (hits, fills)


def test_segment_tables_match_a_direct_filter_at_every_tick():
    locations = segments = 0
    for wts, auto in _random_instances():
        clocks = BuchiProduct(wts, auto).clocks
        numbers = [clocks.number(q) for q in auto.locations]
        for q in numbers:
            segment_of, tables = clocks.segments(q)
            assert len(segment_of) == clocks.sat + 1
            # segments are consecutive runs of ticks, numbered from 0
            assert segment_of[0] == 0 and all(
                b - a in (0, 1) for a, b in zip(segment_of, segment_of[1:]))
            assert segment_of[-1] == len(tables) - 1
            for k, segment in enumerate(segment_of):
                want: dict = {}
                for letter, target in _direct_edges(clocks, q, k):
                    want.setdefault(letter, []).append(target)
                assert tables[segment] == want, (q, k)
            locations += 1
            segments += len(tables)
    assert locations > 1000 and segments > 2 * locations, \
        (locations, segments)
