"""Fast paths of the timed search against the code they replaced.

Each test keeps a local copy of the earlier implementation as its oracle:

* the exact-rational (Fraction) timed product, against the integer-tick
  ``BuchiProduct``: successor lists must agree state for state and in order
  once tick k is read as k*delta and the saturated tick as infinity;
* the searches seeded at every accepting location, with a Tarjan pass
  pruning loop anchors (``test_state_graph_search``'s oracle), against
  ``BuchiProduct.accepting``, which seeds only the saturated tick;
* term-by-term bound checks, against the one tick range a conjoined guard
  compiles to;
* the per-move (target, duration) generator seen through the cell view
  that quotiented neighbor assumptions away, against
  ``AgentWTS.successors``;
* the eager automaton intersection, against the lazy ``intersect``, asked
  location by location and then as a whole;
* automata over every subset of the agents' services, against those over
  the letters the agents' cells emit, which ``synthesize`` builds;
* the alignment-based consistency check, against the early-exit
  ``consistent``;
* the product whose states hold location objects and whose successors
  scan the automaton's edges, against ``BuchiProduct``'s location numbers
  and compiled (state, location) rows, on single agents and on joint
  products of two and three agents;
* the step-4 search over whole successor lists, which fill the memo, and
  the eager intersection, against ``BuchiProduct.successors`` making each
  child on the fly over the lazy ``intersect``, on agents abstracted on a
  path or a star;
* step 3 walking every combination from position 0, against
  ``synthesis._combine``, which counts a combination that agrees with the
  last failed walk up to its disallowed move as tried without walking it,
  on lassos cut from one cell sequence and on agents abstracted on a path
  or a star, through ``synthesize`` as well;
* guard segments compiled from the joint edges and their conjoined
  guards, against ``TickClocks.segments`` building an intersection's rows
  from its parts' rows, on two agents' nested intersections;
* an intersection's acceptance tested location first, against
  ``_Accepting`` testing the phase and the first part's acceptance first,
  on the same nested intersections, locations or not;
* children filtered straight from ``system.successors`` and
  ``system.label``, against ``BuchiProduct``'s labelled successor lists,
  before and after ``moves`` fills a state's memo entry.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mas import _ndfs, mitl, synthesis
from mas.abstraction import AgentWTS, ProductWTS, build_agent_wts
from mas.errors import BudgetExceeded, LengthMismatch, Unsatisfiable
from mas.graph import build_graph
from mas.mitl import to_fraction
from mas.partition import LabeledRegion
from mas.synthesis import (BuchiProduct, _agent_actions, _combine,
                           _project_cells, align_runs, consistent,
                           enumerate_accepting_lassos, find_accepting_lasso,
                           synthesize)
from mas.tba import (Edge, Guard, TRUE_GUARD, TickClocks, TimedAutomaton,
                     accepts_lasso, canonical_letters, from_flat_mitl,
                     intersect)

from conftest import (class_table, enabled_actions, four_state_timed_wts,
                      random_connected_graph, random_flat_formula,
                      random_lasso_word, shortest_lassos, universal_acceptor)
from test_abstraction import _grid_system
from test_state_graph_search import (_payload_loop_capable,
                                     payload_find_accepting_cycle,
                                     payload_shortest_lassos)

INF = math.inf


# --------------------------------------------------------------------------
# oracle: the exact-rational timed product
# --------------------------------------------------------------------------

def _admits(bound: mitl.Interval, value) -> bool:
    if value is not INF:
        if value < bound.lo or (bound.lo_open and value == bound.lo):
            return False
    if bound.hi is not None:
        if value is INF or value > bound.hi \
                or (bound.hi_open and value == bound.hi):
            return False
    return True


def _satisfied(guard: Guard, value) -> bool:
    return all(_admits(bound, value) for bound in guard.terms)


class FractionProduct:
    """Product with the clock as a Fraction, saturated to inf above c_max."""

    def __init__(self, system, automaton: TimedAutomaton):
        self.system = system
        self.automaton = automaton
        self.c_max = automaton.c_max

    def _advance(self, value, delay):
        if value is INF:
            return INF
        value += delay
        return INF if value > self.c_max else value

    def initial(self):
        auto = self.automaton
        return [(s, q, Fraction(0)) for s in self.system.initial_states()
                for q in auto.initial
                if auto.labels[q] == self.system.label(s)]

    def successors(self, state):
        auto = self.automaton
        s, q, value = state
        result = []
        for s2 in self.system.successors(s):
            moved = self._advance(value, to_fraction(self.system.dt))
            for edge in auto.edges_from[q]:
                if auto.labels[edge.target] != self.system.label(s2):
                    continue
                if not _satisfied(edge.guard, moved):
                    continue
                result.append((s2, edge.target, moved))
        return result

    def accepting(self, state):
        return state[1] in self.automaton.accepting


def _as_fractions(product: BuchiProduct, state):
    s, q, k = state
    sat, delta = product.clocks.sat, product.clocks.delta
    return s, product.location(q), INF if k == sat else k * delta


def _assert_same_range(clocks: TickClocks, guard: Guard) -> tuple[int, int]:
    """The guard's tick range admits k exactly when every term admits
    k*delta, the saturated tick read as infinity."""
    lo, hi = clocks.tick_range(guard)
    for k in range(clocks.sat + 1):
        value = INF if k == clocks.sat else k * clocks.delta
        assert (lo <= k <= hi) == _satisfied(guard, value), (guard, k)
    return lo, hi


def _assert_same_graph(fast: BuchiProduct, oracle: FractionProduct):
    """Both products expand the same states into the same ordered lists."""
    starts = fast.initial()
    assert [_as_fractions(fast, s) for s in starts] == oracle.initial()
    seen, frontier = set(starts), list(starts)
    while frontier:
        state = frontier.pop()
        got = list(fast.successors(state))
        want = oracle.successors(_as_fractions(fast, state))
        assert [_as_fractions(fast, c) for c in got] == want
        for child in got:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return len(seen)


def _cells(lasso):
    if lasso is None:
        return None
    return ([s[0] for s in lasso.prefix_states],
            [s[0] for s in lasso.cycle_states])


def _object_lassos(oracle) -> list:
    """``enumerate_accepting_lassos`` over a product whose states hold
    location objects: accepting locations expand first in each layer."""
    accepting = oracle.automaton.accepting
    return shortest_lassos(oracle.initial(), oracle.successors,
                           oracle.accepting,
                           priority=lambda s: s[1] not in accepting)


def _assert_same_lassos(fast: BuchiProduct, oracle: FractionProduct):
    assert _cells(find_accepting_lasso(fast)) \
        == _cells(find_accepting_lasso(oracle))
    assert [_cells(l) for l in enumerate_accepting_lassos(fast)] \
        == [_cells(l) for l in _object_lassos(oracle)]


def _scaled(formula, factor: Fraction):
    """The formula with every window endpoint multiplied by ``factor``."""
    def iv(i: mitl.Interval) -> mitl.Interval:
        return mitl.Interval(i.lo * factor,
                             None if i.hi is None else i.hi * factor,
                             lo_open=i.lo_open, hi_open=i.hi_open)

    match formula:
        case mitl.Eventually(i, arg):
            return mitl.Eventually(iv(i), arg)
        case mitl.Always(i, arg):
            return mitl.Always(iv(i), arg)
        case mitl.Next(i, arg):
            return mitl.Next(iv(i), arg)
        case mitl.Until(i, left, right):
            return mitl.Until(iv(i), left, right)
        case mitl.Not(arg):
            return mitl.Not(_scaled(arg, factor))
        case mitl.And(left, right):
            return mitl.And(_scaled(left, factor), _scaled(right, factor))
    return formula


_PERIODS = (0.25, 0.5, 0.75, 1.0, 1.5, 0.3, 0.45)


def _random_timed_system(rng) -> AgentWTS:
    """Small single-agent system with random labels and a random period."""
    n = int(rng.integers(2, 6))
    cells = tuple(range(n))
    labels = {}
    for c in cells:
        r = rng.random()
        if r >= 0.4:
            labels[c] = (frozenset({"p"}) if r < 0.65 else
                         frozenset({"q"}) if r < 0.9 else
                         frozenset({"p", "q"}))
    dt = float(rng.choice(_PERIODS))
    transitions = {}
    for c in cells:
        k = int(rng.integers(1, 4))
        targets = tuple(sorted(int(t) for t in
                               rng.choice(n, size=min(k, n), replace=False)))
        transitions[(c,)] = targets
    return AgentWTS(agent=1, cells=cells, initial=0, dt=dt, labels=labels,
                    transitions=class_table(transitions))


def _random_instances():
    """150 (system, automaton) pairs over the services p and q."""
    rng = np.random.default_rng(7001)
    # scale factors put window ends on and off the tick lattice
    factors = (Fraction(1), Fraction(7, 10), Fraction(1, 3), Fraction(3, 4))
    for trial in range(150):
        wts = four_state_timed_wts() if trial % 10 == 0 \
            else _random_timed_system(rng)
        formula = _scaled(random_flat_formula(rng),
                          factors[int(rng.integers(len(factors)))])
        yield wts, from_flat_mitl(formula,
                                  letters=canonical_letters({"p", "q"}))


def test_tick_product_matches_the_fraction_product_on_random_instances():
    states = 0
    for wts, auto in _random_instances():
        fast, oracle = BuchiProduct(wts, auto), FractionProduct(wts, auto)
        states += _assert_same_graph(fast, oracle)
        _assert_same_lassos(BuchiProduct(wts, auto), oracle)
    assert states > 1000


def _with_payloads(successors):
    return lambda state: [(None, child) for child in successors(state)]


def _raw_states(lasso):
    return None if lasso is None else (tuple(lasso.prefix_states),
                                       tuple(lasso.cycle_states))


def test_only_saturated_accepting_states_recur():
    # The clock never decreases, so Tarjan's loop-capable states all sit at
    # the saturated tick, and searches seeded there find what searches
    # seeded at every accepting location found.
    transient = cyclic = lassos = 0
    for wts, auto in _random_instances():
        product = BuchiProduct(wts, auto)
        succ = _with_payloads(product.successors)
        by_location = lambda state: \
            product.location(state[1]) in auto.accepting
        seen, frontier = set(product.initial()), list(product.initial())
        while frontier:
            for child in product.successors(frontier.pop()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        capable = _payload_loop_capable(list(seen), succ)
        assert all(k == product.clocks.sat for _, _, k in capable)
        # seeds: every accepting state on a cycle, none below saturation
        seeds = set(filter(product.accepting, seen))
        assert set(filter(by_location, capable)) <= seeds
        assert all(by_location(s) and s[2] == product.clocks.sat
                   for s in seeds)
        transient += sum(by_location(s) and s[2] < product.clocks.sat
                         for s in seen)
        cyclic += len(capable)

        want = payload_shortest_lassos(
            product.initial(), succ, by_location,
            priority=lambda state: not by_location(state))
        got = enumerate_accepting_lassos(product)
        assert [_raw_states(l) for l in got] == [_raw_states(l) for l in want]
        lassos += len(got)
        assert _raw_states(find_accepting_lasso(product)) == _raw_states(
            payload_find_accepting_cycle(product.initial(), succ, by_location))
    assert transient > 300 and cyclic > 100 and lassos > 100


@pytest.mark.parametrize("lo_open", [False, True])
@pytest.mark.parametrize("hi_open", [False, True])
@pytest.mark.parametrize("lo,hi", [("2", "5"), ("2.5", "3.5"), ("1.2", "2.9"),
                                   ("0", "1/3")])
def test_tick_ranges_at_exact_ties(lo, hi, lo_open, hi_open):
    # a period of 1/2 is the tick: some window ends fall on the lattice,
    # others between two ticks
    wts = four_state_timed_wts(dt=0.5)
    interval = mitl.Interval(Fraction(lo), Fraction(hi), lo_open=lo_open,
                             hi_open=hi_open)
    for formula in (mitl.Eventually(interval, mitl.Atom("green")),
                    mitl.Always(interval, mitl.Atom("green")),
                    mitl.Until(interval, mitl.Not(mitl.Atom("green")),
                               mitl.Atom("green"))):
        auto = from_flat_mitl(formula, letters=canonical_letters({"green"}))
        fast = BuchiProduct(wts, auto)
        assert fast.clocks.delta == Fraction(1, 2)
        for edge in auto.edges:
            _assert_same_range(fast.clocks, edge.guard)
        oracle = FractionProduct(wts, auto)
        _assert_same_graph(fast, oracle)
        _assert_same_lassos(BuchiProduct(wts, auto), oracle)


_CONSTANTS = tuple(Fraction(c) for c in
                   ("0", "1/2", "1", "6/5", "3/2", "2", "7/3", "5/2", "4"))


def _random_bound(rng) -> mitl.Interval:
    lo, hi = sorted(_CONSTANTS[int(i)]
                    for i in rng.integers(len(_CONSTANTS), size=2))
    return mitl.Interval(lo=lo, lo_open=bool(rng.random() < 0.5),
                         hi=None if rng.random() < 0.2 else hi,
                         hi_open=bool(rng.random() < 0.5))


def test_conjoined_guards_compile_to_the_intersection_of_their_terms():
    rng = np.random.default_rng(7005)
    seen = {"empty": 0, "strict tie": 0, "non-strict tie": 0, "unbounded": 0}
    for _ in range(500):
        guard = TRUE_GUARD
        for _ in range(int(rng.integers(1, 4))):
            guard = guard.conjoin(Guard((_random_bound(rng),)))
        auto = TimedAutomaton(["a"], ["a"], [Edge("a", guard, "a")], ["a"],
                              {"a": frozenset()}, frozenset())
        delta = Fraction(str(rng.choice(["1/2", "1/4", "3/10", "1"])))
        clocks = TickClocks(auto, delta)
        lo, hi = _assert_same_range(clocks, guard)
        seen["empty"] += lo > hi
        for bound in guard.terms:
            for c, strict in ((bound.lo, bound.lo_open),
                              (bound.hi, bound.hi_open)):
                if c is not None and (c / delta).denominator == 1:
                    seen["strict tie" if strict else "non-strict tie"] += 1
            seen["unbounded"] += bound.hi is None
    assert min(seen.values()) > 0, seen


# --------------------------------------------------------------------------
# oracle: the cell view over (target, duration) moves
# --------------------------------------------------------------------------

def pair_successors(wts: AgentWTS):
    """(target, duration) of every move leaving a cell, action by action."""
    by_source: dict[int, list] = {}
    for action, targets in enabled_actions(wts).items():
        by_source.setdefault(action[0], []).append(targets)

    def successors(cell):
        for targets in by_source.get(cell, ()):
            for target in targets:
                yield target, wts.dt
    return successors


def cell_view_successors(wts: AgentWTS):
    """Distinct targets per cell, movement first and the self-loop last."""
    moves = pair_successors(wts)

    def successors(cell):
        first: dict[int, float] = {}
        for target, duration in moves(cell):
            first.setdefault(target, duration)
        return tuple(sorted(first, key=lambda t: (t == cell, t)))
    return successors


def _random_neighbor_table(rng) -> AgentWTS:
    """Random table with overlapping targets, inserted in shuffled order."""
    cells = tuple(range(1, int(rng.integers(2, 6)) + 1))
    degree = int(rng.integers(0, 3))
    actions = list(itertools.product(cells, repeat=degree + 1))
    rng.shuffle(actions)
    table = {}
    for action in actions:
        if rng.random() < 0.3:
            continue  # some sources end up with no action at all
        size = int(rng.integers(0, len(cells) + 1))
        targets = rng.choice(cells, size=size, replace=False)
        table[tuple(int(c) for c in action)] = tuple(int(t) for t in targets)
    return AgentWTS(agent=1, cells=cells, initial=cells[0], dt=0.5,
                    labels={}, transitions=class_table(table),
                    neighbor_agents=tuple(range(2, degree + 2)))


def test_cell_graph_matches_the_view_over_duration_pairs():
    rng = np.random.default_rng(7004)
    seen = {"duplicate": 0, "self-loop": 0, "no action": 0, "unsorted": 0}
    for _ in range(300):
        wts = _random_neighbor_table(rng)
        want = cell_view_successors(wts)
        for cell in wts.cells + (max(wts.cells) + 1,):
            assert wts.successors(cell) == want(cell), cell
            targets = [t for t, _ in pair_successors(wts)(cell)]
            seen["duplicate"] += len(targets) > len(set(targets))
            seen["self-loop"] += cell in targets
            seen["no action"] += not targets
        keys = list(wts.transitions.targets)
        seen["unsorted"] += keys != sorted(keys)
    assert min(seen.values()) > 0, seen


# --------------------------------------------------------------------------
# oracle: the eager intersection
# --------------------------------------------------------------------------

def eager_intersect(a: TimedAutomaton, b: TimedAutomaton) -> TimedAutomaton:
    shared = a.alphabet & b.alphabet

    def compatible(qa, qb) -> bool:
        return a.labels[qa] & shared == b.labels[qb] & shared

    pairs = [(qa, qb) for qa in a.locations for qb in b.locations
             if compatible(qa, qb)]
    locations = [(qa, qb, ph) for qa, qb in pairs for ph in (0, 1)]
    labels = {(qa, qb, ph): a.labels[qa] | b.labels[qb]
              for qa, qb, ph in locations}
    initial = [(qa, qb, 0) for qa in a.initial for qb in b.initial
               if compatible(qa, qb)]
    accepting = [(qa, qb, 0) for qa, qb in pairs if qa in a.accepting]
    edges = []
    for ea in a.edges:
        for eb in b.edges:
            if not (compatible(ea.source, eb.source)
                    and compatible(ea.target, eb.target)):
                continue
            guard = ea.guard.conjoin(eb.guard)
            for ph in (0, 1):
                if ph == 0:
                    nxt = 1 if ea.source in a.accepting else 0
                else:
                    nxt = 0 if eb.source in b.accepting else 1
                edges.append(Edge((ea.source, eb.source, ph), guard,
                                  (ea.target, eb.target, nxt)))
    return TimedAutomaton(
        locations=locations, initial=initial, edges=edges,
        accepting=accepting, labels=labels, alphabet=a.alphabet | b.alphabet,
        c_max=max(a.c_max, b.c_max))


def _assert_same_automaton(lazy: TimedAutomaton, eager: TimedAutomaton,
                           candidates=()):
    """The lazy intersection answers as the eager one: first location by
    location, as a search asks, and then as a whole. ``candidates`` are
    more triples to look up, locations or not."""
    for loc in eager.locations:
        assert lazy.labels[loc] == eager.labels[loc], loc
        assert (loc in lazy.accepting) == (loc in eager.accepting), loc
        assert lazy.edges_from[loc] == eager.edges_from[loc], loc
    for loc in candidates:
        assert (loc in lazy.labels) == (loc in eager.labels), loc
        assert (loc in lazy.accepting) == (loc in eager.accepting), loc
    # nothing above needed the whole location list
    assert "locations" not in vars(lazy.labels)
    assert lazy.initial == eager.initial
    assert lazy.alphabet == eager.alphabet
    assert lazy.c_max == eager.c_max
    assert lazy.locations == eager.locations
    assert lazy.location_count() == eager.location_count()
    assert lazy.labels == eager.labels
    assert dict(lazy.labels) == eager.labels
    assert list(lazy.labels.items()) == list(eager.labels.items())
    assert set(lazy.labels.values()) == set(eager.labels.values())
    assert lazy.accepting == eager.accepting
    assert lazy.edges == eager.edges


def _orphan_automaton() -> TimedAutomaton:
    """Its largest constant sits on the edges into its {p} location."""
    e, p = frozenset(), frozenset({"p"})
    big = Guard((mitl.Interval(lo=Fraction(2), hi=Fraction(9)),))
    small = Guard((mitl.Interval(lo=Fraction(0), hi=Fraction(3, 2),
                                 hi_open=True),))
    edges = [Edge("s", small, "s"), Edge("s", big, "t"),
             Edge("t", TRUE_GUARD, "s"), Edge("t", big, "t")]
    return TimedAutomaton(["s", "t"], ["s"], edges, ["t"], {"s": e, "t": p},
                          p)


def test_lazy_intersection_matches_the_eager_one():
    rng = np.random.default_rng(7002)
    alphabets = ({"p"}, {"q"}, {"p", "q"}, {"q", "r"})
    words = accepted = 0
    for trial in range(12):
        parts, formulas = [], []
        # every third trial nests a one-atom automaton on top
        for k in range(3 if trial % 3 == 0 else 2):
            sigma = set(alphabets[int(rng.integers(2 if k == 2 else 4))])
            names = tuple(sorted(sigma))
            formula = random_flat_formula(rng, names=names)
            parts.append(from_flat_mitl(formula,
                                        letters=canonical_letters(sigma)))
            formulas.append(formula)
        lazy, eager = parts[0], parts[0]
        for part in parts[1:]:
            # every pair of part locations in phases 0-2, most no location
            candidates = list(itertools.product(eager.locations,
                                                part.locations, (0, 1, 2)))
            lazy, eager = intersect(lazy, part), eager_intersect(eager, part)
            _assert_same_automaton(lazy, eager, candidates)
        # the acceptance check reads the whole label mapping of a fresh one
        formula = functools.reduce(mitl.And, formulas)
        for _ in range(10):
            word = random_lasso_word(rng, names=("p", "q", "r", "s"))
            expected = mitl.evaluate(word, formula)
            assert accepts_lasso(functools.reduce(intersect, parts),
                                 word) is expected
            words += 1
            accepted += expected
    assert 0 < accepted < words


def test_intersection_c_max_is_the_larger_of_its_parts():
    # no edge of the G !p automaton enters a {p} location, so the orphan's
    # edges into its {p} location have no partner; their constant 9 still
    # counts, since c_max is read off the parts, not the matched edges
    never_p = from_flat_mitl(mitl.parse("G[0,inf) !p"),
                             letters=canonical_letters({"p"}))
    orphan = _orphan_automaton()
    assert (orphan.c_max, never_p.c_max) == (Fraction(9), Fraction(0))
    for a, b in ((orphan, never_p), (never_p, orphan),
                 (orphan, universal_acceptor({"q"}))):
        lazy, eager = intersect(a, b), eager_intersect(a, b)
        _assert_same_automaton(lazy, eager)
        assert lazy.c_max == Fraction(9)


# --------------------------------------------------------------------------
# oracle: the automata over every subset of the services
# --------------------------------------------------------------------------

def _random_labelled_product(rng) -> ProductWTS:
    """Two agents on three or four cells, each cell carrying a random set
    of its agent's services p<agent>, q<agent> (often none)."""
    g = random_connected_graph(rng, max_agents=2, max_dimension=1)
    cells = tuple(range(int(rng.integers(3, 5))))
    dt = float(rng.choice(_PERIODS))
    wts_list = []
    for agent in (1, 2):
        labels = {c: frozenset(s for s in (f"p{agent}", f"q{agent}")
                               if rng.random() < 0.35) for c in cells}
        table = {}
        for action in itertools.product(cells, repeat=2):
            if rng.random() < 0.8:
                table[action] = tuple(sorted(
                    {action[0]} | {c for c in cells if rng.random() < 0.5}))
        wts_list.append(AgentWTS(agent=agent, cells=cells,
                                 initial=int(rng.integers(len(cells))),
                                 dt=dt, labels=labels,
                                 transitions=class_table(table),
                                 neighbor_agents=(3 - agent,)))
    return ProductWTS(wts_list, g)


def _assert_same_successors(emitted: BuchiProduct, full: BuchiProduct,
                            cap: int = 20_000) -> int:
    """Both products expand the same states into the same ordered lists
    (the first ``cap`` states reached, depth first)."""
    assert emitted.clocks.sat == full.clocks.sat

    def named(product, states):
        return [(s, product.location(q), k) for s, q, k in states]

    starts = emitted.initial()
    assert named(emitted, starts) == named(full, full.initial())
    renumber = dict(zip(starts, full.initial()))
    seen, frontier = set(starts), list(starts)
    while frontier and len(seen) < cap:
        state = frontier.pop()
        got = list(emitted.successors(state))
        want = list(full.successors(renumber[state]))
        assert named(emitted, got) == named(full, want), state
        renumber.update(zip(got, want))
        for child in got:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return len(seen)


def test_automata_over_the_emitted_letters_give_the_same_products():
    rng = np.random.default_rng(7006)
    states = restricted = 0
    for _ in range(60):
        product = _random_labelled_product(rng)
        emitted, full = [], []
        for w in product.wts_list:
            services = {f"p{w.agent}", f"q{w.agent}"}
            formula = random_flat_formula(rng, names=tuple(sorted(services)))
            letters = {w.label(c) for c in w.cells}
            emitted.append(from_flat_mitl(formula, letters))
            full.append(from_flat_mitl(formula, canonical_letters(services)))
            restricted += len(letters) < 4
            states += _assert_same_successors(BuchiProduct(w, emitted[-1]),
                                              BuchiProduct(w, full[-1]))
        states += _assert_same_successors(
            BuchiProduct(product, intersect(*emitted)),
            BuchiProduct(product, intersect(*full)))
    assert restricted > 60 and states > 4000


# --------------------------------------------------------------------------
# oracle: consistency through explicit alignment
# --------------------------------------------------------------------------

def aligned_consistent(runs, product: ProductWTS, lcm_cap: int) -> bool:
    aligned = align_runs(runs, lcm_cap)
    p_star, c_star = len(aligned[0][0]), len(aligned[0][1])
    tables = {w.agent: enabled_actions(w) for w in product.wts_list}

    def at(prefix, cycle, j):
        return prefix[j] if j < len(prefix) \
            else cycle[(j - len(prefix)) % len(cycle)]

    for j in range(p_star + c_star):
        joint = tuple(at(p, c, j) for p, c in aligned)
        joint_next = tuple(at(p, c, j + 1) for p, c in aligned)
        for w in product.wts_list:
            action = product.agent_action(joint, w.agent)
            if joint_next[w.agent - 1] not in tables[w.agent].get(action, ()):
                return False
    return True


def _random_product(rng, enabled: float = 0.8,
                    target: float = 0.5) -> ProductWTS:
    """Agents on cells 0-2 over a random graph: each action is enabled
    with probability ``enabled``, and then reaches its own cell and each
    other cell with probability ``target``."""
    g = random_connected_graph(rng, max_agents=3, max_dimension=1)
    cells = (0, 1, 2)
    wts_list = []
    for agent in range(1, g.agent_count + 1):
        neighbors = g.neighbors(agent)
        table = {}
        for action in itertools.product(cells, repeat=len(neighbors) + 1):
            if rng.random() < enabled:  # most moves allowed, so runs get far
                table[action] = tuple(sorted(
                    {action[0]} | {int(c) for c in cells
                                   if rng.random() < target}))
        wts_list.append(AgentWTS(agent=agent, cells=cells, initial=0,
                                 dt=1.0, labels={},
                                 transitions=class_table(table),
                                 neighbor_agents=tuple(neighbors)))
    return ProductWTS(wts_list, g)


def _outcome(check, runs, product, lcm_cap):
    try:
        return check(runs, product, lcm_cap)
    except LengthMismatch:
        return "length mismatch"


def test_early_exit_consistency_matches_the_aligned_check():
    rng = np.random.default_rng(7003)
    outcomes = {True: 0, False: 0, "length mismatch": 0}
    for _ in range(300):
        product = _random_product(rng)
        runs = []
        for _ in product.wts_list:
            prefix = tuple(int(c) for c in
                           rng.integers(0, 3, size=int(rng.integers(0, 4))))
            cycle = tuple(int(c) for c in
                          rng.integers(0, 3, size=int(rng.integers(1, 6))))
            runs.append((prefix, cycle))
        # always-allowed stays make consistent runs common
        if rng.random() < 0.3:
            runs = [((), (0,)) for _ in product.wts_list]
        lcm_cap = int(rng.choice([4, 12, 1000]))
        got = _outcome(consistent, runs, product, lcm_cap)
        assert got == _outcome(aligned_consistent, runs, product, lcm_cap)
        outcomes[got] += 1
    assert min(outcomes.values()) > 0, outcomes


# --------------------------------------------------------------------------
# oracle: product states with location objects
# --------------------------------------------------------------------------

def _guard_ticks(clocks: TickClocks, guard: Guard) -> tuple[int, int]:
    """``TickClocks.tick_range`` without its memo: every term divided on
    the spot."""
    lowest, highest = 0, clocks.sat
    for term in guard.terms:
        lo = term.lo / clocks.delta
        lo = math.floor(lo) + 1 if term.lo_open else math.ceil(lo)
        if term.hi is None:
            hi = clocks.sat
        else:
            hi = term.hi / clocks.delta
            hi = math.ceil(hi) - 1 if term.hi_open else math.floor(hi)
        lowest, highest = max(lowest, lo), min(highest, hi)
    return lowest, highest


def _union_label(system, state) -> frozenset:
    """A system state's letter; a joint state's is the union of its
    cells' labels, recomputed on every call."""
    if isinstance(system, ProductWTS):
        return frozenset().union(
            *(w.label(c) for w, c in zip(system.wts_list, state)))
    return system.label(state)


class ObjectProduct:
    """The tick product with location objects in its states: each state's
    first expansion scans the location's edges for the child's letter and
    compiles each guard on the spot."""

    def __init__(self, system, automaton: TimedAutomaton):
        self.system = system
        self.automaton = automaton
        self.clocks = TickClocks(automaton, to_fraction(system.dt))
        self._cache: dict = {}

    def initial(self):
        auto = self.automaton
        return [(s, q, 0) for s in self.system.initial_states()
                for q in auto.initial
                if auto.labels[q] == _union_label(self.system, s)]

    def successors(self, state):
        if state in self._cache:
            return self._cache[state]
        auto, clocks = self.automaton, self.clocks
        s, q, k = state
        k = min(k + 1, clocks.sat)
        result = self._cache[state] = []
        for s2 in self.system.successors(s):
            for edge in auto.edges_from[q]:
                if auto.labels[edge.target] != _union_label(self.system, s2):
                    continue
                lo, hi = _guard_ticks(clocks, edge.guard)
                if lo <= k <= hi:
                    result.append((s2, edge.target, k))
        return result

    def accepting(self, state):
        return state[1] in self.automaton.accepting \
            and state[2] == self.clocks.sat


def _named(product: BuchiProduct, states) -> list:
    return [(s, product.location(q), k) for s, q, k in states]


def _named_lasso(product: BuchiProduct, lasso):
    if lasso is None:
        return None
    return (_named(product, lasso.prefix_states),
            _named(product, lasso.cycle_states))


def _object_lasso(lasso):
    if lasso is None:
        return None
    return list(lasso.prefix_states), list(lasso.cycle_states)


def _assert_same_numbered_product(fast: BuchiProduct,
                                  oracle: ObjectProduct) -> tuple[int, int]:
    """Successor lists agree state for state and in order, and so do the
    lassos both searches find, once location numbers are read back."""
    starts = fast.initial()
    assert _named(fast, starts) == oracle.initial()
    seen, frontier = set(starts), list(starts)
    while frontier:
        state = frontier.pop()
        got = list(fast.successors(state))
        want = oracle.successors(_named(fast, [state])[0])
        assert _named(fast, got) == want, state
        for child in got:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    assert _named_lasso(fast, find_accepting_lasso(fast)) == _object_lasso(
        _ndfs.find_accepting_cycle(oracle.initial(), oracle.successors,
                                   oracle.accepting))
    got = [_named_lasso(fast, l) for l in enumerate_accepting_lassos(fast)]
    assert got == [_object_lasso(l) for l in _object_lassos(oracle)]
    return len(seen), len(got)


def _random_conjunction(rng, count: int, names=("p", "q")):
    """``count`` random temporal units over ``names``, conjoined."""
    units = []
    for _ in range(count):
        formula = random_flat_formula(rng, names=names, max_constant=4)
        units.append(formula.left if isinstance(formula, mitl.And)
                     else formula)
    return functools.reduce(mitl.And, units)


def test_numbered_single_agent_products_match_the_object_product():
    rng = np.random.default_rng(7007)
    states = lassos = 0
    by_count = {1: 0, 2: 0, 3: 0}
    for trial in range(240):
        wts = four_state_timed_wts() if trial % 10 == 0 \
            else _random_timed_system(rng)
        count = trial % 3 + 1
        auto = from_flat_mitl(_random_conjunction(rng, count),
                              letters=canonical_letters({"p", "q"}))
        reached, found = _assert_same_numbered_product(
            BuchiProduct(wts, auto), ObjectProduct(wts, auto))
        states += reached
        lassos += found
        by_count[count] += found > 0
    assert states > 2500 and lassos > 120 and min(by_count.values()) > 4


def _random_joint_product(rng, agents: int) -> ProductWTS:
    """``agents`` agents on three cells over a random connected graph,
    each cell carrying a random set of its agent's services."""
    g = random_connected_graph(rng, max_agents=agents, max_dimension=1)
    while g.agent_count != agents:
        g = random_connected_graph(rng, max_agents=agents, max_dimension=1)
    cells = (0, 1, 2)
    dt = float(rng.choice(_PERIODS))
    wts_list = []
    for agent in range(1, agents + 1):
        labels = {c: frozenset(s for s in (f"p{agent}", f"q{agent}")
                               if rng.random() < 0.4) for c in cells}
        neighbors = g.neighbors(agent)
        table = {}
        # every action enabled (staying included), so no joint run sticks
        for action in itertools.product(cells, repeat=len(neighbors) + 1):
            table[action] = tuple(sorted(
                {action[0]} | {c for c in cells if rng.random() < 0.5}))
        wts_list.append(AgentWTS(agent=agent, cells=cells,
                                 initial=int(rng.integers(len(cells))),
                                 dt=dt, labels=labels,
                                 transitions=class_table(table),
                                 neighbor_agents=tuple(neighbors)))
    return ProductWTS(wts_list, g)


def _agent_automaton(rng, w: AgentWTS, conjuncts: int) -> TimedAutomaton:
    """A random formula's automaton over the letters w emits, redrawn up to
    four times until w alone can meet it, so joint lassos are common."""
    names = (f"p{w.agent}", f"q{w.agent}")
    for _ in range(5):
        auto = from_flat_mitl(_random_conjunction(rng, conjuncts, names),
                              letters={w.label(c) for c in w.cells})
        if find_accepting_lasso(BuchiProduct(w, auto)) is not None:
            break
    return auto


@pytest.mark.parametrize("agents,trials", [(2, 30), (3, 6)])
def test_numbered_joint_products_match_the_object_product(agents, trials):
    rng = np.random.default_rng(7008 + agents)
    states = lassos = with_lassos = 0
    for trial in range(trials):
        product = _random_joint_product(rng, agents)
        conjuncts = 1 + trial % 2 if agents == 2 else 1
        auto = functools.reduce(intersect, [
            _agent_automaton(rng, w, conjuncts) for w in product.wts_list])
        reached, found = _assert_same_numbered_product(
            BuchiProduct(product, auto), ObjectProduct(product, auto))
        states += reached
        lassos += found
        with_lassos += found > 0
    assert states > 3000 and lassos > 200 and with_lassos > trials // 3


# --------------------------------------------------------------------------
# oracle: the step-4 search over whole successor lists and the eager
# intersection
# --------------------------------------------------------------------------

class ListProduct(BuchiProduct):
    """``BuchiProduct`` whose successors fill a state's memo entry and
    return the whole list, as the step-4 search read them before its
    children were made on the fly."""

    def successors(self, state):
        s, q, k = state
        sat = self.clocks.sat
        k = k + 1 if k + 1 < sat else sat
        return [(s2, target, k) for s2, target in self.moves(s, q, k)]


def _joint_search(product: BuchiProduct, max_states: int):
    """(the lasso, None or the budget message, and the states the search
    passed to ``successors``, recorded as perfbench's tracer counts
    them)."""
    seen = set()
    expand = product.successors

    def successors(state):
        seen.add(state)
        return expand(state)

    product.successors = successors
    try:
        return find_accepting_lasso(product, max_states=max_states), seen
    except BudgetExceeded as exc:
        return str(exc), seen


def _geometric_agents(rng, edges, agents: int):
    """Agents over ``edges`` on a line of 3-4 grid cells, abstracted as
    ``synthesize`` does, each with services p<agent> and q<agent> on one
    random cell each."""
    g = build_graph(agents, edges)
    count = int(rng.integers(3, 5))
    side = float(rng.uniform(0.2, 1.0))
    dt = float(rng.choice([0.25, 0.5]))
    v_max = side * float(rng.uniform(1.0, 3.0)) / (0.5 * dt)
    regions = []
    for agent in range(1, agents + 1):
        for name in (f"p{agent}", f"q{agent}"):
            c = int(rng.integers(count))
            regions.append(LabeledRegion([c * side], [(c + 1) * side],
                                         {agent: {name}}))
    decomp, labeling, rep, disc = _grid_system(
        g, side, (count,), dt, v_max, float(rng.uniform(0.1, 0.4)) * side,
        regions)
    return g, [build_agent_wts(g, agent, decomp, labeling, rep, disc,
                               int(rng.integers(1, decomp.cell_count + 1)))
               for agent in range(1, agents + 1)]


@pytest.mark.parametrize("shape,agents,trials", [
    ("path", 2, 24), ("path", 3, 4), ("star", 3, 4)])
def test_step4_search_matches_the_eager_lists(shape, agents, trials):
    rng = np.random.default_rng(7010 + 10 * agents + (shape == "star"))
    edges = [(1, j) for j in range(2, agents + 1)] if shape == "star" \
        else [(j, j + 1) for j in range(1, agents)]
    found = empty = budgets = 0
    for _ in range(trials):
        g, wts_list = _geometric_agents(rng, edges, agents)
        automata = [_agent_automaton(rng, w, 1) for w in wts_list]
        eager_automaton = functools.reduce(eager_intersect, automata)

        def searches(cap):
            fast = BuchiProduct(ProductWTS(wts_list, g),
                                functools.reduce(intersect, automata))
            eager = ListProduct(ProductWTS(wts_list, g), eager_automaton)
            return _joint_search(fast, cap), _joint_search(eager, cap)

        (lasso, seen), want = searches(50_000)
        assert (lasso, seen) == want
        assert not isinstance(lasso, str)
        if lasso is None:
            empty += 1
        else:
            found += 1
            joints = [s for s, _, _ in lasso.prefix_states
                      + lasso.cycle_states]
            product = ProductWTS(wts_list, g)
            for w in wts_list:
                assert _agent_actions(joints, w.agent, g) == [
                    product.agent_action(joint, w.agent)
                    for joint in joints]
        for cap in sorted({1, 2, 5, len(seen) // 2, len(seen) - 1}):
            (outcome, expanded), want = searches(max(cap, 1))
            assert (outcome, expanded) == want, cap
            budgets += isinstance(outcome, str)
    assert found > trials // 4 and empty + budgets > 0


# --------------------------------------------------------------------------
# oracle: step 3 walking every combination from position 0
# --------------------------------------------------------------------------

def _cell(run, position: int):
    prefix, cycle = run
    return prefix[position] if position < len(prefix) \
        else cycle[(position - len(prefix)) % len(cycle)]


def _disallowed_move(runs, product: ProductWTS):
    """(the number of moves in the runs' aligned walk, the first move m,
    from position m to m + 1, that ``product.successors`` does not allow,
    or None)."""
    p_star = max(len(prefix) for prefix, _ in runs)
    moves = p_star + math.lcm(*(len(cycle) for _, cycle in runs))
    for m in range(moves):
        joint = tuple(_cell(run, m) for run in runs)
        if tuple(_cell(run, m + 1) for run in runs) \
                not in product.successors(joint):
            return moves, m
    return moves, None


def _cells_through(run, position: int) -> tuple:
    return tuple(_cell(run, j) for j in range(position + 1))


def walk_every_combination(per_agent, product: ProductWTS, r_iter: int,
                           counts=None):
    """Step 3 as it was: every combination, up to ``r_iter`` of them,
    projected and walked by ``consistent`` from position 0; (the number
    tried, the first consistent one's runs or None). ``counts`` tallies,
    against the last failed walk, the combinations that agree with its
    cells through its disallowed move and those whose walk ends before
    that move."""
    counts = Counter() if counts is None else counts
    tried, last = 0, None
    for picks in itertools.product(*(range(len(ls)) for ls in per_agent)):
        if tried >= r_iter:
            break
        tried += 1
        runs = [_project_cells(lassos[i], None)
                for lassos, i in zip(per_agent, picks)]
        try:
            ok = consistent(runs, product)
        except LengthMismatch:
            counts["length mismatch"] += 1
            continue
        moves, m = _disallowed_move(runs, product)
        assert ok is (m is None)
        if last is not None:
            agrees = [_cells_through(run, last[0] + 1) for run in runs] \
                == last[1]
            counts["agrees"] += agrees
            counts["ends before"] += moves <= last[0]
            # agreeing runs reach the move: a shorter periodic walk would
            # repeat it from an earlier, allowed move
            assert not (agrees and moves <= last[0])
        if ok:
            return tried, runs
        counts["walks failed"] += 1
        last = m, [_cells_through(run, m + 1) for run in runs]
    return tried, None


def _plan_fields(plan) -> tuple:
    certificates = [None if c is None else
                    (c.source, c.target, c.neighbor_cells,
                     tuple(c.nominal_input), c.norm, c.remainder)
                    for c in plan.certificates_prefix
                    + plan.certificates_cycle]
    return (plan.agent, plan.dt, plan.prefix_cells, plan.cycle_cells,
            plan.prefix_actions, plan.cycle_actions, plan.provided_prefix,
            plan.provided_cycle, certificates, plan.formula_text,
            plan.witness_time)


def _synthesis_outcome(wts_list, g, formulas, r_iter):
    try:
        result = synthesize(wts_list, g, formulas, r_iter=r_iter,
                            max_states=20_000)
    except (BudgetExceeded, Unsatisfiable) as exc:
        return type(exc).__name__, str(exc)
    return (result.step_used, result.combinations_tried,
            result.agent_lasso_counts, [_plan_fields(p) for p in result.plans])


def _satisfiable_formula(rng, w: AgentWTS, conjuncts: int):
    """A conjunction of ``conjuncts`` random units over w's services,
    redrawn up to four times until w alone can meet it."""
    names = (f"p{w.agent}", f"q{w.agent}")
    for _ in range(5):
        formula = _random_conjunction(rng, conjuncts, names)
        auto = from_flat_mitl(formula, letters={w.label(c) for c in w.cells})
        if find_accepting_lasso(BuchiProduct(w, auto)) is not None:
            break
    return formula


def _random_lassos(rng, agents: int) -> list[list[_ndfs.Lasso]]:
    """Per agent, 3-7 lassos over cells 0-2 cut from one random cell
    sequence, prefix and cycle of random lengths, so that lassos of one
    agent agree on their first positions but differ in length. A few
    cycles are 31-33 long, and two of those can align only past the
    default period budget."""
    per_agent = []
    for _ in range(agents):
        base = [int(c) for c in rng.integers(0, 3, size=41)]
        lassos = []
        for _ in range(int(rng.integers(3, 8))):
            p = int(rng.integers(0, 8))
            c = int(rng.choice([1, 2, 3, 31, 32, 33],
                               p=[0.3, 0.3, 0.25, 0.05, 0.05, 0.05]))
            lassos.append(_ndfs.Lasso(
                tuple((cell, 0, 0) for cell in base[:p]),
                tuple((cell, 0, 0) for cell in base[p:p + c])))
        per_agent.append(lassos)
    return per_agent


def _assert_same_combination(per_agent, product_of, counts):
    """``_combine`` against walking every combination, under budgets that
    cut the loop short and one that does not."""
    total = math.prod(map(len, per_agent))
    for r_iter in sorted({1, total // 2, total}):
        assert _combine(per_agent, product_of(), r_iter) \
            == walk_every_combination(per_agent, product_of(), r_iter, counts)


def test_step3_resume_matches_walking_every_combination_of_cut_lassos():
    rng = np.random.default_rng(7019)
    counts = Counter()
    for _ in range(200):
        # nearly every move allowed, so walks fail late as well as early
        product = _random_product(rng, enabled=0.97, target=0.9)
        _assert_same_combination(
            _random_lassos(rng, len(product.wts_list)),
            lambda: ProductWTS(product.wts_list, product.graph), counts)
    assert counts["walks failed"] > 100 and counts["agrees"] > 100, counts
    assert counts["ends before"] > 20 and counts["length mismatch"] > 100, \
        counts


@pytest.mark.parametrize("shape,agents,trials", [
    ("path", 2, 24), ("path", 3, 12), ("star", 3, 12)])
def test_step3_resume_matches_walking_every_combination(shape, agents,
                                                        trials, monkeypatch):
    rng = np.random.default_rng(7020 + 10 * agents + (shape == "star"))
    edges = [(1, j) for j in range(2, agents + 1)] if shape == "star" \
        else [(j, j + 1) for j in range(1, agents)]
    counts, steps = Counter(), Counter()
    for _ in range(trials):
        g, wts_list = _geometric_agents(rng, edges, agents)
        formulas = {w.agent: _satisfiable_formula(rng, w,
                                                  int(rng.integers(2, 4)))
                    for w in wts_list}
        automata = [from_flat_mitl(formulas[w.agent],
                                   {w.label(c) for c in w.cells})
                    for w in wts_list]
        per_agent = [enumerate_accepting_lassos(BuchiProduct(w, auto))
                     for w, auto in zip(wts_list, automata)]
        if not all(per_agent):
            continue
        _assert_same_combination(per_agent,
                                 lambda: ProductWTS(wts_list, g), counts)
        total = math.prod(map(len, per_agent))
        r_iter = int(rng.choice([total // 2 + 1, 10**4]))
        want = _synthesis_outcome(wts_list, g, formulas, r_iter)
        with monkeypatch.context() as patch:
            patch.setattr(synthesis, "_combine", walk_every_combination)
            assert _synthesis_outcome(wts_list, g, formulas, r_iter) == want
        steps[want[0]] += 1
    # these lassos' stems all reach the saturated tick and their loops are
    # short, so no walk here ends before an earlier one's disallowed move
    # and no period exceeds the budget; the cut lassos above cover both
    assert counts["walks failed"] > 20 and counts["agrees"] > 20, counts
    assert steps[3] > 0 and steps[4] > 0, steps


# --------------------------------------------------------------------------
# oracle: guard segments compiled from the joint edges
# --------------------------------------------------------------------------

def _edge_clocks(automaton: TimedAutomaton, delta) -> TickClocks:
    """``TickClocks`` over an intersection whose rows are built, as they
    were before they came from its parts' rows, from ``edges_from[q]``,
    every edge's tick range from ``tick_range(edge.guard)``: the base
    ``TimedAutomaton.edge_rows``."""
    automaton.edge_rows = functools.partial(TimedAutomaton.edge_rows,
                                            automaton)
    return TickClocks(automaton, delta)


def _agent_automaton_of_units(rng) -> TimedAutomaton:
    """The intersection of 2-3 random units over two of the services p, q
    and r, expanded over most of their letters; windows scaled by 1/2, 1
    or 3/2."""
    names = tuple(sorted(rng.choice(["p", "q", "r"], size=2, replace=False)))
    letters = [lt for lt in canonical_letters(set(names))
               if rng.random() < 0.8] or [frozenset()]
    formula = _scaled(_random_conjunction(rng, int(rng.integers(2, 4)),
                                          names),
                      Fraction(int(rng.integers(1, 4)), 2))
    return from_flat_mitl(formula, letters=letters)


def test_joint_rows_compile_as_the_joint_edges():
    rng = np.random.default_rng(7030)
    locations = segments = 0
    phases = set()
    for _ in range(40):
        # two agents' nested intersections, their services overlapping
        a, b = _agent_automaton_of_units(rng), _agent_automaton_of_units(rng)
        delta = Fraction(int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        fast = TickClocks(intersect(a, b), delta)
        oracle = _edge_clocks(intersect(a, b), delta)
        # compiled as a search meets them: the initial locations, then each
        # location in the order it was numbered, numbering its targets
        for q in fast.automaton.initial:
            assert fast.number(q) == oracle.number(q)
        i = 0
        while i < len(fast.locations) and i < 1500:
            got, want = fast.segments(i), oracle.segments(i)
            assert fast.locations == oracle.locations
            assert got == want, fast.locations[i]
            segment_of, tables = got
            assert len(segment_of) == fast.sat + 1
            for k in range(fast.sat + 1):
                assert tables[segment_of[k]] == want[1][want[0][k]]
            segments += len(tables)
            i += 1
        locations += i
        phases.update(q[2] for q in fast.locations[:i])
        assert fast.automaton.carried_letters() \
            == set(oracle.automaton.labels.values())
    assert phases == {0, 1}
    assert locations > 3000 and segments > 2 * locations, \
        (locations, segments)


# --------------------------------------------------------------------------
# oracle: acceptance tested location first
# --------------------------------------------------------------------------

def _location_first(automaton: TimedAutomaton, loc) -> bool:
    """Whether an intersection accepts ``loc``, tested as it was before
    the phase and the first part's acceptance came first: is it a
    location at all, then its phase, then its first part."""
    return loc in automaton.labels and loc[2] == 0 \
        and loc[0] in automaton.parts[0].accepting


def _answer(test, loc):
    """test(loc), or the type of the exception it raises."""
    try:
        return test(loc)
    except Exception as exc:     # noqa: BLE001 - compared, not handled
        return type(exc)


def test_acceptance_answers_as_when_the_location_was_tested_first():
    rng = np.random.default_rng(7040)
    answers = Counter()
    for _ in range(25):
        a, b = _agent_automaton_of_units(rng), _agent_automaton_of_units(rng)
        joint = intersect(a, b)
        # every pair of part locations in phases 0, 1 and others, most of
        # them no location; part locations that are none; other shapes
        candidates = list(itertools.product(a.locations, b.locations,
                                            (0, 1, 2, -1, False, 0.0)))
        candidates += [(qa, "nowhere", ph) for qa in a.locations[:4]
                       for ph in (0, 1)]
        candidates += [(("x", "y", 0), qb, 0) for qb in b.locations[:4]]
        candidates += [None, 5, (), (0, 1), "ab0", "abc",
                       (a.locations[0], b.locations[0], 0, 0),
                       [a.locations[0], b.locations[0], 0],
                       [a.locations[0], b.locations[0], 1]]
        fresh = intersect(a, b)
        for loc in candidates:
            want = _answer(functools.partial(_location_first, joint), loc)
            got = _answer(fresh.accepting.__contains__, loc)
            if isinstance(want, bool):
                assert got is want, loc
            else:
                # no answer before: the same error, or no to a triple
                # that fails the phase or the first part first
                assert got in (want, False), loc
            answers[got] += 1
        # a triple that fails the phase or the first part never had its
        # letter built
        built = set(vars(fresh.labels)["_memo"])
        assert all(loc[2] == 0 and loc[0] in a.accepting for loc in built)
        assert fresh.accepting == joint.accepting
    assert answers[True] > 100 and answers[False] > 10_000, answers
    assert answers[TypeError] and answers[ValueError], answers


# --------------------------------------------------------------------------
# oracle: children filtered straight from the system
# --------------------------------------------------------------------------

def _filtered_children(product: BuchiProduct, state) -> list:
    """The children of a product state, filtered from
    ``system.successors`` and ``system.label`` at the guard segment of the
    next tick, as ``BuchiProduct`` made them before each state's children
    were paired with their letters once."""
    s, q, k = state
    sat = product.clocks.sat
    k = k + 1 if k + 1 < sat else sat
    segment_of, tables = product.clocks.segments(q)
    table, system = tables[segment_of[k]], product.system
    return [(s2, target, k) for s2 in system.successors(s)
            for target in table.get(system.label(s2), ())]


def _assert_children_as_filtered(product: BuchiProduct, moves_first: bool,
                                 cap: int = 3000) -> int:
    """Expand the product depth first, comparing each state's children
    with the filtered ones before and after ``moves`` fills its memo
    entry (or only after, when ``moves_first``)."""
    system = product.system
    seen = set(product.initial())
    frontier = list(seen)
    while frontier and len(seen) < cap:
        state = frontier.pop()
        s, q, k = state
        want = _filtered_children(product, state)
        if not moves_first:
            assert list(product.successors(state)) == want, state
        sat = product.clocks.sat
        assert product.moves(s, q, k + 1 if k + 1 < sat else sat) \
            == [(s2, target) for s2, target, _ in want]
        assert list(product.successors(state)) == want, state
        assert product.labelled(s) == [(s2, system.label(s2))
                                       for s2 in system.successors(s)]
        for child in want:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return len(seen)


def test_labelled_successors_match_the_filtered_children():
    rng = np.random.default_rng(7050)
    states = Counter()
    for _ in range(100):
        product = _random_labelled_product(rng)
        automata = [from_flat_mitl(
            random_flat_formula(rng, names=(f"p{w.agent}", f"q{w.agent}")),
            {w.label(c) for c in w.cells}) for w in product.wts_list]
        systems = [*zip(product.wts_list, automata),
                   (product, intersect(*automata))]
        for system, automaton in systems:
            for moves_first in (False, True):
                states[moves_first] += _assert_children_as_filtered(
                    BuchiProduct(system, automaton), moves_first)
    assert min(states.values()) > 5000, states
