"""State-graph search against the edge-labelled search it replaced.

The oracle below is a local copy of the earlier nested DFS and BFS lasso
enumerator, whose ``successors`` yielded (payload, child) pairs and whose
lassos carried one payload per edge. Dropping the payloads must not change
which states the searches visit, in which order, or when a budget fires:
on random graphs both must return the same lasso states in the same order
and raise ``BudgetExceeded`` at the same caps. The BFS enumerator checked
here is ``conftest.shortest_lassos``, which in turn is the oracle of the
tick-layered sweep (``test_lasso_sweep``). ``accepts_lasso``, which now
expands its (location, ticks, phase) graph on demand, is checked against a
local copy of its eager version the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from mas import _ndfs
from mas.errors import BudgetExceeded
from mas.mitl import TimedWord, exact_gcd
from mas.tba import (TickClocks, accepts_lasso, canonical_letters,
                     from_flat_mitl)

from conftest import random_flat_formula, random_lasso_word, shortest_lassos


# --------------------------------------------------------------------------
# oracle: the payload-carrying search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RawLasso:
    prefix_states: tuple
    prefix_actions: tuple
    cycle_states: tuple
    cycle_actions: tuple


def _check_budget(count, max_states):
    if max_states is not None and count > max_states:
        raise BudgetExceeded(
            f"search explored more than {max_states} states")


def payload_find_accepting_cycle(initials, successors, is_accepting,
                                 max_states=None):
    blue: set = set()
    red: set = set()
    for root in initials:
        if root in blue:
            continue
        blue.add(root)
        _check_budget(len(blue), max_states)
        frames = [(root, iter(successors(root)), None)]
        on_stack = {root: 0}
        while frames:
            state, it, _ = frames[-1]
            pushed = False
            for payload, child in it:
                if child not in blue:
                    blue.add(child)
                    _check_budget(len(blue), max_states)
                    frames.append((child, iter(successors(child)), payload))
                    on_stack[child] = len(frames) - 1
                    pushed = True
                    break
            if pushed:
                continue
            if is_accepting(state):
                hit = _payload_red_search(state, successors, red, on_stack,
                                          max_states)
                if hit is not None:
                    return _payload_reconstruct(frames, on_stack, hit)
            frames.pop()
            del on_stack[state]
    return None


def _payload_red_search(seed, successors, red, on_stack, max_states):
    red.add(seed)
    _check_budget(len(red), max_states)
    stack = [(seed, iter(successors(seed)))]
    parents: dict = {}
    while stack:
        state, it = stack[-1]
        advanced = False
        for payload, child in it:
            if child in on_stack:
                states, payloads = [], [payload]
                walk = state
                while walk != seed:
                    parent, via = parents[walk]
                    states.append(walk)
                    payloads.append(via)
                    walk = parent
                states.reverse()
                payloads.reverse()
                return child, tuple(states), tuple(payloads)
            if child not in red:
                red.add(child)
                _check_budget(len(red), max_states)
                parents[child] = (state, payload)
                stack.append((child, iter(successors(child))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return None


def _payload_reconstruct(frames, on_stack, hit):
    anchor, red_states, red_payloads = hit
    idx = on_stack[anchor]
    prefix_states = tuple(frames[i][0] for i in range(idx))
    prefix_actions = tuple(frames[i + 1][2] for i in range(idx))
    blue_states = tuple(frames[i][0] for i in range(idx, len(frames)))
    blue_payloads = tuple(frames[i][2] for i in range(idx + 1, len(frames)))
    return RawLasso(prefix_states, prefix_actions,
                    blue_states + red_states, blue_payloads + red_payloads)


def payload_shortest_lassos(initials, successors, is_accepting,
                            max_states=None, priority=None):
    parent: dict = {}
    order: list = []
    frontier = []
    for root in initials:
        if root not in parent:
            parent[root] = (None, None)
            frontier.append(root)
            order.append(root)
    _check_budget(len(parent), max_states)
    while frontier:
        if priority is not None:
            frontier.sort(key=priority)
        nxt = []
        for state in frontier:
            for payload, child in successors(state):
                if child not in parent:
                    parent[child] = (state, payload)
                    _check_budget(len(parent), max_states)
                    nxt.append(child)
                    order.append(child)
        frontier = nxt

    capable = _payload_loop_capable(order, successors)
    found = []
    for disc, anchor in enumerate(order):
        if not is_accepting(anchor) or anchor not in capable:
            continue
        loop = _payload_shortest_loop(anchor, successors, max_states)
        if loop is None:
            continue
        stem_states, stem_actions = [], []
        walk = anchor
        while True:
            prev, via = parent[walk]
            if prev is None:
                break
            stem_states.append(prev)
            stem_actions.append(via)
            walk = prev
        stem_states.reverse()
        stem_actions.reverse()
        loop_states, loop_actions = loop
        found.append((len(stem_states), len(loop_states), disc, RawLasso(
            tuple(stem_states), tuple(stem_actions),
            tuple(loop_states), tuple(loop_actions))))
    found.sort(key=lambda item: item[:3])
    return [item[3] for item in found]


def _payload_loop_capable(states, successors):
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    capable: set = set()
    counter = 0
    for root in states:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            state, it = work[-1]
            advanced = False
            for _, child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if child in on_stack:
                    low[state] = min(low[state], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                above = work[-1][0]
                low[above] = min(low[above], low[state])
            if low[state] == index[state]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == state:
                        break
                if len(component) > 1:
                    capable.update(component)
                elif any(child == state for _, child in successors(state)):
                    capable.add(state)
    return capable


def _payload_shortest_loop(anchor, successors, max_states):
    parent: dict = {}
    frontier = [anchor]
    closing = None
    while frontier and closing is None:
        nxt = []
        for state in frontier:
            for payload, child in successors(state):
                if child == anchor:
                    closing = (state, payload)
                    break
                if child not in parent:
                    parent[child] = (state, payload)
                    _check_budget(len(parent), max_states)
                    nxt.append(child)
            if closing is not None:
                break
        frontier = nxt
    if closing is None:
        return None
    last, closing_payload = closing
    states, payloads = [], [closing_payload]
    walk = last
    while walk != anchor:
        prev, via = parent[walk]
        states.append(walk)
        payloads.append(via)
        walk = prev
    states.reverse()
    payloads.reverse()
    return [anchor] + states, payloads


def payload_accepts_lasso(automaton, word, node_cap=500_000):
    """Eager lasso acceptance: the whole (location, tick, phase) graph is
    built first, then searched."""
    delta = exact_gcd(word.gaps())
    clocks = TickClocks(automaton, delta)
    p, c = word.prefix_length, word.cycle_length

    def tag_of(position):
        return position if position < p else p + (position - p) % c

    starts = [(clocks.number(loc), 0, 0) for loc in automaton.initial
              if automaton.labels[loc] == word.letter(0)]
    adjacency: dict = {}
    frontier = list(starts)
    known = set(starts)
    while frontier:
        node = frontier.pop()
        loc, k, tag = node
        d, rest = divmod(word.time(tag + 1) - word.time(tag), delta)
        assert rest == 0
        next_tag = tag_of(tag + 1)
        succ = []
        k, targets = clocks.moves(loc, k, d, word.letter(tag + 1))
        for target in targets:
            child = (target, k, next_tag)
            succ.append((None, child))
            if child not in known:
                known.add(child)
                frontier.append(child)
                if len(known) > node_cap:
                    raise BudgetExceeded(
                        f"lasso acceptance graph exceeded {node_cap} nodes")
        adjacency[node] = succ
    lasso = payload_find_accepting_cycle(
        starts, lambda node: adjacency.get(node, ()),
        lambda node: clocks.locations[node[0]] in automaton.accepting)
    return lasso is not None


# --------------------------------------------------------------------------
# random graphs
# --------------------------------------------------------------------------

def _random_graph(rng):
    """Adjacency lists over states 0..n-1 with self-loops and duplicate
    children; acyclic in one case out of four, so accepting states are
    transient there and no accepting cycle exists."""
    n = int(rng.integers(1, 13))
    acyclic = rng.random() < 0.25
    adjacency = {}
    for s in range(n):
        pool = list(range(s + 1, n)) if acyclic else list(range(n))
        k = int(rng.integers(0, 5)) if pool else 0
        children = [int(c) for c in rng.choice(pool, size=k)] if k else []
        if not acyclic and rng.random() < 0.3:
            children.insert(int(rng.integers(0, len(children) + 1)), s)
        if children and rng.random() < 0.3:
            children.append(children[int(rng.integers(0, len(children)))])
        adjacency[s] = children
    initials = [int(s) for s in rng.integers(0, n, size=int(rng.integers(1, 4)))]
    accepting = {s for s in range(n) if rng.random() < 0.35}
    priority = {s: int(rng.integers(0, 3)) for s in range(n)}
    return n, adjacency, initials, accepting, priority


def _states(lasso):
    if lasso is None:
        return None
    return lasso.prefix_states, lasso.cycle_states


def _outcome(search, *args, **kwargs):
    try:
        result = search(*args, **kwargs)
    except BudgetExceeded:
        return "budget"
    if isinstance(result, list):
        return [_states(lasso) for lasso in result]
    return _states(result)


def test_state_search_matches_the_payload_search_on_random_graphs():
    rng = np.random.default_rng(61)
    seen = {"cycle": 0, "no_cycle": 0, "budget": 0, "several": 0}
    for _ in range(400):
        n, adjacency, initials, accepting, priority = _random_graph(rng)

        def labelled(s):
            return [(("edge", s, i), c) for i, c in enumerate(adjacency[s])]

        is_accepting = accepting.__contains__
        searches = [
            (_ndfs.find_accepting_cycle, payload_find_accepting_cycle, {}),
            (shortest_lassos, payload_shortest_lassos, {}),
            (shortest_lassos, payload_shortest_lassos,
             {"priority": lambda s: not is_accepting(s)}),
            (shortest_lassos, payload_shortest_lassos,
             {"priority": priority.__getitem__}),
        ]
        for new, old, extra in searches:
            for cap in [None, *range(1, n + 2)]:
                got = _outcome(new, initials, adjacency.__getitem__,
                               is_accepting, max_states=cap, **extra)
                want = _outcome(old, initials, labelled, is_accepting,
                                max_states=cap, **extra)
                assert got == want, (adjacency, initials, accepting, cap)
                if got == "budget":
                    seen["budget"] += 1
                elif new is _ndfs.find_accepting_cycle:
                    seen["cycle" if got else "no_cycle"] += 1
                else:
                    seen["several"] += len(got) > 1
    assert all(count > 50 for count in seen.values()), seen


def test_lassos_are_runs_of_the_graph():
    rng = np.random.default_rng(62)
    checked = 0
    for _ in range(200):
        _, adjacency, initials, accepting, _ = _random_graph(rng)
        found = shortest_lassos(initials, adjacency.__getitem__,
                                accepting.__contains__)
        cycle = _ndfs.find_accepting_cycle(initials, adjacency.__getitem__,
                                           accepting.__contains__)
        for lasso in found + ([cycle] if cycle else []):
            run = lasso.prefix_states + lasso.cycle_states
            assert run[0] in initials
            for a, b in zip(run, run[1:] + lasso.cycle_states[:1]):
                assert b in adjacency[a]
            assert any(s in accepting for s in lasso.cycle_states)
            checked += 1
    assert checked > 100


_SPACINGS = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2)),
             (Fraction(3, 2), Fraction(1)))


def test_on_demand_acceptance_matches_the_eager_graph():
    rng = np.random.default_rng(63)
    verdicts = set()
    for k in range(300):
        formula = random_flat_formula(rng)
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        if k % 2:
            word = random_lasso_word(rng)
        else:  # non-uniform gaps: a prefix at one spacing, a cycle at another
            letters = [frozenset(x for x in "pq" if rng.random() < 0.4)
                       for _ in range(6)]
            cut = int(rng.integers(2, 6))
            step, period = _SPACINGS[k % 3]
            word = TimedWord(
                tuple((ls, step * j) for j, ls in enumerate(letters[:cut])),
                tuple((ls, period) for ls in letters[cut:]))
            assert len(set(word.gaps())) == 2
        got = accepts_lasso(auto, word)
        assert got == payload_accepts_lasso(auto, word)
        verdicts.add(got)
    assert verdicts == {True, False}

