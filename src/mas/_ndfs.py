"""Nested depth-first search for accepting cycles, and shortest loops.

Works over implicit state graphs: ``successors(state)`` yields child states
in a fixed order, and determinism of the result follows from that order.
Edges carry no labels; callers that need an action re-derive it from the
states (``ProductWTS.agent_action``).

The lasso convention used throughout the package:

* ``prefix_states`` - states strictly before the loop (possibly empty),
* ``cycle_states``  - the loop, anchor first; its last state steps back to
  the anchor.

``find_accepting_cycle`` starts a cycle search from every state
``is_accepting`` admits, so callers should admit only states that can
recur. In the package's timed products the clock never decreases, so only
accepting locations at the saturated tick qualify
(``tba.TickClocks.recurs``); a red search from a transient state could
only fail. The breadth-first enumeration of one lasso per accepting state
is a sweep over the product's tick layers
(``synthesis.enumerate_accepting_lassos``), which closes each lasso with
``_shortest_loop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic run: the prefix, then the cycle forever."""

    prefix_states: tuple
    cycle_states: tuple


def _check_budget(count: int, max_states: int | None):
    if max_states is not None and count > max_states:
        raise BudgetExceeded(
            f"search explored more than {max_states} states")


def find_accepting_cycle(initials, successors, is_accepting,
                         max_states: int | None = None) -> Lasso | None:
    """Classic two-color nested DFS (accepting-cycle emptiness check).

    The outer DFS explores in the order ``successors`` yields; when an
    accepting state is fully expanded, an inner DFS looks for a path back to
    the outer stack, which closes an accepting cycle. The first hit (in that
    deterministic order) is reconstructed and returned. The inner DFS only
    visits states the outer one has already reached, so ``max_states``
    bounds the outer DFS alone.

    A push costs a few plain operations: the count of reached states is
    compared with the cap, and ``_check_budget`` runs only once it is over;
    a state's index on the stack is the stack's length before the push.
    """
    blue: set = set()
    red: set = set()
    cap = math.inf if max_states is None else max_states

    for root in initials:
        if root in blue:
            continue
        blue.add(root)
        if len(blue) > cap:
            _check_budget(len(blue), max_states)
        # frames: (state, successor-iterator)
        frames = [(root, iter(successors(root)))]
        on_stack = {root: 0}
        while frames:
            state, it = frames[-1]
            for child in it:
                if child not in blue:
                    blue.add(child)
                    if len(blue) > cap:
                        _check_budget(len(blue), max_states)
                    on_stack[child] = len(frames)
                    frames.append((child, iter(successors(child))))
                    break
            else:
                if is_accepting(state):
                    hit = _red_search(state, successors, red, on_stack)
                    if hit is not None:
                        return _reconstruct(frames, on_stack, hit)
                frames.pop()
                del on_stack[state]
    return None


def _red_search(seed, successors, red, on_stack):
    """Inner DFS; returns (anchor, red_states) on success.

    red_states lists the inner path seed -> .. -> anchor exclusive of both
    endpoints.
    """
    red.add(seed)
    stack = [(seed, iter(successors(seed)))]
    parents: dict = {}
    while stack:
        state, it = stack[-1]
        advanced = False
        for child in it:
            if child in on_stack:
                return child, _walk_back(state, seed, parents)
            if child not in red:
                red.add(child)
                parents[child] = state
                stack.append((child, iter(successors(child))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return None


def _walk_back(state, stop, parents) -> tuple:
    """The parent chain from ``state`` back to ``stop``, in forward order and
    exclusive of ``stop``."""
    states = []
    while state != stop:
        states.append(state)
        state = parents[state]
    states.reverse()
    return tuple(states)


def _reconstruct(frames, on_stack, hit) -> Lasso:
    anchor, red_states = hit
    idx = on_stack[anchor]
    blue_states = tuple(state for state, _ in frames)
    return Lasso(blue_states[:idx], blue_states[idx:] + red_states)


def _shortest_loop(anchor, successors) -> tuple | None:
    """BFS-shortest non-empty path anchor -> anchor; None if no loop.

    It stays inside the states reachable from the initial set, which the
    caller's search has already counted against the budget.
    """
    parent: dict = {}
    frontier = [anchor]
    last = None
    while frontier and last is None:
        nxt = []
        for state in frontier:
            for child in successors(state):
                if child == anchor:
                    last = state
                    break
                if child not in parent:
                    parent[child] = state
                    nxt.append(child)
            if last is not None:
                break
        frontier = nxt
    if last is None:
        return None
    return (anchor,) + _walk_back(last, anchor, parent)
