"""Shared builders for the test suite: graphs, hand-built transition
systems, reference evaluators, and a batched integrator for validation
sweeps."""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from mas import mitl
from mas._ndfs import Lasso, _check_budget, _shortest_loop, _walk_back
from mas.abstraction import AgentWTS, SumClassTable
from mas.bounds import deviation_remainder
from mas.errors import HorizonOverflow
from mas.graph import build_graph
from mas.tba import TRUE_GUARD, Edge, TimedAutomaton, canonical_letters


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_families():
    """The benchmark's scenario generators, ``{family: seed -> Workload}``,
    from `perfbench/families.py`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_families", PERFBENCH / "families.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.FAMILIES


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------

def path_graph(agent_count: int, dimension: int = 1):
    edges = [(i, i + 1) for i in range(1, agent_count)]
    return build_graph(agent_count, edges, dimension)


def random_connected_graph(rng: np.random.Generator, max_agents: int = 6,
                           max_dimension: int = 3):
    """Random connected graph: a random spanning tree plus random extras."""
    n = int(rng.integers(2, max_agents + 1))
    dim = int(rng.integers(1, max_dimension + 1))
    edges = set()
    nodes = list(rng.permutation(np.arange(1, n + 1)))
    for k in range(1, len(nodes)):
        a = int(nodes[int(rng.integers(0, k))])
        b = int(nodes[k])
        edges.add((min(a, b), max(a, b)))
    extras = int(rng.integers(0, n))
    for _ in range(extras):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return build_graph(n, sorted(edges), dim)


# --------------------------------------------------------------------------
# hand-built transition systems
# --------------------------------------------------------------------------

def class_table(table) -> SumClassTable:
    """The class table whose ``enabled(own, neighbors)`` answers as
    ``table.get((own,) + neighbors, ())`` does, up to the order of the
    targets, which it sorts: every neighbor tuple is its own class, and
    actions with no target are left out. Rows keep the table's order."""
    classes: dict[tuple[int, ...], int] = {}
    keys, rows = [], []
    for action, enabled in table.items():
        c = classes.setdefault(action[1:], len(classes))
        if enabled:
            keys.append((action[0], c))
            rows.append(set(enabled))
    cells = sorted(set().union(*rows))
    ok = np.array([[t in row for t in cells] for row in rows], dtype=bool)
    return SumClassTable(classes, keys, cells, np.packbits(
        ok.reshape(len(rows), len(cells)), axis=1))


def enabled_actions(w: AgentWTS) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every action tuple of ``w`` with a target, in ``itertools.product``
    order, mapped to its targets."""
    out = {}
    for action in itertools.product(w.cells,
                                    repeat=len(w.neighbor_agents) + 1):
        targets = w.transitions.enabled(action[0], action[1:])
        if targets:
            out[action] = targets
    return out


def granted_chain_wts(agent, chain, labels, neighbors, all_cells, dt):
    """WTS that grants chain progression plus staying, under every
    combination of neighbor cells (the fully-granted transition table used
    by the planning examples)."""
    cells = tuple(sorted(all_cells))
    table: dict[tuple[int, ...], set[int]] = {}
    for ci, cell in enumerate(chain):
        targets = [chain[ci + 1]] if ci + 1 < len(chain) else []
        targets.append(cell)  # staying is always granted
        for nbr_cells in itertools.product(cells, repeat=len(neighbors)):
            key = (cell,) + tuple(nbr_cells)
            table.setdefault(key, set()).update(targets)
    return AgentWTS(
        agent=agent, cells=cells, initial=chain[0], dt=dt,
        labels={c: frozenset(l) for c, l in labels.items()},
        transitions=class_table(
            {k: tuple(sorted(v)) for k, v in table.items()}),
        neighbor_agents=tuple(neighbors))


def four_state_timed_wts(dt: float = 1.0) -> AgentWTS:
    """Three-cell system with one green cell; every move takes ``dt``.

    s0 -> s1, s1 -> s0, s1 -> s2, s2 -> s1; L(s0)={green}, so green recurs
    at even multiples of dt. Cells are numbered 0, 1, 2 and the agent has
    no neighbors.
    """
    transitions = {(0,): (1,), (1,): (0, 2), (2,): (1,)}
    return AgentWTS(
        agent=1, cells=(0, 1, 2), initial=0, dt=dt,
        labels={0: frozenset({"green"})},
        transitions=class_table(transitions))


def planning_example(dt):
    """Three agents on a star graph with fully-granted 4-cell chains.

    Agent 1 walks 14-17-10-20 toward a yellow cell, agent 2 walks
    28-27-24-22 through a red cell, agent 3 walks 2-13-5-9 toward a blue
    cell; goals are F[0,6] yellow, F[3,10] red and F[3,9] blue.
    Returns (wts_list, graph, formulas).
    """
    from mas.mitl import parse

    g = build_graph(3, [(1, 2), (1, 3)])
    cells = tuple(range(1, 31))
    w1 = granted_chain_wts(1, (14, 17, 10, 20), {20: {"yellow"}}, (2, 3),
                           cells, dt)
    w2 = granted_chain_wts(2, (28, 27, 24, 22), {24: {"red"}}, (1,),
                           cells, dt)
    w3 = granted_chain_wts(3, (2, 13, 5, 9), {9: {"blue"}}, (1,), cells, dt)
    formulas = {1: parse("F[0,6] yellow"), 2: parse("F[3,10] red"),
                3: parse("F[3,9] blue")}
    return [w1, w2, w3], g, formulas


# --------------------------------------------------------------------------
# reference semantics (independent of mas.mitl internals)
# --------------------------------------------------------------------------

def reference_eval(letters, times, formula, position=0):
    """Textbook pointwise semantics over an explicitly unrolled finite slice.

    ``letters``/``times`` must be unrolled far enough that every temporal
    window the check touches is fully inside the slice; the helpers below
    only use it on short formulas over generously unrolled lassos.
    """
    from mas import mitl

    f = formula
    if isinstance(f, mitl.Atom):
        return f.name in letters[position]
    if isinstance(f, mitl.Not):
        return not reference_eval(letters, times, f.arg, position)
    if isinstance(f, mitl.And):
        return (reference_eval(letters, times, f.left, position)
                and reference_eval(letters, times, f.right, position))
    base = times[position]

    def in_window(j):
        return f.interval.contains(times[j] - base)

    def beyond(j):
        rel = times[j] - base
        hi = f.interval.hi
        return hi is not None and (rel > hi or (f.interval.hi_open and rel == hi))

    if isinstance(f, mitl.Next):
        j = position + 1
        return (j < len(letters) and in_window(j)
                and reference_eval(letters, times, f.arg, j))
    if isinstance(f, mitl.Eventually):
        for j in range(position, len(letters)):
            if beyond(j):
                return False
            if in_window(j) and reference_eval(letters, times, f.arg, j):
                return True
        raise AssertionError("slice too short for reference evaluation")
    if isinstance(f, mitl.Always):
        for j in range(position, len(letters)):
            if beyond(j):
                return True
            if in_window(j) and not reference_eval(letters, times, f.arg, j):
                return False
        raise AssertionError("slice too short for reference evaluation")
    if isinstance(f, mitl.Until):
        for j in range(position, len(letters)):
            if beyond(j):
                return False
            if in_window(j) and reference_eval(letters, times, f.right, j):
                return True
            if not reference_eval(letters, times, f.left, j):
                return False
        raise AssertionError("slice too short for reference evaluation")
    raise TypeError(f"unknown formula node {type(f).__name__}")


def unroll(word, count):
    """First ``count`` (letter, absolute time) pairs of an eventually
    periodic timed word."""
    letters, times = [], []
    for j in range(count):
        letters.append(word.letter(j))
        times.append(word.time(j))
    return letters, times


# --------------------------------------------------------------------------
# automata, random flat formulas and lasso words
# --------------------------------------------------------------------------

def universal_acceptor(alphabet) -> TimedAutomaton:
    """Automaton accepting every timed word over the alphabet."""
    sigma = frozenset(alphabet)
    letters = canonical_letters(sigma)
    locations = [("any", lt) for lt in letters]
    edges = [Edge(src, TRUE_GUARD, dst) for src in locations
             for dst in locations]
    return TimedAutomaton(
        locations=locations, initial=locations, edges=edges,
        accepting=locations, labels={loc: loc[1] for loc in locations},
        alphabet=sigma)


def random_flat_formula(rng: np.random.Generator, names=("p", "q"),
                        max_constant: int = 5):
    """Random member of the translatable fragment: a conjunction of F/G/U/X
    units with integer window endpoints and propositional operands."""
    from mas import mitl

    def literal():
        atom = mitl.Atom(str(rng.choice(names)))
        if rng.random() < 0.3:
            return mitl.Not(atom)
        if rng.random() < 0.2:
            other = mitl.Atom(str(rng.choice(names)))
            return mitl.And(atom, other)
        return atom

    def interval():
        lo = int(rng.integers(0, max_constant))
        if rng.random() < 0.15:
            hi, hi_open = None, True
        else:
            hi = int(rng.integers(lo + 1, max_constant + 1))
            hi_open = bool(rng.random() < 0.25)
        return mitl.Interval(Fraction(lo), None if hi is None else Fraction(hi),
                             lo_open=bool(rng.random() < 0.25),
                             hi_open=hi_open)

    def unit():
        kind = rng.choice(["F", "G", "U", "X"])
        iv = interval()
        if kind == "F":
            out = mitl.Eventually(iv, literal())
        elif kind == "G":
            out = mitl.Always(iv, literal())
        elif kind == "X":
            out = mitl.Next(iv, literal())
        else:
            out = mitl.Until(iv, literal(), literal())
        if kind in ("F", "G") and rng.random() < 0.2:
            out = mitl.Not(out)  # exercised via duality
        return out

    formula = unit()
    if rng.random() < 0.35:
        formula = mitl.And(formula, unit())
    return formula


def random_lasso_word(rng: np.random.Generator, names=("p", "q"),
                      max_length: int = 12, dt=1):
    """Random ultimately periodic word, total length <= max_length."""
    from mas import mitl

    letters = [frozenset(n for n in names if rng.random() < 0.4)
               for _ in range(max_length)]
    cycle_len = int(rng.integers(1, max_length + 1))
    prefix_len = int(rng.integers(0, max_length - cycle_len + 1))
    return mitl.word_from_lasso(letters[:prefix_len],
                                letters[prefix_len:prefix_len + cycle_len], dt)


# --------------------------------------------------------------------------
# the generic breadth-first lasso enumerator (oracle for the tick-layered
# sweep of synthesis.enumerate_accepting_lassos)
# --------------------------------------------------------------------------

def shortest_lassos(initials, successors, is_accepting,
                    max_states: int | None = None,
                    priority=None) -> list[Lasso]:
    """One canonical lasso per reachable accepting state.

    The stem is BFS-shortest from the initial set; the loop is BFS-shortest
    from the accepting state back to itself. Results are ordered by
    (stem length, loop length, discovery order), which makes downstream
    combination search deterministic.

    ``priority(state)`` (lower first, stable) orders expansion within each
    BFS layer. Ties between equal-length stems are then broken in favor of
    parent chains through low-priority states, e.g. passing a
    ``not is_accepting(state)`` priority records stems that reach accepting
    territory at the earliest possible depth.

    Every reachable state ``is_accepting`` admits is tried as an anchor, so
    callers pass anchors that can recur: an anchor without a loop is
    dropped, at the cost of one BFS.
    """
    parent: dict = {}
    order: list = []
    frontier = []
    for root in initials:
        if root not in parent:
            parent[root] = None
            frontier.append(root)
            order.append(root)
    _check_budget(len(parent), max_states)
    while frontier:
        if priority is not None:
            frontier.sort(key=priority)
        nxt = []
        for state in frontier:
            for child in successors(state):
                if child not in parent:
                    parent[child] = state
                    _check_budget(len(parent), max_states)
                    nxt.append(child)
                    order.append(child)
        frontier = nxt

    found = []
    for disc, anchor in enumerate(order):
        if not is_accepting(anchor):
            continue
        loop = _shortest_loop(anchor, successors)
        if loop is None:
            continue
        stem = _walk_back(parent[anchor], None, parent)
        found.append((len(stem), len(loop), disc, Lasso(stem, loop)))
    found.sort(key=lambda item: item[:3])
    return [item[3] for item in found]


# --------------------------------------------------------------------------
# timed words with one Fraction per position, and their evaluator (oracle
# for the tick words of mas.mitl)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionWord:
    """Ultimately periodic timed word holding every time as a Fraction:
    ``prefix`` is (services, absolute timestamp) pairs, strictly
    increasing, and ``cycle`` (services, duration) pairs, positive,
    repeated forever after the prefix."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        def normal(steps):
            return tuple((frozenset(map(str, services)), mitl.to_fraction(t))
                         for services, t in steps)

        prefix, cycle = normal(self.prefix), normal(self.cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)
        if not prefix:
            raise ValueError("timed word needs a non-empty prefix")
        if not cycle:
            raise ValueError("timed word needs a non-empty cycle")
        for (_, a), (_, b) in itertools.pairwise(prefix):
            if b <= a:
                raise ValueError(f"prefix timestamps must increase: {a} then {b}")
        for _, d in cycle:
            if d <= 0:
                raise ValueError(f"cycle durations must be positive, got {d}")

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)

    @cached_property
    def period(self) -> Fraction:
        return sum((d for _, d in self.cycle), Fraction(0))

    @cached_property
    def _cycle_offsets(self) -> tuple:
        return tuple(itertools.accumulate(d for _, d in self.cycle))

    def canonical(self, position: int) -> int:
        p = self.prefix_length
        return position if position < p \
            else p + (position - p) % self.cycle_length

    def letter(self, position: int) -> frozenset:
        p = self.prefix_length
        if position < p:
            return self.prefix[position][0]
        return self.cycle[(position - p) % self.cycle_length][0]

    def time(self, position: int) -> Fraction:
        p = self.prefix_length
        if position < p:
            return self.prefix[position][1]
        wraps, k = divmod(position - p, self.cycle_length)
        return self.prefix[-1][1] + wraps * self.period \
            + self._cycle_offsets[k]

    def gaps(self) -> list:
        times = [t for _, t in self.prefix]
        out = [b - a for a, b in itertools.pairwise(times)]
        out.append(self.time(self.prefix_length) - times[-1])
        out.extend(d for _, d in self.cycle)
        return out


def fraction_word_from_lasso(letters_prefix, letters_cycle,
                             dt) -> FractionWord:
    """Word of a uniformly sampled lasso run: position j occurs at j*dt."""
    step = mitl.to_fraction(dt)
    prefix = [(ls, step * j) for j, ls in enumerate(letters_prefix)]
    cycle = [(ls, step) for ls in letters_cycle]
    if not prefix:
        prefix = [(ls, step * j) for j, ls in enumerate(letters_cycle)]
    return FractionWord(tuple(prefix), tuple(cycle))


class FractionEvaluation:
    """Memoised pointwise evaluation over a ``FractionWord``, every window
    decided on Fraction gaps."""

    def __init__(self, word: FractionWord, budget: int):
        self.word, self.memo, self.left = word, {}, budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise HorizonOverflow("formula evaluation exceeded its budget")

    def scan(self, i: int, interval):
        word = self.word
        base = word.time(i)
        j, last = i, None
        while True:
            self.spend()
            gap = word.time(j) - base
            inside = interval.contains(gap)
            yield j, inside
            if interval.hi is not None:
                if gap > interval.hi or (interval.hi_open
                                         and gap == interval.hi):
                    return
            else:
                if last is None and inside and j >= word.prefix_length:
                    last = j + word.cycle_length - 1
                if last is not None and j >= last:
                    return
            j += 1

    def at(self, f, i: int) -> bool:
        word = self.word
        i = word.canonical(i)
        key = (id(f), i)
        if key in self.memo:
            return self.memo[key]
        match f:
            case mitl.Atom(name):
                result = name in word.letter(i)
            case mitl.Not(arg):
                result = not self.at(arg, i)
            case mitl.And(left, right):
                result = self.at(left, i) and self.at(right, i)
            case mitl.Next(interval, arg):
                result = interval.contains(word.time(i + 1) - word.time(i)) \
                    and self.at(arg, i + 1)
            case mitl.Eventually(interval, arg):
                result = any(inside and self.at(arg, j)
                             for j, inside in self.scan(i, interval))
            case mitl.Always(interval, arg):
                result = all(not inside or self.at(arg, j)
                             for j, inside in self.scan(i, interval))
            case mitl.Until(interval, left, right):
                result = False
                for j, inside in self.scan(i, interval):
                    if inside and self.at(right, j):
                        result = True
                        break
                    if not self.at(left, j):
                        break
            case _:
                raise TypeError(f"not a formula node: {f!r}")
        self.memo[key] = result
        return result


def fraction_evaluate(word: FractionWord, formula, position: int = 0,
                      budget: int = 100_000) -> bool:
    return FractionEvaluation(word, budget).at(formula, position)


def fraction_witness_instant(word: FractionWord, formula):
    """First in-window time witnessing a top-level eventually-goal."""
    if not isinstance(formula, mitl.Eventually):
        return None
    run = FractionEvaluation(word, 100_000)
    for j, inside in run.scan(0, formula.interval):
        if inside and run.at(formula.arg, j):
            return word.time(j)
    return None


# --------------------------------------------------------------------------
# the feedback law, per agent (oracle for the all-agents form)
# --------------------------------------------------------------------------

def reference_drift(g, agent, positions):
    """Consensus drift of one agent, summed over its neighbor list."""
    own = positions[agent - 1]
    return -sum(own - positions[j - 1] for j in g.neighbors(agent))


def reference_feedback(g, agent, positions, center, dt, v_max):
    """One agent's input v = (C - x_i)/dt - f_i(x), scaled back onto the
    input bound when longer; returns (input, clamped)."""
    own = positions[agent - 1]
    v = (center - own) / dt - reference_drift(g, agent, positions)
    norm = float(np.linalg.norm(v))
    if norm > v_max:
        return v * (v_max / norm), True
    return v, False


# --------------------------------------------------------------------------
# the abstraction one source cell at a time (oracle for the array build)
# --------------------------------------------------------------------------

def _source_box_distances(own_lo, own_hi, sums, deg, centers, dt):
    """(A, T) worst distances from one source's bounds, against the A rows
    of the neighbor sums (lows, highs), to the T target centers."""
    ends = [own + dt * (total - deg * own)
            for own in (own_lo, own_hi) for total in sums]
    lo = np.minimum.reduce(ends)[:, None, :]
    hi = np.maximum.reduce(ends)[:, None, :]
    far = np.maximum(np.abs(centers[None] - lo), np.abs(centers[None] - hi))
    return np.linalg.norm(far, axis=2)


@dataclass
class PerSourceTable:
    classes: dict[tuple[int, ...], int]
    targets: dict[tuple[int, int], tuple[int, ...]]
    length: int
    transition_count: int
    successors: dict[int, tuple[int, ...]]


def per_source_table(g, agent, decomp, bounds, disc) -> PerSourceTable:
    """One agent's class table as a loop over source cells builds it: one
    box test of all (class, target) pairs per source, one ``compress`` per
    (source, class), counts summed over the entries and successors over
    their targets."""
    nbrs = g.neighbors(agent)
    cells = tuple(range(1, decomp.cell_count + 1))
    dt = disc.chosen_dt
    budget = bounds.lambda_reach * bounds.v_max * dt
    rho = deviation_remainder(bounds, dt)
    centers = np.array([decomp.center(c) for c in cells])
    inradii = np.array([decomp.inradius(c) for c in cells])
    sized = np.nonzero(rho <= inradii)[0]
    nbr_cells = np.array(list(itertools.product(cells, repeat=len(nbrs))),
                         dtype=int).reshape(len(cells) ** len(nbrs), len(nbrs))
    sums = np.hstack([decomp.lows[nbr_cells - 1].sum(axis=1),
                      decomp.highs[nbr_cells - 1].sum(axis=1)])
    keys, inverse = np.unique(sums, axis=0, return_inverse=True)
    classes = dict(zip(map(tuple, nbr_cells.tolist()),
                       inverse.reshape(-1).tolist()))
    key_sums = np.hsplit(keys, 2)
    target_cells = (sized + 1).tolist()
    targets = {}
    for source in cells:
        ok = _source_box_distances(
            decomp.lows[source - 1], decomp.highs[source - 1], key_sums,
            len(nbrs), centers[sized], dt) <= budget
        for c, row in enumerate(ok.tolist()):
            enabled = tuple(itertools.compress(target_cells, row))
            if enabled:
                targets[source, c] = enabled
    sizes = {}
    for c in classes.values():
        sizes[c] = sizes.get(c, 0) + 1
    reach: dict[int, set[int]] = {}
    for (source, _), enabled in targets.items():
        reach.setdefault(source, set()).update(enabled)
    return PerSourceTable(
        classes=classes, targets=targets,
        length=sum(sizes[c] for _, c in targets),
        transition_count=sum(sizes[c] * len(enabled)
                             for (_, c), enabled in targets.items()),
        successors={s: tuple(sorted(ts, key=lambda t: (t == s, t)))
                    for s, ts in reach.items()})


def scalar_certificate(center, dt, rho, action, target):
    """One move's certificate, the feedback law evaluated for that move
    alone with ``center(cell)`` the cell centers: (nominal input, its norm,
    remainder)."""
    own = center(action[0])
    drift = np.zeros_like(own)
    for c in action[1:]:
        drift -= own - center(c)
    nominal = (center(target) - own - dt * drift) / dt
    return nominal, float(np.linalg.norm(nominal)), rho


# --------------------------------------------------------------------------
# batched integration (validation sweeps)
# --------------------------------------------------------------------------

def batched_rk4(g, starts: np.ndarray, inputs: np.ndarray, dt: float,
                substeps: int = 8) -> np.ndarray:
    """Integrate many consensus trajectories at once over one interval.

    ``starts``/``inputs`` have shape (batch, agents, dimension); the input is
    held constant over the interval. Returns the batch of endpoint states.
    """
    lap = g.laplacian
    h = dt / substeps

    def f(x):
        return -np.einsum("ij,bjk->bik", lap, x) + inputs

    x = starts.astype(float).copy()
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# --------------------------------------------------------------------------
# misc
# --------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fraction(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)
