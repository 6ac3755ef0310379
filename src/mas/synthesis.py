"""Joint plan synthesis: automata products, lasso search, run alignment.

The planner works in stages:

1. translate each agent's formula into a timed Büchi automaton over the
   letters its cells emit;
2. build each agent's (transition system x automaton) product and enumerate
   candidate accepting lassos, cheapest first; an agent whose product has
   none makes the whole problem unsatisfiable (its system allows every
   neighbor move, so every joint run projects onto a run of it);
3. try combinations of per-agent lassos (lexicographically, up to an
   iteration budget): align them to a common prefix/period and keep the first
   combination whose joint behavior every agent's transition table allows;
   a combination that agrees with the last rejected one up to that one's
   disallowed move is rejected without a walk;
4. if that fails, search the full product of all agents against the
   intersection of all automata with a nested depth-first search - absence of
   an accepting lasso there proves unsatisfiability;
5. package the joint run as per-agent plans with timestamps, actions and the
   abstraction's transition certificates.

A lasso is a sequence of product states (``_ndfs.Lasso``); search graphs
carry no edge labels, so step 5 re-derives each agent's action from the
joint state it moves from, as ``ProductWTS.agent_action`` defines it.

Product states are flat tuples (system state, location number, clock tick):
the automaton's locations are numbered as the search meets them
(``tba.TickClocks.number``), and the one clock is the time since the run
began. Every move of the abstraction takes one sampling period dt, so the
clock counts integer ticks of dt (``tba.TickClocks``) and each move
advances it by one tick, exact without rational arithmetic; guards are
evaluated at the post-delay value, and the clock saturates above the
automaton's largest constant. A product state is only formed when the
system state's service set equals the automaton location's letter. Step 2
searches each agent's cell graph with the neighbor assumptions quotiented
away (``AgentWTS.successors``).
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator

from . import _ndfs
from ._ndfs import Lasso
from .abstraction import AgentWTS, ProductWTS, TransitionCertificate
from .errors import LengthMismatch, Unsatisfiable
from .graph import NetworkGraph
from .mitl import (MitlFormula, TimedWord, evaluate, formula_to_text,
                   to_fraction, witness_instant, word_from_lasso)
from .tba import TickClocks, TimedAutomaton, from_flat_mitl, intersect

logger = logging.getLogger(__name__)

DEFAULT_R_ITER = 10**4
DEFAULT_LCM_CAP = 10**3
DEFAULT_STATE_CAP = 10**6


class BuchiProduct:
    """Lazy product of a transition system with a timed Büchi automaton.

    The system's ``successors(s)`` returns child states, and every move
    takes its sampling period ``dt``, so a product state is (system state,
    location number, k) with k the automaton's one clock in ticks of dt,
    and each move advances k by one tick; ``location(i)`` reads a number
    back (``TickClocks.number``). Each system state's children are paired
    with their letters once per product (``labelled``: (s2,
    ``system.label(s2)``) in ``system.successors`` order), and both
    ``moves`` and ``successors`` read that list, so no child's label is
    asked for twice. ``moves(s, q, k)`` gives the (s2, target) pairs that
    tick k admits, s2 in that order and then the edges into s2's letter
    in their order. They are memoised once per (system state, location,
    guard segment of the location), in the location's ``memo``, and
    filled on first use, since the per-agent sweep (`_tick_layers`) asks
    for ticks in any order and expands every pair it reaches.
    ``successors`` of the product yields the same pairs with the next
    tick, one child at a time: a depth-first search takes the first child
    it has not seen and may never come back for the rest, so a state
    whose memo entry is not filled has its children made from its
    labelled list only as the search reaches them, and the memo stays as
    it was. Since k never decreases, a state below the saturated tick
    lies on no cycle; ``accepting`` admits only accepting locations at
    the saturated tick (``TickClocks.recurs``).
    """

    def __init__(self, system, automaton: TimedAutomaton):
        self.system = system
        self.automaton = automaton
        self.clocks = TickClocks(automaton, to_fraction(system.dt))
        # q -> (segment of each tick, tables, one {s: pairs} per segment)
        self._moves: dict[int, tuple] = {}
        # s -> its (child, child's letter) pairs
        self._labelled: dict = {}

    def location(self, i: int):
        return self.clocks.locations[i]

    def initial(self) -> list[tuple]:
        number = self.clocks.number
        return [(s, number(q), 0) for s in self.system.initial_states()
                for q in self.automaton.initial
                if self.automaton.labels[q] == self.system.label(s)]

    def memo(self, q: int) -> tuple[list[int], list[dict], list[dict]]:
        """Location number q's guard segments (``TickClocks.segments``)
        and its memo, one {s: (s2, target) pairs} dict per segment."""
        entry = self._moves.get(q)
        if entry is None:
            segment_of, tables = self.clocks.segments(q)
            entry = self._moves[q] = segment_of, tables, [{} for _ in tables]
        return entry

    def labelled(self, s) -> list[tuple]:
        """(s2, ``system.label(s2)``) for each s2 of
        ``system.successors(s)``, in its order, built once per state."""
        pairs = self._labelled.get(s)
        if pairs is None:
            label = self.system.label
            pairs = self._labelled[s] = [
                (s2, label(s2)) for s2 in self.system.successors(s)]
        return pairs

    def moves(self, s, q: int, k: int) -> list[tuple]:
        """The (s2, target) pairs from (s, q) whose guard admits tick k."""
        segment_of, tables, by_segment = self._moves.get(q) or self.memo(q)
        segment = segment_of[k]
        by_state = by_segment[segment]
        pairs = by_state.get(s)
        if pairs is None:
            table = tables[segment]
            pairs = by_state[s] = [
                (s2, target) for s2, letter in self.labelled(s)
                for target in table.get(letter, ())]
        return pairs

    def successors(self, state: tuple) -> Iterator[tuple]:
        """The children (s2, target, next tick) of a product state, in
        ``moves`` order, each made when the caller reaches it: read from
        the memo where ``moves`` has filled it, else from the state's
        ``labelled`` list and the guard segment's table, without filling
        the memo."""
        s, q, k = state
        sat = self.clocks.sat
        k = k + 1 if k + 1 < sat else sat
        segment_of, tables, by_segment = self._moves.get(q) or self.memo(q)
        segment = segment_of[k]
        pairs = by_segment[segment].get(s)
        if pairs is not None:
            for s2, target in pairs:
                yield s2, target, k
            return
        table = tables[segment]
        for s2, letter in self.labelled(s):
            for target in table.get(letter, ()):
                yield s2, target, k

    def accepting(self, state: tuple) -> bool:
        return self.clocks.recurs(state[1], state[2])


def find_accepting_lasso(product: BuchiProduct,
                         max_states: int = DEFAULT_STATE_CAP) -> Lasso | None:
    """Nested-DFS emptiness check; returns the first accepting lasso found."""
    return _ndfs.find_accepting_cycle(
        product.initial(), product.successors, product.accepting,
        max_states=max_states)


def _tick_layers(product: BuchiProduct,
                 max_states: int | None) -> tuple[list[list], list[list]]:
    """The sweep of `enumerate_accepting_lassos`: its layers of (state,
    location) pairs, and for each layer after the first the index in the
    layer before of each pair's parent.

    A layer d below ``sat`` that equals an earlier layer j, as an ordered
    list, repeats the layers from j on with period p = d - j for as long as
    every location of layers j .. d - 1 stays in the guard segment it has
    at tick j + 1: until ``stop``, the first tick at which one of them
    leaves it, or ``sat``. Layers d + 1 .. stop - 1 are then the same list
    objects, and their parent lists too, as layers p earlier, and their
    pairs count against ``max_states`` without being expanded again.
    """
    clocks = product.clocks
    sat, accepting = clocks.sat, clocks.accepting
    memo, moves = product.memo, product.moves
    layer = list(dict.fromkeys((s, q) for s, q, _ in product.initial()))
    layers, parents = [layer], [None]
    count = len(layer)
    _ndfs._check_budget(count, max_states)
    shared: set = set()      # sat >= 1, so layer 0 lies below it
    # below sat: each layer's pairs -> its latest depth
    depth_of: dict[tuple, int] = {tuple(layer): 0}
    while layer:
        d = len(layers)      # the depth of the layer being built
        k = d if d < sat else sat
        seen = set() if d < sat else shared
        nxt: list[tuple] = []
        up: list[int] = []
        order = [i for i, pair in enumerate(layer) if accepting[pair[1]]]
        order += [i for i, pair in enumerate(layer) if not accepting[pair[1]]]
        # location -> its memo dict at tick k; every location of the layer
        # was numbered while the layer before was built
        at: list[dict | None] = [None] * len(clocks.locations)
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
        if d >= sat:
            continue
        key = tuple(nxt)
        j = depth_of.get(key)
        depth_of[key] = d
        if j is None:
            continue
        p, stop = d - j, sat
        for q in {q for held in layers[j:d] for _, q in held}:
            segment_of = memo(q)[0]   # non-decreasing over the ticks
            stop = min(stop, bisect.bisect_right(segment_of,
                                                 segment_of[j + 1]))
        for e in range(d + 1, stop):
            layers.append(layers[e - p])
            parents.append(parents[e - p])
            count += len(layers[e])
        _ndfs._check_budget(count, max_states)
        for e in range(max(d + 1, stop - p), stop):
            depth_of[tuple(layers[e])] = e
        layer = layers[-1]
    return layers, parents


def enumerate_accepting_lassos(product: BuchiProduct,
                               max_states: int = DEFAULT_STATE_CAP) -> list[Lasso]:
    """One canonical lasso per reachable accepting state, cheapest first.

    The stem is breadth-first shortest from the initial states, the loop
    breadth-first shortest from the accepting state back to itself
    (``_ndfs._shortest_loop``), and the lassos are ordered by (stem length,
    loop length, discovery order).

    The clock is never reset, so every state at depth d below the
    saturated tick has tick d, and every later one has tick ``sat``: the
    breadth-first search is a sweep over layers of (state, location)
    pairs, layer d at tick min(d, sat) (`_tick_layers`). Each layer
    expands its pairs at accepting locations first, in discovery order,
    then the rest, so stems reach accepting territory as early as they
    can; a child's parent is the first pair that reaches it, kept as an
    index into the layer before. A pair is new to a layer below ``sat`` if
    that layer has not met it, and new to a layer at ``sat`` if no layer at
    ``sat`` has; every new pair counts against ``max_states``. The anchors
    are the accepting pairs of the layers at ``sat``. Each layer looks up
    each of its locations' guard segment once, and a pair's moves come
    straight from ``product.moves``'s memo when it holds them.

    Below ``sat`` each guard segment applies one fixed map from a layer to
    the next, so the layers soon repeat: a layer equal to an earlier one
    is followed by copies of the layers after that one, for as long as
    their locations keep their guard segments, and those are replayed
    rather than expanded. They are the same lists the full sweep would
    build and count the same against ``max_states``. The layers at ``sat``
    share one seen set and are always expanded.

    Stems share their prefixes, since every pair has one parent: an
    anchor's stem is walked back through the parent indices only until it
    meets a (depth, index) pair that an earlier stem passed through, and
    that stem's pairs up to it are reused.
    """
    layers, parents = _tick_layers(product, max_states)
    sat, accepting = product.clocks.sat, product.clocks.accepting
    found = []
    # (depth, index) of every pair a stem has passed -> that stem
    through: dict[tuple[int, int], tuple] = {}
    for d in range(sat, len(layers)):
        for i, (s, q) in enumerate(layers[d]):
            if not accepting[q]:
                continue
            loop = _ndfs._shortest_loop((s, q, sat), product.successors)
            if loop is None:
                continue
            # built in one list: short slices and partial tuples, freed
            # at once, would stay in CPython's tuple free lists and raise
            # the process's resident memory over many calls
            walked, p, j = [], i, d
            stem = []
            while j:
                p = parents[j][p]
                j -= 1
                earlier = through.get((j, p))
                if earlier is not None:
                    stem.extend(itertools.islice(earlier, j + 1))
                    break
                walked.append((j, p))
            stem.extend((*layers[e][p], e if e < sat else sat)
                        for e, p in reversed(walked))
            stem = tuple(stem)
            through.update(dict.fromkeys(walked, stem))
            found.append((d, len(loop), Lasso(stem, loop)))
    # stable, so equal keys keep discovery order
    found.sort(key=lambda item: item[:2])
    return [item[2] for item in found]


# --------------------------------------------------------------------------
# run alignment and consistency
# --------------------------------------------------------------------------

def _cell_at(prefix: tuple, cycle: tuple, position: int):
    p = len(prefix)
    if position < p:
        return prefix[position]
    return cycle[(position - p) % len(cycle)]


def _positions(run: tuple[tuple, tuple], n: int) -> Iterator:
    """The cells of a (prefix, cycle) run at positions 0 .. n - 1, the
    cycle repeated."""
    prefix, cycle = run
    return itertools.islice(itertools.chain(prefix, itertools.cycle(cycle)),
                            n)


def _aligned_shape(runs: list[tuple[tuple, tuple]],
                   lcm_cap: int) -> tuple[int, int]:
    """(common prefix length, common period) of runs: the longest prefix
    and the lcm of the cycle lengths, LengthMismatch above ``lcm_cap``."""
    p_star = max(len(prefix) for prefix, _ in runs)
    c_star = math.lcm(*(len(cycle) for _, cycle in runs))
    if c_star > lcm_cap:
        raise LengthMismatch(
            f"aligned period {c_star} exceeds the budget {lcm_cap}")
    return p_star, c_star


def align_runs(runs: list[tuple[tuple, tuple]],
               lcm_cap: int = DEFAULT_LCM_CAP) -> list[tuple[tuple, tuple]]:
    """Reslice per-agent (prefix, cycle) runs to their common prefix and
    period (``_aligned_shape``)."""
    p_star, c_star = _aligned_shape(runs, lcm_cap)
    out = []
    for run in runs:
        run = tuple(_positions(run, p_star + c_star))
        out.append((run[:p_star], run[p_star:]))
    return out


def consistent(runs: list[tuple[tuple, tuple]], product: ProductWTS,
               lcm_cap: int = DEFAULT_LCM_CAP,
               disallowed: list[int] | None = None) -> bool:
    """Whether per-agent runs can be executed jointly.

    Over the runs' common prefix and period (``_aligned_shape``), every
    step's joint move must be allowed by every agent's transition table
    under the action derived from the joint state, that is, the next joint
    state must be one of ``product.successors`` of the current one. The
    runs are walked once, as given, and the walk stops at the first
    disallowed move, from position m to m + 1; m is appended to
    ``disallowed`` when a list is given. Step 3 remembers it
    (``_combine``): a later combination whose runs agree with these up to
    position m + 1 fails at the same move and is not walked, so every
    successor list it would read is one this walk read. Those lists stay
    in the product's cache, where the joint search of step 4 finds them.
    """
    p_star, c_star = _aligned_shape(runs, lcm_cap)
    successors = product.successors
    walk = zip(*(_positions(run, p_star + c_star + 1) for run in runs))
    joint = next(walk)
    for m, joint_next in enumerate(walk):
        if joint_next not in successors(joint):
            if disallowed is not None:
                disallowed.append(m)
            return False
        joint = joint_next
    return True


def _combine(per_agent: list[list[Lasso]], product: ProductWTS,
             r_iter: int) -> tuple[int, list | None]:
    """Step 3: (the number of combinations tried, the cell runs of the
    first consistent one, or None).

    Combinations of per-agent lassos are tried in lexicographic order, up
    to ``r_iter`` of them, each lasso projected to its cells when one
    first uses it. A combination whose period exceeds ``DEFAULT_LCM_CAP``
    is skipped (``_aligned_shape``); the others are walked by
    ``consistent``.
    A failed walk is remembered: its disallowed move m and each run's
    cells at positions 0 .. m + 1. A later combination whose runs have
    those cells fails at move m too, so it counts as tried without a walk.
    (Its walk reaches move m: a shorter walk, being periodic, would make
    move m's joint move from an earlier position, where it was allowed.)
    Whether a lasso's cells are the remembered ones is worked out once per
    (agent, lasso) and remembered walk.
    """
    tried = 0
    # each lasso's cells, projected when a combination first uses it
    projected: list[list] = [[None] * len(lassos) for lassos in per_agent]
    # the remembered walk: its disallowed move, each agent's cells through
    # it, and per (agent, lasso) whether its cells agree there (None until
    # asked); no walk has failed while ``failed`` is None
    failed, walked, agrees = None, [], []
    for picks in itertools.product(*(range(len(ls)) for ls in per_agent)):
        if tried >= r_iter:
            logger.info("combination budget %d exhausted", r_iter)
            break
        tried += 1
        runs = []
        for lassos, cells, i in zip(per_agent, projected, picks):
            if cells[i] is None:
                cells[i] = _project_cells(lassos[i], None)
            runs.append(cells[i])
        try:
            _aligned_shape(runs, DEFAULT_LCM_CAP)
        except LengthMismatch:
            continue
        if failed is not None:
            for known, cells, run, i in zip(agrees, walked, runs, picks):
                if known[i] is None:
                    known[i] = tuple(_positions(run, failed + 2)) == cells
                if not known[i]:
                    break
            else:
                continue     # it fails at the remembered move
        disallowed: list[int] = []
        if consistent(runs, product, DEFAULT_LCM_CAP, disallowed):
            return tried, runs
        failed = disallowed[0]
        walked = [tuple(_positions(run, failed + 2)) for run in runs]
        agrees = [[None] * len(lassos) for lassos in per_agent]
    return tried, None


# --------------------------------------------------------------------------
# plans
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Plan:
    """One agent's executable timed plan.

    Cell at position j is prefix[j] for j < len(prefix), then the cycle
    repeats; position j is occupied from time j*dt. Actions/certificates/
    provided sets are per step (certificates are None for hand-built
    transition tables with no geometric origin).
    """

    agent: int
    dt: float
    prefix_cells: tuple[int, ...]
    cycle_cells: tuple[int, ...]
    prefix_actions: tuple[tuple[int, ...], ...]
    cycle_actions: tuple[tuple[int, ...], ...]
    provided_prefix: tuple[frozenset[str], ...]
    provided_cycle: tuple[frozenset[str], ...]
    certificates_prefix: tuple[TransitionCertificate | None, ...]
    certificates_cycle: tuple[TransitionCertificate | None, ...]
    formula_text: str = ""
    witness_time: Fraction | None = None

    def cell_at(self, position: int) -> int:
        return _cell_at(self.prefix_cells, self.cycle_cells, position)

    def word(self) -> TimedWord:
        return word_from_lasso(self.provided_prefix, self.provided_cycle,
                               self.dt)

    @property
    def prefix_length(self) -> int:
        return len(self.prefix_cells)

    @property
    def cycle_length(self) -> int:
        return len(self.cycle_cells)


@dataclass(eq=False)
class SynthesisResult:
    plans: list[Plan]
    step_used: int  # 3 = per-agent combination, 4 = full product search
    agent_lasso_counts: list[int]
    combinations_tried: int


def _project_cells(lasso: Lasso, agent_index: int | None):
    """Cell sequences from product-state lassos: the system state of each
    (system state, location) pair, or agent ``agent_index``'s cell of each
    joint state."""
    system = operator.itemgetter(0)
    if agent_index is None:
        return (tuple(map(system, lasso.prefix_states)),
                tuple(map(system, lasso.cycle_states)))
    own = operator.itemgetter(agent_index)
    return (tuple(map(own, map(system, lasso.prefix_states))),
            tuple(map(own, map(system, lasso.cycle_states))))


def _agent_actions(joints: list[tuple], agent: int,
                   g: NetworkGraph) -> list[tuple]:
    """The agent's action in each joint state, as
    ``ProductWTS.agent_action`` gives it: its own cell, then its
    neighbours' cells, read with one itemgetter."""
    own = agent - 1
    others = [j - 1 for j in g.neighbors(agent)]
    if not others:    # a one-index itemgetter returns the bare cell
        return [(joint[own],) for joint in joints]
    return list(map(operator.itemgetter(own, *others), joints))


def _build_plans(
    aligned: list[tuple[tuple, tuple]],
    wts_list: list[AgentWTS],
    product: ProductWTS,
    formulas: dict[int, MitlFormula],
    dt: float,
) -> list[Plan]:
    p_star = len(aligned[0][0])
    # every agent's cells at positions 0 .. p_star + c_star, the last one
    # the cycle's return to its start, and the joint state at each position
    runs = [prefix + cycle + cycle[:1] for prefix, cycle in aligned]
    joints = list(zip(*runs))[:-1]
    plans = []
    for (prefix, cycle), run, w in zip(aligned, runs, wts_list):
        actions = _agent_actions(joints, w.agent, product.graph)
        certs = w.certificates(actions, run[1:])
        # agents dwell, so a run visits few cells: label each once
        label = {cell: w.label(cell) for cell in set(run)}
        provided = list(map(label.__getitem__, run[:-1]))
        formula = formulas[w.agent]
        plan = Plan(
            agent=w.agent,
            dt=dt,
            prefix_cells=prefix,
            cycle_cells=cycle,
            prefix_actions=tuple(actions[:p_star]),
            cycle_actions=tuple(actions[p_star:]),
            provided_prefix=tuple(provided[:p_star]),
            provided_cycle=tuple(provided[p_star:]),
            certificates_prefix=tuple(certs[:p_star]),
            certificates_cycle=tuple(certs[p_star:]),
            formula_text=formula_to_text(formula),
        )
        word = plan.word()
        satisfied = evaluate(word, formula)
        if not satisfied:
            raise AssertionError(
                f"internal error: synthesized plan for agent {w.agent} does "
                f"not satisfy its goal")
        plan.witness_time = witness_instant(word, formula)
        plans.append(plan)
    return plans


def synthesize(
    wts_list: list[AgentWTS],
    g: NetworkGraph,
    formulas: dict[int, MitlFormula],
    r_iter: int = DEFAULT_R_ITER,
    max_states: int = DEFAULT_STATE_CAP,
) -> SynthesisResult:
    """Synthesize consistent per-agent plans satisfying every agent's formula.

    Raises Unsatisfiable when some agent's own product has no accepting
    lasso, or when the exhaustive joint product search proves there is no
    accepting joint run; BudgetExceeded when a cap stopped the search
    before it could conclude either way.
    """
    if sorted(formulas) != [w.agent for w in wts_list]:
        raise ValueError("need exactly one formula per agent")
    dt = wts_list[0].dt
    automata = [from_flat_mitl(formulas[w.agent],
                               {w.label(c) for c in w.cells})
                for w in wts_list]
    product = ProductWTS(wts_list, g)

    per_agent: list[list[Lasso]] = []
    for w, automaton in zip(wts_list, automata):
        bp = BuchiProduct(w, automaton)
        # the layer sweep raises BudgetExceeded rather than stop early, so
        # an empty list comes from a complete search
        lassos = enumerate_accepting_lassos(bp, max_states=max_states)
        logger.info("agent %d: %d candidate accepting lassos", w.agent,
                    len(lassos))
        if not lassos:
            raise Unsatisfiable(f"agent {w.agent} cannot meet its formula "
                                f"{formula_to_text(formulas[w.agent])} even "
                                f"alone: its product has no accepting lasso")
        per_agent.append(lassos)

    combos_tried, runs = _combine(per_agent, product, r_iter)
    if runs is not None:
        aligned = align_runs(runs)
        plans = _build_plans(aligned, wts_list, product, formulas, dt)
        return SynthesisResult(
            plans=plans, step_used=3,
            agent_lasso_counts=[len(ls) for ls in per_agent],
            combinations_tried=combos_tried)

    logger.info("falling back to the full product search")
    bp = BuchiProduct(product, reduce(intersect, automata))
    lasso = find_accepting_lasso(bp, max_states=max_states)
    if lasso is None:
        raise Unsatisfiable(
            "exhaustive product search found no accepting joint run")
    joint_runs = [_project_cells(lasso, idx) for idx in range(len(wts_list))]
    if not consistent(joint_runs, product):
        raise AssertionError(
            "internal error: product lasso projected to inconsistent runs")
    aligned = align_runs(joint_runs)
    plans = _build_plans(aligned, wts_list, product, formulas, dt)
    return SynthesisResult(
        plans=plans, step_used=4,
        agent_lasso_counts=[len(ls) for ls in per_agent],
        combinations_tried=combos_tried)
