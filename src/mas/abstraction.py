"""Decentralized abstraction: per-agent transition systems over workspace cells.

Each agent's motion couples to its graph neighbors through the consensus
drift f_i(x) = -sum_{j in N(i)} (x_i - x_j), row i of -Lx with L the graph
Laplacian. A cell-to-cell transition is enabled when, from every point of
the source cell and under every position of the neighbors in their cells, a
bounded correction input can steer the sampled prediction x_i + dt*f_i(x) to
the target cell's center, and the continuous flow cannot drift out of the
target by more than its inradius in one sampling period.

The prediction is affine in every coordinate and the axes are independent,
so over box-shaped cells its range is itself a box: per axis, the extremes
come from the source cell's two bounds combined with the sums of the
neighbors' lower and upper bounds. The worst distance from a target center
to that box is the norm of max(|c - lo|, |c - hi|) taken per axis. In
floating point this equals the maximum over all cell corners, because
addition, scaling by dt > 0, squaring and the square root are monotone.
`_box_distances` is that test, the only one. It broadcasts, so one call
tests the source bounds (S, 1, n) against the class sums (K, n) and the
target centers (T, n) and gives ok[S, K, T]; a build chunks the sources so
that a temporary holds at most `BOX_TEST_ELEMENTS` doubles (or one source's
K * T * n, if that is more).

The correction input is v = (C - x)/dt + Lx for all agents at once:
`feedback_inputs`, which the stepped closed loop runs (the one-pass loop in
`mas.simulate` evaluates the same expression for all unclamped steps). A
certificate lets a transition be re-validated against the actual dynamics:
its nominal input is that law with every agent at its cell center, it
carries that input's norm, and its remainder is the deviation bound
rho(dt). `AgentWTS.certificates` computes them when asked, once per distinct
move, with the law and the norms evaluated for all new moves of a plan in
one batch; each certificate is an immutable named tuple, equal only to
itself.

Actions are (own cell, neighbor cells...) tuples: what the agent plans to do
given where its neighbors currently are. The product system synchronizes all
agents cell-wise.

The endpoint box depends on the neighbor cells only through the per-axis sums
of their bounds, so the table is keyed by class: neighbor tuples whose
floating-point sums are equal share one class, the box test runs once per
(source cell, class, target), and each distinct target set is stored once.
Every member of a class computes the same box bit for bit, so
`SumClassTable.enabled` answers every (own cell, neighbor cells) lookup as a
per-tuple enumeration would; action and transition counts come from the
class sizes, and the per-cell successors from the same ok array. Classes
are numbered by one lexsort of the sums (`_number_classes`), in the order
``np.unique(axis=0)`` would give them.

Every agent shares ``dt``, the reach budget and the remainder, so an
agent's table depends on its neighborhood only through the number of
neighbors (`build_transition_table`). One `mas.cli.stage_abstract` call
builds one table per neighbor count, with the first agent of that degree,
and hands it to the later ones; no table outlives the call.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundsReport, DiscretizationRange, deviation_remainder
from .errors import ArityMismatch, BudgetExceeded
from .graph import NetworkGraph
from .partition import CellDecomposition, ServiceLabeling

logger = logging.getLogger(__name__)

ACTION_ENUMERATION_CAP = 10**7
# a build tests as many source cells at once as keep each temporary of the
# broadcast box test within this many doubles (512 KB), and at least one
BOX_TEST_ELEMENTS = 1 << 16


class TransitionCertificate(NamedTuple):
    """Evidence that one cell transition is well-posed.

    ``nominal_input`` is the feedback law of `feedback_inputs` with every
    agent at its cell center, and ``norm`` its Euclidean norm, the
    ``input_norm`` that plans.json records; both come from one batched
    evaluation per agent (`AgentWTS.certificates`).

    A certificate is an immutable named tuple, so a batch builds each one
    with the tuple constructor (`_certificates`), without setting its
    fields one by one. It compares and hashes by identity, as one move's
    evidence: two certificates with equal values are still two.
    """

    agent: int
    source: int
    target: int
    neighbor_cells: tuple[int, ...]
    nominal_input: np.ndarray  # center-to-center correction, norm <= lambda*v_max
    norm: float                # of nominal_input
    remainder: float           # continuous-flow deviation bound rho(dt)

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _unpack(bits: np.ndarray, count: int) -> np.ndarray:
    """The boolean (R, count) rows that ``np.packbits(axis=1)`` packed."""
    return np.unpackbits(bits, axis=1, count=count).view(bool)


def _row_tuples(mask: np.ndarray, cells: np.ndarray) -> list[tuple[int, ...]]:
    """The cells each row of a boolean (R, T) mask selects, as R tuples."""
    picked = cells[np.nonzero(mask)[1]].tolist()
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    return [tuple(picked[a:b]) for a, b in zip([0] + ends, ends)]


class SumClassTable:
    """Enabled targets per action, stored once per neighbor-sum class.

    The table is built from arrays: ``classes`` maps every neighbor tuple to
    its class, and row r of ``bits`` marks which of the ascending target
    ``cells`` every action from source ``keys[r, 0]`` with neighbors in
    class ``keys[r, 1]`` enables, packed eight to a byte as
    ``np.packbits(ok, axis=1)`` packs a boolean (R, T) array. The rest is
    derived from those arrays:

    * ``targets`` maps each (source, class) row with a target to its
      targets, one shared tuple per distinct row;
    * ``len`` and `transition_count` count enabled action tuples and their
      targets, weighting each row by its class size (``np.bincount``);
    * ``reach`` maps each source to the distinct targets of its rows,
      movement first and the self-loop last.

    `enabled` is the one lookup.
    """

    def __init__(self, classes: dict[tuple[int, ...], int], keys, cells,
                 bits):
        self.classes = classes
        self.targets: dict[tuple[int, int], tuple[int, ...]] = {}
        self.reach: dict[int, tuple[int, ...]] = {}
        self._len = self._transition_count = 0
        if not bits.any():
            return
        cells = np.asarray(cells, dtype=int)
        keys = np.asarray(keys, dtype=int).reshape(-1, 2)
        codes = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        _, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
        shared = _row_tuples(_unpack(bits[first], len(cells)), cells)
        counts = np.array(list(map(len, shared)))[inverse]
        sizes = np.bincount(np.fromiter(classes.values(), int, len(classes)))
        weights = sizes[keys[:, 1]]
        self._len = int(weights[counts > 0].sum())
        self._transition_count = int(weights @ counts)

        live = np.flatnonzero(counts)
        self.targets = dict(zip(zip(*keys[live].T.tolist()),
                                map(shared.__getitem__,
                                    inverse[live].tolist())))
        live = live[np.argsort(keys[live, 0], kind="stable")]
        sources, starts = np.unique(keys[live, 0], return_index=True)
        reach = np.bitwise_or.reduceat(bits[live], starts, axis=0)
        self.reach = {
            s: tuple(sorted(ts, key=lambda t: (t == s, t)))
            for s, ts in zip(sources.tolist(),
                             _row_tuples(_unpack(reach, len(cells)), cells))}

    def enabled(self, own: int, neighbors: tuple[int, ...]) -> tuple[int, ...]:
        """Targets of the action (own cell, neighbor cells); () if none."""
        c = self.classes.get(neighbors)
        if c is None:
            return ()
        return self.targets.get((own, c), ())

    def __len__(self) -> int:
        return self._len

    def transition_count(self) -> int:
        return self._transition_count


@dataclass(eq=False)
class AgentWTS:
    """One agent's weighted transition system over cell indices.

    ``transitions`` is a `SumClassTable`: ``transitions.enabled(own,
    neighbors)`` gives the targets of the action (own cell, neighbor
    cells...). Every move takes one sampling period ``dt``.
    ``successors(cell)`` quotients the neighbor assumptions away (the
    table's ``reach``): the per-agent search needs only the agent's own cell
    sequence, because consistency later re-derives each action from the
    joint state. ``len(transitions)`` and `transition_count` count action
    tuples. ``certify`` maps a list of enabled (action, target) moves to
    their certificates in one batch; hand-built systems have none.
    """

    agent: int
    cells: tuple[int, ...]
    initial: int
    dt: float
    labels: dict[int, frozenset[str]]
    transitions: SumClassTable
    neighbor_agents: tuple[int, ...] = ()
    certify: Callable[[list[tuple[tuple[int, ...], int]]],
                      list[TransitionCertificate]] | None = None
    _certificates: dict[tuple, TransitionCertificate] = field(
        default_factory=dict)

    def label(self, cell: int) -> frozenset[str]:
        return self.labels.get(cell, frozenset())

    def initial_states(self) -> tuple[int, ...]:
        return (self.initial,)

    def successors(self, cell: int) -> tuple[int, ...]:
        """Distinct targets of a cell under any neighbor assumption.

        Movement comes first and the self-loop last: among the many
        equal-length stems to an accepting state, breadth-first discovery
        then records a run that makes progress and provides its services at
        the earliest opportunity instead of idling until a deadline.
        """
        return self.transitions.reach.get(cell, ())

    def transition_count(self) -> int:
        return self.transitions.transition_count()

    def certificates(self, actions, targets) -> list:
        """Certificates of the moves (actions[i], targets[i]), each distinct
        move computed once, the new ones in one batch.

        None for moves that are not enabled and for hand-built systems.
        """
        moves = list(zip(actions, targets))
        if self.certify is None:
            return [None] * len(moves)
        known, enabled = self._certificates, self.transitions.enabled
        new = [m for m in dict.fromkeys(moves) if m not in known
               and m[1] in enabled(m[0][0], m[0][1:])]
        if new:
            known.update(zip(new, self.certify(new)))
        return list(map(known.get, moves))

    def certificate(self, action, target: int):
        """`certificates` of one move."""
        return self.certificates((action,), (target,))[0]


def _box_distances(own_lo, own_hi, sums, deg: int, centers: np.ndarray,
                   dt: float) -> np.ndarray:
    """(..., T) worst distances from the endpoint boxes to the T target
    centers, for own bounds (..., n) broadcast against the neighbor sums
    (lows, highs) (..., n)."""
    # the sign of 1 - deg*dt is not fixed, so evaluate both own bounds
    ends = [own + dt * (total - deg * own)
            for own in (own_lo, own_hi) for total in sums]
    lo = np.minimum.reduce(ends)
    hi = np.maximum.reduce(ends)
    # as lo <= hi, max(c - lo, hi - c) is max(|c - lo|, |c - hi|) to the
    # bit; the squares are summed axis after axis, as np.linalg.norm does
    squares = [np.square(np.maximum(c - lo[..., axis, None],
                                    hi[..., axis, None] - c))
               for axis, c in enumerate(centers.T)]
    return np.sqrt(functools.reduce(np.add, squares))


def _certificates(centers: np.ndarray, agent: int, dt: float, rho: float,
                  moves: list[tuple[tuple[int, ...], int]]
                  ) -> list[TransitionCertificate]:
    """Center-to-center nominal inputs, their norms and the remainder of
    enabled moves: the feedback law of `feedback_inputs` with every agent
    at its cell center, evaluated for all moves at once."""
    actions = np.array([action for action, _ in moves])
    own = centers[actions[:, 0] - 1]
    drift = np.zeros_like(own)
    for j in range(1, actions.shape[1]):
        drift -= own - centers[actions[:, j] - 1]
    goals = centers[np.array([target for _, target in moves]) - 1]
    nominal = (goals - own - dt * drift) / dt
    norms = np.sqrt(np.vecdot(nominal, nominal)).tolist()
    # the tuple's own constructor, without the keyword-taking __new__
    new = tuple.__new__
    return [new(TransitionCertificate,
                (agent, action[0], target, action[1:], x, norm, rho))
            for (action, target), x, norm in zip(moves, nominal, norms)]


def _number_classes(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``sums`` in ascending order (first column primary)
    and the class of every row, as ``np.unique(sums, axis=0,
    return_inverse=True)`` numbers them: one lexsort, a mask of the rows
    that differ from their predecessor, and its running count."""
    order = np.lexsort(sums.T[::-1])
    ordered = sums[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def build_transition_table(
    degree: int,
    decomp: CellDecomposition,
    bounds: BoundsReport,
    disc: DiscretizationRange,
) -> SumClassTable:
    """The `SumClassTable` of every agent with ``degree`` neighbors.

    Every agent shares ``dt``, the reach budget lambda*v_max*dt and the
    remainder rho(dt), so the table depends on the neighborhood only
    through its size. Neighbor tuples are grouped by the exact
    floating-point sums of their cells' bounds, and every (source cell,
    class, target) is tested in one broadcast box test, chunked over
    sources under `BOX_TEST_ELEMENTS`.
    """
    cells = np.arange(1, decomp.cell_count + 1)
    dt = disc.chosen_dt
    budget = bounds.lambda_reach * bounds.v_max * dt
    rho = deviation_remainder(bounds, dt)

    sized = np.nonzero(rho <= decomp.inradii)[0]  # per-target remainder test
    nbr_cells = np.array(list(itertools.product(cells.tolist(), repeat=degree)),
                         dtype=int).reshape(len(cells) ** degree, degree)
    # one reduction for every tuple, so each class key is the sum every one
    # of its tuples would compute
    sums = np.hstack([decomp.lows[nbr_cells - 1].sum(axis=1),
                      decomp.highs[nbr_cells - 1].sum(axis=1)])
    keys, inverse = _number_classes(sums)
    classes = dict(zip(map(tuple, nbr_cells.tolist()), inverse.tolist()))
    key_sums = np.hsplit(keys, 2)

    # ok[source, class, target], chunked over sources and kept packed
    S, K, T = len(cells), len(keys), len(sized)
    bits = np.empty((S, K, (T + 7) // 8), dtype=np.uint8)
    lows, highs = decomp.lows[:, None, :], decomp.highs[:, None, :]
    targets = decomp.centers[sized]
    step = max(1, BOX_TEST_ELEMENTS // max(1, K * T * decomp.dimension))
    for a in range(0, S, step):
        bits[a:a + step] = np.packbits(_box_distances(
            lows[a:a + step], highs[a:a + step], key_sums, degree,
            targets, dt) <= budget, axis=-1)
    rows = np.column_stack([np.repeat(cells, K), np.tile(np.arange(K), S)])
    return SumClassTable(classes, rows, sized + 1,
                         bits.reshape(S * K, bits.shape[2]))


def build_agent_wts(
    g: NetworkGraph,
    agent: int,
    decomp: CellDecomposition,
    labeling: ServiceLabeling,
    bounds: BoundsReport,
    disc: DiscretizationRange,
    initial_cell: int,
    max_actions: int = ACTION_ENUMERATION_CAP,
    *,
    transitions: SumClassTable | None = None,
) -> AgentWTS:
    """All well-posed transitions of one agent, as a `SumClassTable`.

    The action space is every (own cell, neighbor cells...) combination, so
    its size is cells^(deg+1); a cap guards against accidental blow-ups,
    checked before any table is built or reused. ``transitions`` is a
    table `build_transition_table` already built for this agent's number
    of neighbors and the same decomposition, bounds and discretization;
    without one, the agent builds its own. A table is never modified after
    it is built, so agents may share it; labels, the initial cell and the
    certificates stay the agent's own.
    """
    nbrs = g.neighbors(agent)
    cells = tuple(range(1, decomp.cell_count + 1))
    action_count = len(cells) ** (len(nbrs) + 1)
    if action_count > max_actions:
        raise BudgetExceeded(
            f"agent {agent} would need {action_count} actions (cap {max_actions})")
    if transitions is None:
        transitions = build_transition_table(len(nbrs), decomp, bounds, disc)
    dt = disc.chosen_dt
    rho = deviation_remainder(bounds, dt)

    labels = {c: labeling.label(agent, c) for c in cells}
    wts = AgentWTS(
        agent=agent,
        cells=cells,
        initial=initial_cell,
        dt=dt,
        labels=labels,
        transitions=transitions,
        neighbor_agents=nbrs,
        certify=functools.partial(_certificates, decomp.centers, agent, dt,
                                  rho),
    )
    logger.info("agent %d abstraction: %d cells, %d actions, %d transitions",
                agent, len(cells), len(transitions), wts.transition_count())
    return wts


class ProductWTS:
    """Synchronized product of all agents' transition systems.

    A joint state is a tuple of cells; each agent moves by its action
    determined by the joint state (own cell + neighbors' cells), and all
    agents move simultaneously with the common sampling period. States are
    expanded lazily. Joint position i - 1 is agent i's cell, so the
    systems must come in agent order, one for each of agents 1..N.
    """

    def __init__(self, wts_list: list[AgentWTS], g: NetworkGraph):
        agents = [w.agent for w in wts_list]
        if agents != list(range(1, g.agent_count + 1)):
            raise ArityMismatch(
                f"transition systems for agents {agents}, need agents "
                f"1..{g.agent_count} in order")
        dts = {w.dt for w in wts_list}
        if len(dts) != 1:
            raise ArityMismatch(f"agents disagree on the sampling period: {dts}")
        self.wts_list = list(wts_list)
        self.graph = g
        self.dt = wts_list[0].dt
        self._succ_cache: dict[tuple, list] = {}
        self._labels: dict[tuple, frozenset[str]] = {}
        self._unions: dict[frozenset[str], frozenset[str]] = {}

    def initial_states(self) -> tuple[tuple[int, ...], ...]:
        return (tuple(w.initial for w in self.wts_list),)

    def agent_action(self, joint: tuple[int, ...], agent: int) -> tuple[int, ...]:
        """The action agent i executes in a joint state: own + neighbor cells."""
        own = joint[agent - 1]
        return (own,) + tuple(joint[j - 1] for j in self.graph.neighbors(agent))

    def label(self, joint: tuple[int, ...]) -> frozenset[str]:
        """Union of the agents' labels, computed once per joint state and
        kept once per distinct union."""
        out = self._labels.get(joint)
        if out is None:
            union = frozenset().union(
                *(w.label(cell) for w, cell in zip(self.wts_list, joint)))
            out = self._labels[joint] = self._unions.setdefault(union, union)
        return out

    def successors(self, joint: tuple[int, ...]):
        """Joint targets in ``itertools.product`` order; empty if any agent
        is stuck."""
        cached = self._succ_cache.get(joint)
        if cached is not None:
            return cached
        neighbors = self.graph.neighbors
        result = list(itertools.product(*(
            w.transitions.enabled(
                joint[w.agent - 1],
                tuple([joint[j - 1] for j in neighbors(w.agent)]))
            for w in self.wts_list)))
        self._succ_cache[joint] = result
        return result


def feedback_inputs(
    g: NetworkGraph,
    positions: np.ndarray,
    target_centers: np.ndarray,
    dt: float,
    v_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Measured-state correction inputs of all agents for one interval.

    Row i steers agent i+1's sampled prediction from its position to its
    target cell center, v = (C - x)/dt + Lx. Rows longer than the input bound
    are scaled back onto it; the returned flags mark them (a well-posed plan
    never needs that).
    """
    x = np.asarray(positions, dtype=float)
    v = (np.asarray(target_centers, dtype=float) - x) / dt + g.laplacian @ x
    norms = np.sqrt((v * v).sum(axis=1))
    clipped = norms > v_max
    if clipped.any():
        v[clipped] *= (v_max / norms[clipped])[:, None]
    return v, clipped
