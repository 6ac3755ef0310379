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
`_box_distances` is that test, the only one.

The correction input is v = (C - x)/dt + Lx for all agents at once:
`feedback_inputs`, which the stepped closed loop runs (the one-pass loop in
`mas.simulate` evaluates the same expression for all unclamped steps). A
certificate is computed when asked for, once per distinct move, so
transitions can be re-validated against the actual dynamics: its nominal
input is that law with every agent at its cell center, and its remainder is
the deviation bound rho(dt).

Actions are (own cell, neighbor cells...) tuples: what the agent plans to do
given where its neighbors currently are. The product system synchronizes all
agents cell-wise.

The endpoint box depends on the neighbor cells only through the per-axis sums
of their bounds, so the table is keyed by class: neighbor tuples whose
floating-point sums are equal share one class, the box test runs once per
(source cell, class), and each class's targets are stored once. Every member
of a class computes the same box bit for bit, so `SumClassTable.enabled`
answers every (own cell, neighbor cells) lookup as a per-tuple enumeration
would; action and transition counts come from the class multiplicities.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bounds import BoundsReport, DiscretizationRange, deviation_remainder
from .errors import ArityMismatch, BudgetExceeded
from .graph import NetworkGraph
from .partition import CellDecomposition, ServiceLabeling

logger = logging.getLogger(__name__)

ACTION_ENUMERATION_CAP = 10**7


@dataclass(frozen=True, eq=False)
class TransitionCertificate:
    """Evidence that one cell transition is well-posed."""

    agent: int
    source: int
    target: int
    neighbor_cells: tuple[int, ...]
    nominal_input: np.ndarray  # center-to-center correction, norm <= lambda*v_max
    remainder: float           # continuous-flow deviation bound rho(dt)

    def nominal_norm(self) -> float:
        return float(np.linalg.norm(self.nominal_input))


class SumClassTable:
    """Enabled targets per action, stored once per neighbor-sum class.

    ``classes`` maps every neighbor tuple to its class; ``targets`` maps
    (source cell, class) to the non-empty targets of every action from that
    source whose neighbors are in that class. `enabled` is the one lookup.
    ``len`` and `transition_count` count enabled action tuples through the
    class multiplicities.
    """

    def __init__(self, classes: dict[tuple[int, ...], int],
                 targets: dict[tuple[int, int], tuple[int, ...]]):
        self.classes = classes
        self.targets = targets
        sizes = Counter(classes.values())
        self._len = self._transition_count = 0
        for (_, c), enabled in targets.items():
            self._len += sizes[c]
            self._transition_count += sizes[c] * len(enabled)

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
    ``successors(cell)`` quotients the neighbor assumptions away: the
    per-agent search needs only the agent's own cell sequence, because
    consistency later re-derives each action from the joint state.
    ``len(transitions)`` and `transition_count` count action tuples.
    ``certify`` maps an enabled (action, target) pair to its certificate;
    hand-built systems have none.
    """

    agent: int
    cells: tuple[int, ...]
    initial: int
    dt: float
    labels: dict[int, frozenset[str]]
    transitions: SumClassTable
    neighbor_agents: tuple[int, ...] = ()
    certify: Callable[[tuple[int, ...], int], TransitionCertificate] | None \
        = None
    _successors: dict[int, tuple[int, ...]] | None = None
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
        the earliest opportunity instead of idling until a deadline. The
        table is built on first use.
        """
        if self._successors is None:
            reach: dict[int, set[int]] = {}
            for (source, _), targets in self.transitions.targets.items():
                reach.setdefault(source, set()).update(targets)
            self._successors = {
                s: tuple(sorted(ts, key=lambda t: (t == s, t)))
                for s, ts in reach.items()}
        return self._successors.get(cell, ())

    def transition_count(self) -> int:
        return self.transitions.transition_count()

    def certificate(self, action, target: int):
        """Certificate of an enabled move, computed once per distinct move.

        None for moves that are not enabled and for hand-built systems.
        """
        if self.certify is None or \
                target not in self.transitions.enabled(action[0], action[1:]):
            return None
        key = (action, target)
        cert = self._certificates.get(key)
        if cert is None:
            cert = self._certificates[key] = self.certify(action, target)
        return cert


def _box_distances(own_lo, own_hi, sums, deg: int, centers: np.ndarray,
                   dt: float) -> np.ndarray:
    """(A, T) worst distances from own bounds, broadcast against the A rows
    of the neighbor sums (lows, highs), to the T target centers."""
    # the sign of 1 - deg*dt is not fixed, so evaluate both own bounds
    ends = [own + dt * (total - deg * own)
            for own in (own_lo, own_hi) for total in sums]
    lo = np.minimum.reduce(ends)[:, None, :]
    hi = np.maximum.reduce(ends)[:, None, :]
    far = np.maximum(np.abs(centers[None] - lo), np.abs(centers[None] - hi))
    return np.linalg.norm(far, axis=2)


def _certificate(decomp: CellDecomposition, agent: int, dt: float,
                 rho: float, action: tuple[int, ...],
                 target: int) -> TransitionCertificate:
    """Center-to-center nominal input and remainder for one enabled move:
    the feedback law of `feedback_inputs` with every agent at its cell
    center."""
    source, neighbor_cells = action[0], tuple(action[1:])
    own = decomp.center(source)
    drift = np.zeros_like(own)
    for c in neighbor_cells:
        drift -= own - decomp.center(c)
    nominal = (decomp.center(target) - own - dt * drift) / dt
    return TransitionCertificate(
        agent=agent,
        source=source,
        target=target,
        neighbor_cells=neighbor_cells,
        nominal_input=nominal,
        remainder=rho,
    )


def build_agent_wts(
    g: NetworkGraph,
    agent: int,
    decomp: CellDecomposition,
    labeling: ServiceLabeling,
    bounds: BoundsReport,
    disc: DiscretizationRange,
    initial_cell: int,
    max_actions: int = ACTION_ENUMERATION_CAP,
) -> AgentWTS:
    """All well-posed transitions of one agent, as a `SumClassTable`.

    The action space is every (own cell, neighbor cells...) combination, so
    its size is cells^(deg+1); a cap guards against accidental blow-ups.
    Neighbor tuples are grouped by the exact floating-point sums of their
    cells' bounds, and each source cell is tested against all classes at once.
    """
    nbrs = g.neighbors(agent)
    cells = tuple(range(1, decomp.cell_count + 1))
    action_count = len(cells) ** (len(nbrs) + 1)
    if action_count > max_actions:
        raise BudgetExceeded(
            f"agent {agent} would need {action_count} actions (cap {max_actions})")
    dt = disc.chosen_dt
    budget = bounds.lambda_reach * bounds.v_max * dt
    rho = deviation_remainder(bounds, dt)

    centers = np.array([decomp.center(c) for c in cells])
    inradii = np.array([decomp.inradius(c) for c in cells])
    sized = np.nonzero(rho <= inradii)[0]  # per-target remainder test
    nbr_cells = np.array(list(itertools.product(cells, repeat=len(nbrs))),
                         dtype=int).reshape(len(cells) ** len(nbrs), len(nbrs))
    # one reduction for every tuple, so each class key is the sum every one
    # of its tuples would compute
    sums = np.hstack([decomp.lows[nbr_cells - 1].sum(axis=1),
                      decomp.highs[nbr_cells - 1].sum(axis=1)])
    keys, inverse = np.unique(sums, axis=0, return_inverse=True)
    classes = dict(zip(map(tuple, nbr_cells.tolist()),
                       inverse.reshape(-1).tolist()))
    key_sums = np.hsplit(keys, 2)

    target_cells = (sized + 1).tolist()
    targets: dict[tuple[int, int], tuple[int, ...]] = {}
    for source in cells:
        ok = _box_distances(decomp.lows[source - 1], decomp.highs[source - 1],
                            key_sums, len(nbrs), centers[sized], dt) <= budget
        for c, row in enumerate(ok.tolist()):
            enabled = tuple(itertools.compress(target_cells, row))
            if enabled:
                targets[source, c] = enabled
    transitions = SumClassTable(classes, targets)

    labels = {c: labeling.label(agent, c) for c in cells}
    wts = AgentWTS(
        agent=agent,
        cells=cells,
        initial=initial_cell,
        dt=dt,
        labels=labels,
        transitions=transitions,
        neighbor_agents=nbrs,
        certify=partial(_certificate, decomp, agent, dt, rho),
    )
    logger.info("agent %d abstraction: %d cells, %d actions, %d transitions",
                agent, len(cells), len(transitions), wts.transition_count())
    return wts


class ProductWTS:
    """Synchronized product of all agents' transition systems.

    A joint state is a tuple of cells; each agent moves by its action
    determined by the joint state (own cell + neighbors' cells), and all
    agents move simultaneously with the common sampling period. States are
    expanded lazily.
    """

    def __init__(self, wts_list: list[AgentWTS], g: NetworkGraph):
        if len(wts_list) != g.agent_count:
            raise ArityMismatch(
                f"{len(wts_list)} transition systems for {g.agent_count} agents")
        dts = {w.dt for w in wts_list}
        if len(dts) != 1:
            raise ArityMismatch(f"agents disagree on the sampling period: {dts}")
        self.wts_list = list(wts_list)
        self.graph = g
        self.dt = wts_list[0].dt
        self._succ_cache: dict[tuple, list] = {}
        self._labels: dict[tuple, frozenset[str]] = {}

    def initial_states(self) -> tuple[tuple[int, ...], ...]:
        return (tuple(w.initial for w in self.wts_list),)

    def agent_action(self, joint: tuple[int, ...], agent: int) -> tuple[int, ...]:
        """The action agent i executes in a joint state: own + neighbor cells."""
        own = joint[agent - 1]
        return (own,) + tuple(joint[j - 1] for j in self.graph.neighbors(agent))

    def label(self, joint: tuple[int, ...]) -> frozenset[str]:
        """Union of the agents' labels, computed once per joint state."""
        out = self._labels.get(joint)
        if out is None:
            out = self._labels[joint] = frozenset().union(
                *(w.label(cell) for w, cell in zip(self.wts_list, joint)))
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
