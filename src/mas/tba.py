"""Timed Büchi automata for the flat fragment of the formula language.

Automata read timed words letter-by-letter: every location carries the letter
(service set) it emits, a run consumes position j by delaying to that
position's timestamp and taking one edge whose guard holds at the post-delay
clock value and whose target emits letter j+1. A guard is a conjunction
of windows the clock must lie in, each a ``mitl.Interval``, the type of the
formula windows themselves (a point window [0,0] included); disjunctive
windows are split across parallel edges. Acceptance is Büchi (some
accepting location recurs).

There is one clock: the time since position 0. Every window of a flat
formula is anchored at the word start, so no edge ever resets a clock and
no location needs an invariant; the clocks of a general construction would
all hold this same value, and an intersection shares it too.

``from_flat_mitl`` builds an automaton accepting exactly the words that
satisfy a flat formula: each temporal conjunct becomes a three-phase shape
(waiting / witnessing / done, or outside-window / inside-window for "always")
whose phases are expanded over the given letters (the service sets the
words can carry; by default every subset of the formula's atoms) that
satisfy their propositional operand; conjunction is the synchronous
product. ``intersect`` builds a product location's label, acceptance and
edges the first time each is asked for, and the whole location list only
when something asks for all of it.

The clock is counted in integer ticks (``TickClocks``): the caller gives a
delta of which every delay is a multiple, so the clock value is k*delta for
an int k, and each guard is an integer range on k; a location's ranges cut
the ticks into a few guard segments, within which no edge starts or stops
admitting the clock. An intersection's ranges and target letters come from
its parts' (``TimedAutomaton.edge_rows``): a joint guard conjoins its
parts' guards, so its range is the intersection of their ranges, and a
joint letter is the union of theirs, as is each letter an intersection
carries (``carried_letters``). Values above the largest constant c_max are
saturated to one tick, floor(c_max/delta) + 1, which guards cannot tell
apart from the true value. c_max is read off the windows: a conjunct's is
its formula window's largest constant, whichever letters its phases were
expanded over, and an intersection's is the larger of its parts'. In a
synthesis product every move takes the sampling period, so delta is dt;
``accepts_lasso`` ticks at the gcd of the checked word's gaps. Either way
each move adds at least one tick, so the clock never decreases and every
cycle of a product lies at the saturated tick: ``TickClocks.recurs`` is
the Büchi condition both searches use.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Any, Iterable, Sequence

from . import _ndfs
from .errors import NonPeriodicWord, UnsupportedNesting
from .mitl import (And, Atom, Always, Eventually, Interval, MitlFormula, Next,
                   Not, TimedWord, Until, atoms, exact_gcd, window_ticks)

_NODE_CAP = 500_000


@dataclass(frozen=True)
class Guard:
    """Conjunction of windows the clock must lie in; empty tuple = always
    true."""

    terms: tuple[Interval, ...] = ()

    def conjoin(self, other: "Guard") -> "Guard":
        return Guard(self.terms + other.terms)


TRUE_GUARD = Guard()


def _largest_constant(guards: Iterable[Guard]) -> Fraction:
    """Largest window end in the guards (0 without any; none is negative)."""
    return max([Fraction(0), *(c for g in guards for t in g.terms
                               for c in (t.lo, t.hi) if c is not None)])


@dataclass(frozen=True)
class Edge:
    source: Any
    guard: Guard
    target: Any


class TimedAutomaton:
    """Timed Büchi automaton with letter-labelled locations.

    ``edges_from[q]`` lists the edges leaving q in a fixed order; ``edges``
    lists them all, location by location. ``c_max`` is the largest constant
    the clock is compared with: by default the largest guard constant on
    the edges; a translation passes its formula windows' instead.
    """

    def __init__(self, locations, initial, edges, accepting, labels,
                 alphabet, c_max: Fraction | None = None):
        self.locations = tuple(locations)
        self.initial = tuple(initial)
        self.accepting = frozenset(accepting)
        self.labels = dict(labels)
        self.alphabet = frozenset(alphabet)
        missing = set(self.locations) - set(self.labels)
        if missing:
            raise ValueError(f"locations without labels: {sorted(map(str, missing))}")
        edges = tuple(edges)
        grouped: dict[Any, list[Edge]] = {loc: [] for loc in self.locations}
        for edge in edges:
            if edge.source not in grouped or edge.target not in grouped:
                raise ValueError(f"edge {edge} references an unknown location")
            grouped[edge.source].append(edge)
        self.edges_from = {loc: tuple(lst) for loc, lst in grouped.items()}
        self.c_max = _largest_constant(e.guard for e in edges) \
            if c_max is None else c_max

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for loc in self.locations for e in self.edges_from[loc])

    def location_count(self) -> int:
        return len(self.locations)

    def carried_letters(self) -> set[frozenset[str]]:
        """The letters its locations carry."""
        return set(self.labels.values())

    def edge_rows(self, q, clocks: TickClocks) -> list[tuple]:
        """One (target letter, lowest tick, highest tick, target) row per
        edge leaving q, in ``edges_from`` order, the ticks those of
        ``clocks`` (``TickClocks.tick_range``)."""
        labels, tick_range = self.labels, clocks.tick_range
        return [(labels[edge.target], *tick_range(edge.guard), edge.target)
                for edge in self.edges_from[q]]


class TickClocks:
    """An automaton's clock counted in integer ticks of one delta, over
    numbered locations.

    The caller gives delta, of which every delay time may advance by is a
    whole multiple, so the clock value is an int k meaning k*delta, or
    ``sat`` = floor(c_max/delta) + 1 for every value above c_max. A guard
    becomes one inclusive tick range (``tick_range``): each window admits
    the ticks ``mitl.window_ticks`` gives it, up to ``sat`` when unbounded,
    and a conjunction admits the largest lower tick up to the smallest
    upper one (nothing when that range is empty). Since every constant is at most c_max, the saturated
    tick passes each lower bound and fails each upper bound, exactly as an
    infinite value would. Each window's tick bounds are computed once.

    A location gets its number the first time it is met (``number``), so
    searches carry small ints instead of nested location objects;
    ``locations[i]`` and ``accepting[i]`` read number i back. Each location
    is compiled the first time it is asked for (``segments``) from its
    edge rows, (target letter, lowest tick, highest tick, target) in
    ``edges_from`` order (``TimedAutomaton.edge_rows``): ticks 0..``sat``
    are cut at 0 and at every row's lowest tick and highest tick + 1, so
    within one guard segment every edge admits all ticks or none, and each
    segment gets one {target letter: [target numbers]} table, rows in
    their order. ``moves`` reads it. An intersection's rows are built from
    its parts' rows, which ``part_rows`` builds once per part location at
    this clock's ticks, so no joint edge or conjoined guard is made.

    ``recurs`` tells which (location number, tick) states can close a
    Büchi cycle.
    """

    def __init__(self, automaton: TimedAutomaton, delta: Fraction):
        self.automaton = automaton
        self.delta = delta
        self.sat = math.floor(automaton.c_max / self.delta) + 1
        self.locations: list = []
        self.accepting: list[bool] = []
        self._numbers: dict[Any, int] = {}
        self._compiled: list[tuple | None] = []
        self._term_ticks: dict[int, tuple[int, int, Interval]] = {}
        # cut ticks -> the segment of each tick 0..sat, shared by locations
        self._segment_of: dict[tuple[int, ...], list[int]] = {}
        # part automaton of an intersection -> {location: its edge rows}
        self._part_rows: dict[TimedAutomaton, dict] = {}

    def number(self, q) -> int:
        """Location q's number, given on first use."""
        i = self._numbers.get(q)
        if i is None:
            i = self._numbers[q] = len(self.locations)
            self.locations.append(q)
            self.accepting.append(q in self.automaton.accepting)
            self._compiled.append(None)
        return i

    def recurs(self, i: int, k: int) -> bool:
        """Whether a state at location number i and tick k can be the
        accepting state of a Büchi cycle.

        Time strictly advances along a run, so every move adds at least
        one tick and k never decreases; below ``sat`` it strictly grows.
        A cycle returns to its own tick, so all of its states sit at
        ``sat``: a state below it is transient, and only an accepting
        location at the saturated tick can recur.
        """
        return k == self.sat and self.accepting[i]

    def tick_range(self, guard: Guard) -> tuple[int, int]:
        """(lowest tick, highest tick) the guard admits."""
        lowest, highest = 0, self.sat
        for term in guard.terms:
            # keyed by identity, cheaper than hashing the Fractions; each
            # entry holds its term, so no other term can take over the id
            bounds = self._term_ticks.get(id(term))
            if bounds is None:
                lo, hi = window_ticks(term, self.delta)
                bounds = self._term_ticks[id(term)] = (
                    lo, self.sat if hi is None else hi, term)
            lowest, highest = max(lowest, bounds[0]), min(highest, bounds[1])
        return lowest, highest

    def part_rows(self, part: TimedAutomaton, q) -> list[tuple]:
        """``part.edge_rows(q, self)``, built once: the rows of a location
        of one of the parts an intersection is built from."""
        memo = self._part_rows.get(part)
        if memo is None:
            memo = self._part_rows[part] = {}
        rows = memo.get(q)
        if rows is None:
            rows = memo[q] = part.edge_rows(q, self)
        return rows

    def segments(self, i: int) -> tuple[list[int], list[dict]]:
        """(the guard segment of each tick 0..sat, one {target letter:
        [target numbers]} table per segment) of location number i."""
        compiled = self._compiled[i]
        if compiled is None:
            number = self.number
            rows = [(letter, lo, hi, number(target)) for letter, lo, hi, target
                    in self.automaton.edge_rows(self.locations[i], self)]
            cuts = {0}
            for _, lo, hi, _ in rows:
                if lo <= hi:
                    cuts.update((lo, hi + 1))
            cuts = tuple(sorted(cuts - {self.sat + 1}))
            tables = []
            for start in cuts:
                table: dict = {}
                for letter, lo, hi, target in rows:
                    if lo <= start <= hi:
                        table.setdefault(letter, []).append(target)
                tables.append(table)
            segment_of = self._segment_of.get(cuts)
            if segment_of is None:
                bounds = itertools.pairwise(cuts + (self.sat + 1,))
                segment_of = self._segment_of[cuts] = [
                    j for j, (a, b) in enumerate(bounds) for _ in range(a, b)]
            compiled = self._compiled[i] = segment_of, tables
        return compiled

    def moves(self, i: int, k: int, delay: int,
              letter) -> tuple[int, Sequence[int]]:
        """The clock after ``delay`` ticks from k, and the target numbers
        of the edges from location number i into a ``letter`` location
        whose guard admits it."""
        k = k + delay if k + delay < self.sat else self.sat
        segment_of, tables = self.segments(i)
        return k, tables[segment_of[k]].get(letter, ())


# --------------------------------------------------------------------------
# flat-formula translation
# --------------------------------------------------------------------------

def _is_propositional(f: MitlFormula) -> bool:
    match f:
        case Atom(_):
            return True
        case Not(arg):
            return _is_propositional(arg)
        case And(left, right):
            return _is_propositional(left) and _is_propositional(right)
    return False


def _prop_holds(f: MitlFormula, letter: frozenset[str]) -> bool:
    match f:
        case Atom(name):
            return name in letter
        case Not(arg):
            return not _prop_holds(arg, letter)
        case And(left, right):
            return _prop_holds(left, letter) and _prop_holds(right, letter)
    raise UnsupportedNesting(f"non-propositional operand: {f!r}")


def _normalize(f: MitlFormula) -> MitlFormula:
    """Push negation through temporal operators (duality) where possible."""
    match f:
        case Atom(_):
            return f
        case And(left, right):
            return And(_normalize(left), _normalize(right))
        case Not(arg):
            if _is_propositional(arg):
                return f
            match arg:
                case Not(inner):
                    return _normalize(inner)
                case Eventually(interval, inner):
                    return Always(interval, _normalize(Not(inner)))
                case Always(interval, inner):
                    return Eventually(interval, _normalize(Not(inner)))
            raise UnsupportedNesting(
                f"cannot negate {type(arg).__name__} in the flat fragment")
        case Eventually(interval, arg):
            return Eventually(interval, _normalize(arg))
        case Always(interval, arg):
            return Always(interval, _normalize(arg))
        case Next(interval, arg):
            return Next(interval, _normalize(arg))
        case Until(interval, left, right):
            return Until(interval, _normalize(left), _normalize(right))
    raise TypeError(f"not a formula node: {f!r}")


def _conjuncts(f: MitlFormula) -> list[MitlFormula]:
    if isinstance(f, And) and not _is_propositional(f):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def canonical_letters(alphabet: frozenset[str]) -> list[frozenset[str]]:
    """All subsets of the alphabet in canonical order: by size, then by
    their sorted names."""
    names = sorted(alphabet)
    letters = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            letters.append(frozenset(combo))
    return letters


_TOP = None  # phase predicate "any letter"


def _phase_pred_holds(pred, letter) -> bool:
    return True if pred is _TOP else _prop_holds(pred, letter)


def _outside_window_guards(interval: Interval) -> list[Guard]:
    """Guards covering "clock not in window" (split per side)."""
    out = []
    if interval.lo > 0 or interval.lo_open:
        out.append(Guard((Interval(0, interval.lo,
                                   hi_open=not interval.lo_open),)))
    if interval.hi is not None:
        out.append(Guard((Interval(interval.hi, None,
                                   lo_open=not interval.hi_open),)))
    return out


def _wait_prune_guard(interval: Interval) -> Guard:
    """Upper bound for pre-witness waiting (a harmless search prune)."""
    if interval.hi is None:
        return TRUE_GUARD
    return Guard((Interval(0, interval.hi),))


def _unit_phases(unit: MitlFormula):
    """(phases, edges, initials, accepting) skeleton for one conjunct.

    A phase is (name, predicate); edges are (src, dst, guard) tuples whose
    guards read the one clock, the time since position 0: every window is
    anchored at the word start, so no edge resets it.
    """
    match unit:
        case Eventually(interval, arg) if _is_propositional(arg):
            phases = [("wait", _TOP), ("hit", arg), ("done", _TOP)]
            edges = [("wait", "wait", _wait_prune_guard(interval)),
                     ("wait", "hit", Guard((interval,))),
                     ("hit", "done", TRUE_GUARD),
                     ("done", "done", TRUE_GUARD)]
            initials = ["wait"] + (["hit"] if interval.contains(Fraction(0)) else [])
            return phases, edges, initials, ["done"]
        case Until(interval, left, right) \
                if _is_propositional(left) and _is_propositional(right):
            phases = [("hold", left), ("hit", right), ("done", _TOP)]
            edges = [("hold", "hold", _wait_prune_guard(interval)),
                     ("hold", "hit", Guard((interval,))),
                     ("hit", "done", TRUE_GUARD),
                     ("done", "done", TRUE_GUARD)]
            initials = ["hold"] + (["hit"] if interval.contains(Fraction(0)) else [])
            return phases, edges, initials, ["done"]
        case Next(interval, arg) if _is_propositional(arg):
            phases = [("start", _TOP), ("hit", arg), ("done", _TOP)]
            edges = [("start", "hit", Guard((interval,))),
                     ("hit", "done", TRUE_GUARD),
                     ("done", "done", TRUE_GUARD)]
            return phases, edges, ["start"], ["done"]
        case Always(interval, arg) if _is_propositional(arg):
            phases = [("out", _TOP), ("in", arg)]
            edges = [("out", "in", TRUE_GUARD), ("in", "in", TRUE_GUARD)]
            for guard in _outside_window_guards(interval):
                edges.append(("out", "out", guard))
                edges.append(("in", "out", guard))
            initials = ["in"] if interval.contains(Fraction(0)) else ["out", "in"]
            return phases, edges, initials, ["out", "in"]
        case _ if _is_propositional(unit):
            phases = [("now", unit), ("done", _TOP)]
            edges = [("now", "done", TRUE_GUARD), ("done", "done", TRUE_GUARD)]
            return phases, edges, ["now"], ["done"]
    raise UnsupportedNesting(
        f"{type(unit).__name__} with non-propositional operands is outside "
        f"the flat fragment")


def _unit_automaton(unit: MitlFormula, letters: list[frozenset[str]],
                    alphabet: frozenset[str]) -> TimedAutomaton:
    phases, phase_edges, initials, accepting = _unit_phases(unit)
    phase_letters = {
        name: [lt for lt in letters if _phase_pred_holds(pred, lt)]
        for name, pred in phases}
    locations, labels = [], {}
    for name, _ in phases:
        for lt in phase_letters[name]:
            loc = (name, lt)
            locations.append(loc)
            labels[loc] = lt
    edges = []
    for src_phase, dst_phase, guard in phase_edges:
        for src_lt in phase_letters[src_phase]:
            for dst_lt in phase_letters[dst_phase]:
                edges.append(Edge((src_phase, src_lt), guard,
                                  (dst_phase, dst_lt)))
    initial = [(name, lt) for name in initials for lt in phase_letters[name]]
    accept = [(name, lt) for name in accepting for lt in phase_letters[name]]
    return TimedAutomaton(
        locations=locations, initial=initial, edges=edges, accepting=accept,
        labels=labels, alphabet=alphabet,
        c_max=_largest_constant(guard for _, _, guard in phase_edges))


def check_flat(formula: MitlFormula) -> None:
    """Raise UnsupportedNesting, naming the operator at fault, unless the
    formula is in the flat fragment ``from_flat_mitl`` translates: a
    conjunction of units, each propositional or one temporal operator over
    propositional operands, once negations are pushed inward. The checks
    are those of the translation (its normalisation and each unit's
    phases), and no automaton is built."""
    for unit in _conjuncts(_normalize(formula)):
        _unit_phases(unit)


def from_flat_mitl(formula: MitlFormula,
                   letters: Iterable[Iterable[str]] | None = None
                   ) -> TimedAutomaton:
    """Automaton accepting exactly the timed words satisfying a flat formula.

    ``letters`` are the service sets a word's positions can carry, by
    default every subset of the formula's atoms (``canonical_letters``).
    Each phase is expanded over those letters only, in canonical order, so
    an atom that no letter carries is never true. The automaton's alphabet
    is the formula's atoms and every service of the letters.
    """
    universe = canonical_letters(atoms(formula)) if letters is None \
        else sorted({frozenset(lt) for lt in letters},
                    key=lambda lt: (len(lt), sorted(lt)))
    alphabet = atoms(formula).union(*universe)
    automata = [_unit_automaton(u, universe, alphabet)
                for u in _conjuncts(_normalize(formula))]
    return reduce(intersect, automata)


# --------------------------------------------------------------------------
# intersection
# --------------------------------------------------------------------------

def intersect(a: TimedAutomaton, b: TimedAutomaton) -> TimedAutomaton:
    """Synchronous product accepting the intersection of both languages.

    Locations pair up only when their labels agree on the shared alphabet
    (joint label = union); Büchi acceptance uses the usual two-phase
    round-robin. Both read the one clock, so a joint edge conjoins the two
    guards. The product is built on the fly, as a search reaches it: only
    its initial locations, alphabet and largest constant are built at
    once. A location's label (``labels[q]``), its acceptance
    (``q in accepting``) and the edges leaving it (``edges_from[q]``) are
    built the first time they are asked for, and the location list, in
    the order of the parts' locations, only when something asks for all of
    it (``locations``, ``location_count``, ``edges``, or iterating
    ``labels`` or ``accepting``).
    """
    return _Intersection(a, b)


class _Views(dict):
    """Location -> the part of its label in the alphabet both parts of an
    intersection share, each entry built on its first lookup; KeyError for
    what is not a location."""

    def __init__(self, labels, shared: frozenset[str]):
        super().__init__()
        self._labels, self._shared = labels, shared

    def __missing__(self, q):
        view = self[q] = self._labels[q] & self._shared
        return view


class _Labels(Mapping):
    """Location -> letter of an intersection: the union of its parts'
    letters, each built on its first lookup.

    The locations are the pairs of part locations whose views agree, each
    in both phases; a lookup of any other triple raises KeyError.
    Iterating the mapping lists them all, in the parts' location order,
    which builds that list once.
    """

    def __init__(self, a: TimedAutomaton, b: TimedAutomaton, view_a: _Views,
                 view_b: _Views):
        self._a, self._b, self._view_a, self._view_b = a, b, view_a, view_b
        self._memo: dict = {}

    def __getitem__(self, loc):
        label = self._memo.get(loc)
        if label is None:
            qa, qb, ph = loc
            if ph not in (0, 1) or self._view_a[qa] != self._view_b[qb]:
                raise KeyError(loc)
            label = self._memo[loc] = self._a.labels[qa] | self._b.labels[qb]
        return label

    @cached_property
    def locations(self) -> tuple:
        a, b, view_a, view_b = self._a, self._b, self._view_a, self._view_b
        return tuple((qa, qb, ph) for qa in a.locations for qb in b.locations
                     if view_a[qa] == view_b[qb] for ph in (0, 1))

    def __iter__(self):
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)


class _Accepting(Set):
    """The accepting locations of an intersection: phase 0 over an
    accepting location of the first part. Membership is tested on the
    spot, the phase and the first part's acceptance before whether the
    triple is a location at all, so that a triple failing either never
    builds its letter (``_Labels``); iterating lists them in location
    order."""

    def __init__(self, a: TimedAutomaton, labels: _Labels):
        self._a, self._labels = a, labels

    def __contains__(self, loc) -> bool:
        qa, _, ph = loc
        return ph == 0 and qa in self._a.accepting and loc in self._labels

    def __iter__(self):
        return (loc for loc in self._labels.locations if loc in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _joint_moves(a: TimedAutomaton, b: TimedAutomaton, view_a: _Views,
                 view_b: _Views, loc, moves_a, moves_b) -> tuple[int, list]:
    """How the moves leaving intersection location ``loc`` pair up from
    its parts' moves, each a tuple whose last item is its target: (the
    round-robin phase every joint target enters, [(a's move, b's moves
    whose targets' views agree with its target's)]), moves in their
    parts' order. A joint move's target is (a's target, b's target,
    phase). This is the order of ``edges_from[loc]`` and of
    ``edge_rows``, in which ``TickClocks`` numbers locations. Phase 0
    waits for an accepting location of a, phase 1 for one of b."""
    qa, qb, ph = loc
    if ph == 0:
        nxt = 1 if qa in a.accepting else 0
    else:
        nxt = 0 if qb in b.accepting else 1
    by_view: dict = {}
    for move in moves_b:
        by_view.setdefault(view_b[move[-1]], []).append(move)
    return nxt, [(move, by_view.get(view_a[move[-1]], ()))
                 for move in moves_a]


class _EdgeTable(dict):
    """Location -> outgoing edges of an intersection, each entry built on
    its first lookup.

    The table holds the component automata and their shared-alphabet
    views, not the product, so the product and its table form no reference
    cycle; so do its label and acceptance tables.
    """

    def __init__(self, a: TimedAutomaton, b: TimedAutomaton, view_a: _Views,
                 view_b: _Views):
        super().__init__()
        self._a, self._b, self._view_a, self._view_b = a, b, view_a, view_b

    def __missing__(self, loc):
        a, b = self._a, self._b
        qa, qb, _ = loc
        nxt, pairs = _joint_moves(
            a, b, self._view_a, self._view_b, loc,
            [(e.guard, e.target) for e in a.edges_from[qa]],
            [(e.guard, e.target) for e in b.edges_from[qb]])
        edges = self[loc] = tuple(
            Edge(loc, guard_a.conjoin(guard_b), (ta, tb, nxt))
            for (guard_a, ta), matches in pairs for guard_b, tb in matches)
        return edges


class _Intersection(TimedAutomaton):
    """The product ``intersect`` returns, built on the fly: ``labels``,
    ``accepting`` and ``edges_from`` build each location's entry on its
    first lookup, and ``locations`` lists them all only when asked for.
    Its edge rows and carried letters are built from its parts' (``parts``,
    with their shared-alphabet ``views``)."""

    def __init__(self, a: TimedAutomaton, b: TimedAutomaton):
        shared = a.alphabet & b.alphabet
        view_a, view_b = _Views(a.labels, shared), _Views(b.labels, shared)
        self.parts, self.views = (a, b), (view_a, view_b)
        self.initial = tuple((qa, qb, 0) for qa in a.initial
                             for qb in b.initial if view_a[qa] == view_b[qb])
        self.labels = _Labels(a, b, view_a, view_b)
        self.accepting = _Accepting(a, self.labels)
        self.alphabet = a.alphabet | b.alphabet
        self.edges_from = _EdgeTable(a, b, view_a, view_b)
        self.c_max = max(a.c_max, b.c_max)

    @property
    def locations(self) -> tuple:
        return self.labels.locations

    def carried_letters(self) -> set[frozenset[str]]:
        """The unions of the parts' carried letters whose views agree,
        without listing the locations: a location's letter is the union of
        its parts' letters, and its parts pair up when their views do."""
        a, b = self.parts
        shared = a.alphabet & b.alphabet
        right = [(lb & shared, lb) for lb in b.carried_letters()]
        return {la | lb for la in a.carried_letters()
                for view, lb in right if la & shared == view}

    def edge_rows(self, loc, clocks: TickClocks) -> list[tuple]:
        """The rows of ``edges_from[loc]``, built from the parts' rows
        (``clocks.part_rows``) and paired as the edges are
        (``_joint_moves``). A joint edge's guard conjoins its parts'
        guards, so its tick range is the intersection of their ranges; its
        target letter is the union of theirs."""
        qa, qb, _ = loc
        a, b = self.parts
        nxt, pairs = _joint_moves(a, b, *self.views, loc,
                                  clocks.part_rows(a, qa),
                                  clocks.part_rows(b, qb))
        return [(la | lb, max(lo_a, lo_b), min(hi_a, hi_b), (ta, tb, nxt))
                for (la, lo_a, hi_a, ta), matches in pairs
                for lb, lo_b, hi_b, tb in matches]


# --------------------------------------------------------------------------
# lasso acceptance
# --------------------------------------------------------------------------

def accepts_lasso(automaton: TimedAutomaton, word: TimedWord,
                  node_cap: int = _NODE_CAP) -> bool:
    """Whether the automaton accepts an ultimately periodic timed word.

    Searches the finite graph of (location number, clock in ticks, word
    phase) nodes, a tick being the gcd of the word's gaps, for a reachable
    cycle through an accepting location; nodes are expanded on demand, and
    BudgetExceeded fires once the search has visited more than ``node_cap``
    nodes. Timestamps strictly increase, so each move adds at least one
    tick and only saturated nodes can close the cycle (``recurs``).

    The automaton reads each word letter's services in its alphabet; a
    ValueError names the first such letter that no location carries.
    """
    if not isinstance(word, TimedWord):
        raise NonPeriodicWord(
            f"need an ultimately periodic TimedWord, got {type(word).__name__}")
    delta = exact_gcd(word.gaps())
    clocks = TickClocks(automaton, delta)
    # word ticks per clock tick: every gap is a multiple of delta
    scale = (delta / word.unit).numerator
    letters = [word.letter(j) & automaton.alphabet
               for j in range(word.prefix_length + word.cycle_length)]
    carried = automaton.carried_letters()
    for position, letter in enumerate(letters):
        if letter not in carried:
            raise ValueError(f"no location carries the letter "
                             f"{sorted(letter)} at word position {position}")
    starts = [(clocks.number(loc), 0, 0) for loc in automaton.initial
              if automaton.labels[loc] == letters[0]]

    def successors(node):
        i, k, phase = node
        # the position this phase stands for advances to phase+1
        d = (word.tick(phase + 1) - word.tick(phase)) // scale
        next_phase = word.canonical(phase + 1)
        k, targets = clocks.moves(i, k, d, letters[next_phase])
        return [(target, k, next_phase) for target in targets]

    lasso = _ndfs.find_accepting_cycle(
        starts, successors, lambda node: clocks.recurs(node[0], node[1]),
        max_states=node_cap)
    return lasso is not None
