"""Metric interval temporal logic over timed service words.

Formulas follow the grammar::

    formula  := conj
    conj     := until ('&' until)*
    until    := unary ('U' interval until)?
    unary    := '!' unary | 'F' interval unary | 'G' interval unary
              | 'X' interval unary | '(' formula ')' | atom
    interval := ('['|'(') number ',' (number | 'inf') (']'|')')
    number   := decimal (`2.5`, `1e-3`) or integer ratio (`69/10000`)

with the usual precedence (unary binds tightest, then U, then &). Disjunction,
truth and falsity are derived: p | q = !(!p & !q), true = !(p & !p).

Semantics are pointwise over timed words: a word is a sequence of (service
set, timestamp) pairs and temporal windows constrain timestamp differences.
Words are ultimately periodic: a finite prefix with absolute timestamps
followed by a repeating cycle given as per-step durations. Float inputs are
read at their shortest decimal representation (0.1 becomes 1/10), and a word
keeps every time as an int count of one exact rational unit, the gcd of its
times, so window-boundary comparisons are exact integer comparisons against
the window's tick bounds (``window_ticks``).

``Interval`` is the one timing-window type of the package: formula windows
and the clock guards of ``tba`` alike. The parser refuses empty and point
windows; an Interval itself only needs lo <= hi, since a guard may be the
point [0,0]. Evaluation decides every window with one scan of the word's
ticks (``_Evaluation.scan``): F, G and U are short loops over it, and
``witness_instant`` returns the first in-window position of the same scan
where the operand of a top-level F holds.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable

from .errors import HorizonOverflow, NonRationalConstant, ParseError

DEFAULT_UNROLL_BUDGET = 100_000

TimeLike = int | float | Fraction


def to_fraction(x: TimeLike) -> Fraction:
    """Exact rational from a number; floats via their shortest decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))  # ValueError for inf/nan propagates
    return Fraction(x)


def exact_gcd(values: Iterable[Fraction]) -> Fraction:
    """Largest rational of which every value is an integer multiple."""
    return reduce(lambda a, b: Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator), values)


# --------------------------------------------------------------------------
# intervals and abstract syntax
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Timing window; ``hi=None`` means unbounded above, and lo <= hi."""

    lo: Fraction
    hi: Fraction | None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", to_fraction(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", to_fraction(self.hi))
        if self.lo < 0:
            raise ValueError(f"interval lower bound must be >= 0, got {self.lo}")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")

    def contains(self, gap: Fraction) -> bool:
        if gap < self.lo or (self.lo_open and gap == self.lo):
            return False
        if self.hi is None:
            return True
        if gap > self.hi or (self.hi_open and gap == self.hi):
            return False
        return True

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if (self.hi_open or self.hi is None) else "]"
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{left}{self.lo},{hi}{right}"


def window_ticks(interval: Interval, unit: Fraction) -> tuple[int, int | None]:
    """(lowest, highest) count k of ``unit`` whose k*unit the window
    contains; highest is None when the window is unbounded.

    A closed end admits ceil(lo/unit) up to floor(hi/unit), an open one
    floor(lo/unit) + 1 up to ceil(hi/unit) - 1, so a bound that falls
    exactly on a tick is kept or excluded as the window says.
    """
    lo = interval.lo / unit
    lo = math.floor(lo) + 1 if interval.lo_open else math.ceil(lo)
    if interval.hi is None:
        return lo, None
    hi = interval.hi / unit
    return lo, math.ceil(hi) - 1 if interval.hi_open else math.floor(hi)


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "MitlFormula"


@dataclass(frozen=True)
class And:
    left: "MitlFormula"
    right: "MitlFormula"


@dataclass(frozen=True)
class Next:
    interval: Interval
    arg: "MitlFormula"


@dataclass(frozen=True)
class Eventually:
    interval: Interval
    arg: "MitlFormula"


@dataclass(frozen=True)
class Always:
    interval: Interval
    arg: "MitlFormula"


@dataclass(frozen=True)
class Until:
    interval: Interval
    left: "MitlFormula"
    right: "MitlFormula"


MitlFormula = Atom | Not | And | Next | Eventually | Always | Until


def atoms(formula: MitlFormula) -> frozenset[str]:
    """All atomic proposition names occurring in a formula."""
    match formula:
        case Atom(name):
            return frozenset({name})
        case Not(arg) | Next(_, arg) | Eventually(_, arg) | Always(_, arg):
            return atoms(arg)
        case And(left, right) | Until(_, left, right):
            return atoms(left) | atoms(right)
    raise TypeError(f"not a formula node: {formula!r}")


def formula_to_text(formula: MitlFormula) -> str:
    """Parseable text for a formula (round-trips through parse())."""
    match formula:
        case Atom(name):
            return name
        case Not(arg):
            return f"!{formula_to_text(arg)}" if isinstance(arg, Atom) \
                else f"!({formula_to_text(arg)})"
        case And(left, right):
            return f"({formula_to_text(left)}) & ({formula_to_text(right)})"
        case Next(interval, arg):
            return f"X{interval} ({formula_to_text(arg)})"
        case Eventually(interval, arg):
            return f"F{interval} ({formula_to_text(arg)})"
        case Always(interval, arg):
            return f"G{interval} ({formula_to_text(arg)})"
        case Until(interval, left, right):
            return f"({formula_to_text(left)}) U{interval} ({formula_to_text(right)})"
    raise TypeError(f"not a formula node: {formula!r}")


# --------------------------------------------------------------------------
# timed words
# --------------------------------------------------------------------------

def _normalize_steps(steps):
    out = []
    for services, t in steps:
        out.append((frozenset(str(s) for s in services), to_fraction(t)))
    return tuple(out)


@dataclass(frozen=True, init=False)
class TimedWord:
    """Ultimately periodic timed word, its times counted in ticks of one
    exact unit.

    ``TimedWord(prefix, cycle)``: ``prefix`` holds (services, absolute
    timestamp) pairs, strictly increasing; ``cycle`` holds (services,
    duration) pairs with positive durations, repeated forever after the
    prefix. The word at position len(prefix)+k occurs
    ``duration_0+..+duration_k`` after the last prefix timestamp.

    ``unit`` is the gcd of the non-zero timestamps and the durations, so
    every time is an int number of units: ``ticks[j]`` for the prefix and
    the first pass of the cycle (``letters`` holds their letters), and
    one ``period_ticks`` more per later pass (``tick``). ``time(j)`` is the
    exact rational ``tick(j) * unit``. Two words are equal when their
    letters and times are.
    """

    letters: tuple[frozenset[str], ...]
    ticks: tuple[int, ...]
    prefix_length: int
    cycle_length: int
    period_ticks: int
    unit: Fraction

    def __init__(self, prefix, cycle):
        prefix = _normalize_steps(prefix)
        cycle = _normalize_steps(cycle)
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
        unit = exact_gcd([t for _, t in prefix if t] + [d for _, d in cycle])
        times = [t for _, t in prefix[:-1]]
        times += itertools.accumulate((d for _, d in cycle),
                                      initial=prefix[-1][1])
        ticks = tuple((t / unit).numerator for t in times)
        p = len(prefix)
        self._set(tuple(ls for ls, _ in prefix + cycle), ticks, p,
                  ticks[-1] - ticks[p - 1], unit)

    def _set(self, letters, ticks, prefix_length, period_ticks, unit):
        vars(self).update(letters=letters, ticks=ticks,
                          prefix_length=prefix_length,
                          cycle_length=len(letters) - prefix_length,
                          period_ticks=period_ticks, unit=unit)

    @cached_property
    def period(self) -> Fraction:
        return self.period_ticks * self.unit

    def canonical(self, position: int) -> int:
        """Earliest position with an identical (time-shifted) suffix."""
        p = self.prefix_length
        if position < p:
            return position
        return p + (position - p) % self.cycle_length

    def letter(self, position: int) -> frozenset[str]:
        return self.letters[self.canonical(position)]

    def tick(self, position: int) -> int:
        """The time of a position in units."""
        ticks = self.ticks
        if position < len(ticks):
            return ticks[position]
        wraps, k = divmod(position - self.prefix_length, self.cycle_length)
        return ticks[self.prefix_length + k] + wraps * self.period_ticks

    def time(self, position: int) -> Fraction:
        return self.tick(position) * self.unit

    def gaps(self) -> list[Fraction]:
        """Every consecutive time gap of the prefix, then from the last
        prefix position into the cycle, then each cycle duration."""
        ticks, p, unit = self.ticks, self.prefix_length, self.unit
        steps = itertools.chain(range(p), range(p - 1, len(ticks) - 1))
        return [(self.tick(j + 1) - ticks[j]) * unit for j in steps]


def word_from_lasso(letters_prefix, letters_cycle, dt: TimeLike) -> TimedWord:
    """Word of a uniformly sampled lasso run: position j occurs at j*dt.

    The unit is dt, so position j sits at tick j; an empty prefix takes
    one copy of the cycle, so that position 0 is explicit. A run repeats
    a few letters over many positions, so each distinct letter is
    normalised to a frozenset of str once: a letter given as a frozenset
    equal to one already normalised takes that one, and equal letters
    share one frozenset in the word.
    """
    unit = to_fraction(dt)
    prefix, cycle = list(letters_prefix), list(letters_cycle)
    if not prefix:
        prefix = cycle
    if unit <= 0 or not cycle:
        # the general constructor names the fault
        return TimedWord([(ls, unit * j) for j, ls in enumerate(prefix)],
                         [(ls, unit) for ls in cycle])
    # each normal form once; a frozenset equal to one is a set of those
    # str names already, so it is looked up rather than normalised again
    distinct: dict[frozenset[str], frozenset[str]] = {}
    letters = []
    for ls in prefix + cycle:
        letter = distinct.get(ls) if type(ls) is frozenset else None
        if letter is None:
            letter = frozenset(map(str, ls))
            letter = distinct.setdefault(letter, letter)
        letters.append(letter)
    letters = tuple(letters)
    word = object.__new__(TimedWord)
    word._set(letters, tuple(range(len(letters))), len(prefix), len(cycle),
              unit)
    return word


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:\s*/\s*\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],&!])
""", re.VERBOSE)

_OPERATORS = {"F", "G", "X", "U"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        return self.advance()

    def parse(self) -> MitlFormula:
        formula = self.conj()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return formula

    def conj(self) -> MitlFormula:
        node = self.until()
        while self.peek()[1] == "&":
            self.advance()
            node = And(node, self.until())
        return node

    def until(self) -> MitlFormula:
        node = self.unary()
        kind, text, pos = self.peek()
        if kind == "ident" and text == "U":
            self.advance()
            interval = self.interval()
            right = self.until()  # right-associative
            return Until(interval, node, right)
        return node

    def unary(self) -> MitlFormula:
        kind, text, pos = self.peek()
        if text == "!":
            self.advance()
            return Not(self.unary())
        if kind == "ident" and text in ("F", "G", "X"):
            self.advance()
            interval = self.interval()
            arg = self.unary()
            return {"F": Eventually, "G": Always, "X": Next}[text](interval, arg)
        if text == "(":
            self.advance()
            node = self.conj()
            self.expect(")")
            return node
        if kind == "ident":
            if text in _OPERATORS or text == "inf":
                raise ParseError(f"{text!r} is reserved and cannot be an atom", pos)
            self.advance()
            return Atom(text)
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)

    def number(self) -> Fraction:
        kind, text, pos = self.advance()
        if kind != "number":
            raise ParseError(f"expected a number, found {text or 'end of input'!r}", pos)
        try:
            return Fraction(text)
        except ValueError:
            raise NonRationalConstant(
                f"cannot read {text!r} as an exact rational", pos) from None

    def interval(self) -> Interval:
        kind, text, pos = self.peek()
        if text not in ("[", "("):
            raise ParseError(f"expected an interval, found {text or 'end of input'!r}", pos)
        self.advance()
        lo_open = text == "("
        lo = self.number()
        self.expect(",")
        kind, text, pos2 = self.peek()
        if kind == "ident" and text == "inf":
            self.advance()
            hi = None
        else:
            hi = self.number()
        kind, text, pos3 = self.peek()
        if text not in ("]", ")"):
            raise ParseError(f"expected ']' or ')', found {text or 'end of input'!r}", pos3)
        self.advance()
        if hi is not None and lo >= hi:
            raise ParseError(f"interval [{lo}, {hi}] is empty or a point", pos)
        return Interval(lo, hi, lo_open=lo_open,
                        hi_open=text == ")" or hi is None)


def parse(text: str) -> MitlFormula:
    """Parse formula text; raises ParseError (with position) on bad input."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def evaluate(word: TimedWord, formula: MitlFormula, position: int = 0,
             budget: int = DEFAULT_UNROLL_BUDGET) -> bool:
    """Pointwise satisfaction of a formula at a position of a lasso word.

    An unbounded window is decided by scanning one full cycle from its first
    position at or past the prefix (suffixes one cycle apart are identical
    up to a time shift).
    Raises HorizonOverflow if more than ``budget`` positions get scanned.
    """
    return _Evaluation(word, budget).at(formula, position)


def witness_instant(word: TimedWord, formula: MitlFormula) -> Fraction | None:
    """First in-window time witnessing a top-level eventually-goal.

    Returns None for formulas that are not a top-level eventually, and for
    unsatisfied ones. The positions tried are those ``evaluate`` scans.
    """
    if not isinstance(formula, Eventually):
        return None
    run = _Evaluation(word, DEFAULT_UNROLL_BUDGET)
    for j, inside in run.scan(0, formula.interval):
        if inside and run.at(formula.arg, j):
            return word.time(j)
    return None


class _Evaluation:
    """Memoised recursive evaluation over one word.

    Windows are compared in the word's ticks: each formula window's tick
    bounds are computed once (``window``), and a gap of g ticks is inside
    exactly when it lies between them.

    Its methods reach each other through the instance, not through closures
    that refer to one another, so the word and the memo are freed as soon
    as ``evaluate`` returns.
    """

    __slots__ = ("word", "memo", "windows", "left")

    def __init__(self, word: TimedWord, budget: int):
        self.word = word
        self.memo: dict[tuple[int, int], bool] = {}
        # id(interval) -> its tick bounds; the formula keeps each alive
        self.windows: dict[int, tuple[int, int | None]] = {}
        self.left = budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise HorizonOverflow(
                "formula evaluation exceeded its unrolling budget; "
                "the word/formula combination needs too many positions")

    def window(self, interval: Interval) -> tuple[int, int | None]:
        bounds = self.windows.get(id(interval))
        if bounds is None:
            bounds = self.windows[id(interval)] = window_ticks(
                interval, self.word.unit)
        return bounds

    def scan(self, i: int, interval: Interval):
        """(j, whether time(j) - time(i) is in the window) for j = i, i+1, ...

        Stops past the upper bound or, for an unbounded window, after the
        c positions from the first in-window position j at or past the
        prefix (c the cycle length): position j + c repeats j's suffix up to
        a time shift, and every later one an earlier suffix.
        """
        word = self.word
        lo, hi = self.window(interval)
        tick = word.tick
        base = tick(i)
        j, last = i, None
        while True:
            self.spend()
            gap = tick(j) - base
            inside = lo <= gap and (hi is None or gap <= hi)
            yield j, inside
            if hi is not None:
                if gap > hi:
                    return
            else:
                if last is None and inside and j >= word.prefix_length:
                    last = j + word.cycle_length - 1
                if last is not None and j >= last:
                    return
            j += 1

    def at(self, f: MitlFormula, i: int) -> bool:
        i = self.word.canonical(i)
        key = (id(f), i)
        memo = self.memo
        if key in memo:
            return memo[key]
        result = self._eval(f, i)
        memo[key] = result
        return result

    def _eval(self, f: MitlFormula, i: int) -> bool:
        word, eval_at = self.word, self.at
        match f:
            case Atom(name):
                return name in word.letters[i]
            case Not(arg):
                return not eval_at(arg, i)
            case And(left, right):
                return eval_at(left, i) and eval_at(right, i)
            case Next(interval, arg):
                lo, hi = self.window(interval)
                gap = word.tick(i + 1) - word.tick(i)
                return lo <= gap and (hi is None or gap <= hi) \
                    and eval_at(arg, i + 1)
            case Eventually(interval, arg):
                return any(inside and eval_at(arg, j)
                           for j, inside in self.scan(i, interval))
            case Always(interval, arg):
                return all(not inside or eval_at(arg, j)
                           for j, inside in self.scan(i, interval))
            case Until(interval, left, right):
                for j, inside in self.scan(i, interval):
                    if inside and eval_at(right, j):
                        return True
                    if not eval_at(left, j):
                        return False  # no later witness can be reached
                return False
        raise TypeError(f"not a formula node: {f!r}")
