"""Timed words counted in ticks of one exact unit, against Fraction words.

``mitl.TimedWord`` keeps each time as an int number of ``unit`` and
``evaluate`` compares tick gaps with tick windows. The oracle is the word
that holds one Fraction per position and its evaluator on Fraction gaps
(``conftest.FractionWord``, ``fraction_evaluate``). On random words and
formulas, both must agree on every reading: ``evaluate`` (where
``HorizonOverflow`` fires included), ``witness_instant``, ``time``,
``gaps``, ``period``, ``letter`` and equality.

Words are sampled (``word_from_lasso``, dt 0.0001725 and 1/3) or explicit
with mixed rational times. Every window of a random flat formula is
replaced by an open, closed, point or unbounded one whose ends are gaps of
the word itself, so they fall exactly on ticks, or lie between two of them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from mas import mitl
from mas.errors import HorizonOverflow
from mas.mitl import TimedWord, evaluate, witness_instant, word_from_lasso

from conftest import (FractionWord, fraction_evaluate,
                      fraction_witness_instant, fraction_word_from_lasso,
                      random_flat_formula)

NAMES = ("p", "q")
# durations of explicit words: floats read at their decimal repr, ratios
PALETTE = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(2, 5),
           0.25, Fraction(7, 6), 0.0001725)


def _letters(rng, count):
    return [frozenset(n for n in NAMES if rng.random() < 0.45)
            for _ in range(count)]


def _sampled(rng):
    """(tick word, Fraction word) of one sampled lasso run."""
    dt = (0.0001725, Fraction(1, 3))[int(rng.integers(2))]
    letters = _letters(rng, int(rng.integers(1, 10)))
    cut = int(rng.integers(0, len(letters)))
    return (word_from_lasso(letters[:cut], letters[cut:], dt),
            fraction_word_from_lasso(letters[:cut], letters[cut:], dt))


def _explicit(rng):
    """(tick word, Fraction word) of one explicit word: a prefix from a
    start time of 0 or a positive ratio, and a cycle, each step a few
    durations of a palette of ratios and floats."""
    def duration():
        steps = int(rng.integers(1, 4))
        return sum((mitl.to_fraction(PALETTE[int(rng.integers(len(PALETTE)))])
                    for _ in range(steps)), Fraction(0))

    start = Fraction(0) if rng.random() < 0.5 \
        else Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 7)))
    times = [start]
    for _ in range(int(rng.integers(0, 5))):
        times.append(times[-1] + duration())
    prefix = list(zip(_letters(rng, len(times)), times))
    cycle = [(letter, duration())
             for letter in _letters(rng, int(rng.integers(1, 5)))]
    return TimedWord(prefix, cycle), FractionWord(tuple(prefix), tuple(cycle))


def _window(rng, ends: list[Fraction]) -> mitl.Interval:
    """An open, closed, point or unbounded window between two of the
    word's own gaps, or between two ticks."""
    lo, hi = sorted(ends[int(i)] for i in rng.integers(len(ends), size=2))
    if rng.random() < 0.3:       # off the lattice, inside a tick
        lo += (hi - lo) * Fraction(int(rng.integers(1, 7)), 7)
    kind = rng.random()
    if kind < 0.15:
        return mitl.Interval(lo, None, lo_open=bool(rng.random() < 0.5),
                             hi_open=True)
    if kind < 0.3 or lo == hi:
        return mitl.Interval(lo, lo)
    return mitl.Interval(lo, hi, lo_open=bool(rng.random() < 0.5),
                         hi_open=bool(rng.random() < 0.5))


def _rewindowed(formula, rng, ends):
    """The formula with every window replaced by a ``_window``."""
    match formula:
        case mitl.Eventually(_, arg):
            return mitl.Eventually(_window(rng, ends), arg)
        case mitl.Always(_, arg):
            return mitl.Always(_window(rng, ends), arg)
        case mitl.Next(_, arg):
            return mitl.Next(_window(rng, ends), arg)
        case mitl.Until(_, left, right):
            return mitl.Until(_window(rng, ends), left, right)
        case mitl.Not(arg):
            return mitl.Not(_rewindowed(arg, rng, ends))
        case mitl.And(left, right):
            return mitl.And(_rewindowed(left, rng, ends),
                            _rewindowed(right, rng, ends))
    return formula


def _cases(seed: int, count: int):
    """(tick word, Fraction word, formulas) triples; the formulas include
    a top-level F over another formula, so witnesses are searched."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        word, oracle = (_sampled if trial % 2 else _explicit)(rng)
        horizon = oracle.prefix_length + 3 * oracle.cycle_length
        times = [oracle.time(j) for j in range(horizon)]
        ends = sorted({b - a for a in times for b in times if b >= a})
        formulas = [_rewindowed(random_flat_formula(rng, NAMES), rng, ends)
                    for _ in range(3)]
        formulas.append(mitl.Eventually(_window(rng, ends), formulas[0]))
        yield word, oracle, formulas


def _outcome(evaluate_at, word, formula, position, budget):
    try:
        return evaluate_at(word, formula, position, budget)
    except HorizonOverflow:
        return "overflow"


def test_tick_words_read_as_fraction_words():
    units = set()
    for word, oracle, _ in _cases(2301, 400):
        horizon = oracle.prefix_length + 3 * oracle.cycle_length
        assert (word.prefix_length, word.cycle_length) \
            == (oracle.prefix_length, oracle.cycle_length)
        for j in range(horizon):
            assert word.time(j) == oracle.time(j), j
            assert word.letter(j) == oracle.letter(j), j
            assert word.canonical(j) == oracle.canonical(j), j
        assert word.gaps() == oracle.gaps()
        assert word.period == oracle.period
        units.add(word.unit)
    assert {Fraction(1, 3), Fraction(69, 400000)} <= units and len(units) > 20


def test_tick_evaluation_matches_the_fraction_evaluator():
    verdicts = {True: 0, False: 0, "overflow": 0}
    witnesses = 0
    for word, oracle, formulas in _cases(2302, 200):
        positions = [0, word.prefix_length + word.cycle_length - 1]
        for formula in formulas:
            for position in positions:
                for budget in (1, 3, 8, 100_000):
                    got = _outcome(evaluate, word, formula, position, budget)
                    want = _outcome(fraction_evaluate, oracle, formula,
                                    position, budget)
                    assert got == want, (formula, position, budget)
                    verdicts[got] += 1
        got = witness_instant(word, formulas[-1])
        assert got == fraction_witness_instant(oracle, formulas[-1])
        witnesses += got is not None
    assert min(verdicts.values()) > 200 and witnesses > 25, \
        (verdicts, witnesses)


def test_tick_words_are_equal_exactly_when_fraction_words_are():
    rng = np.random.default_rng(2303)
    equal = unequal = 0
    for _ in range(300):
        letters = _letters(rng, int(rng.integers(2, 7)))
        cut = int(rng.integers(1, len(letters)))
        dt = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        sampled = word_from_lasso(letters[:cut], letters[cut:], dt)
        # the same times, given explicitly, or with one time moved
        prefix = [(ls, dt * j) for j, ls in enumerate(letters[:cut])]
        cycle = [(ls, dt) for ls in letters[cut:]]
        if rng.random() < 0.5:
            k = int(rng.integers(len(cycle)))
            cycle[k] = (cycle[k][0], dt * Fraction(int(rng.integers(1, 4)), 2))
        explicit = TimedWord(prefix, cycle)
        want = fraction_word_from_lasso(letters[:cut], letters[cut:], dt) \
            == FractionWord(tuple(prefix), tuple(cycle))
        assert (sampled == explicit) == want
        if want:
            assert hash(sampled) == hash(explicit)
        equal, unequal = equal + want, unequal + (not want)
    assert equal > 50 and unequal > 50, (equal, unequal)


@pytest.mark.parametrize("prefix,cycle", [
    ([], []),
    ([({"p"}, 0)], []),
    ([({"p"}, 1), ((), 1)], [((), 1)]),
    ([({"p"}, 0)], [((), 0)]),
    ([({"p"}, 0)], [((), Fraction(-1, 3))]),
])
def test_malformed_words_fail_as_fraction_words_do(prefix, cycle):
    with pytest.raises(ValueError) as want:
        FractionWord(tuple(prefix), tuple(cycle))
    with pytest.raises(ValueError) as got:
        TimedWord(prefix, cycle)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("dt", [0, -1, Fraction(-1, 2), 0.0])
@pytest.mark.parametrize("prefix", [0, 1, 3])
@pytest.mark.parametrize("cycle", [0, 1, 2])
def test_sampled_words_fail_as_fraction_words_do(dt, prefix, cycle):
    letters = [frozenset({"p"}), frozenset()] * 3
    args = (letters[:prefix], letters[prefix:prefix + cycle], dt)
    with pytest.raises(ValueError) as want:
        fraction_word_from_lasso(*args)
    with pytest.raises(ValueError) as got:
        word_from_lasso(*args)
    assert str(got.value) == str(want.value)


# items that are not str, some equal to each other as set items but not
# as text: 1 == 1.0 == True, and each reads differently through str
_ITEMS = ("p", "q", 1, 1.0, True, "1", 2.5)


def test_sampled_words_normalise_letters_given_in_any_form():
    rng = np.random.default_rng(2311)
    shared = 0
    for _ in range(300):
        count = int(rng.integers(1, 12))
        # a few letter objects, each repeated at several positions
        pool = [frozenset(x for x in _ITEMS if rng.random() < 0.3)
                for _ in range(int(rng.integers(1, 5)))]
        as_sets = [pool[int(rng.integers(len(pool)))] for _ in range(count)]
        # fresh objects per position: lists in a random order, and sets
        as_lists = [list(rng.permutation(np.array(list(ls), dtype=object)))
                    for ls in as_sets]
        fresh = [frozenset(ls) for ls in as_lists]
        cut = int(rng.integers(0, count))
        dt = Fraction(int(rng.integers(1, 4)), 3)
        want = tuple(frozenset(map(str, ls)) for ls in
                     (as_sets if cut else as_sets[cut:] + as_sets[cut:]))
        oracle = TimedWord([(ls, dt * j) for j, ls in
                            enumerate(as_sets[:cut] or as_sets[cut:])],
                           [(ls, dt) for ls in as_sets[cut:]])
        for letters in (as_sets, as_lists, fresh):
            word = word_from_lasso(letters[:cut], letters[cut:], dt)
            assert word == oracle
            assert word.letters == want
            assert all(type(letter) is frozenset for letter in word.letters)
            # one object per distinct letter
            assert len({id(letter) for letter in word.letters}) == \
                len(set(word.letters))
        shared += len(set(map(id, as_sets))) < len(as_sets)
    assert shared > 100
