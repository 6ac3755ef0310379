"""Formula parsing, exact timing arithmetic, pointwise evaluation."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mas import mitl
from mas.errors import HorizonOverflow, NonRationalConstant, ParseError
from mas.mitl import (Always, And, Atom, Eventually, Interval, Next, Not,
                      TimedWord, Until, atoms, evaluate, formula_to_text,
                      parse, to_fraction, witness_instant, word_from_lasso)

from conftest import reference_eval, unroll

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})
E = frozenset()


def lasso(letters_prefix, letters_cycle, dt=1):
    return word_from_lasso(letters_prefix, letters_cycle, dt)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_basic_shapes():
    assert parse("a") == Atom("a")
    assert parse("!a") == Not(Atom("a"))
    assert parse("a & b") == And(Atom("a"), Atom("b"))
    f = parse("F[0,2] a")
    assert isinstance(f, Eventually)
    assert f.interval == Interval(Fraction(0), Fraction(2))
    g = parse("G(1,inf) b")
    assert isinstance(g, Always)
    assert g.interval.hi is None and g.interval.lo_open
    u = parse("a U[0,3] b")
    assert isinstance(u, Until)
    x = parse("X[1,1.5] a")
    assert isinstance(x, Next)


def test_parse_precedence():
    # unary binds tightest, then U, then &
    f = parse("!a & b U[0,2] c")
    assert isinstance(f, And)
    assert f.left == Not(Atom("a"))
    assert isinstance(f.right, Until)
    nested = parse("F[0,1] a U[0,2] b")
    assert isinstance(nested, Until)
    assert isinstance(nested.left, Eventually)


def test_parse_rational_and_scientific_constants():
    f = parse("F[0,69/10000] g")
    assert f.interval.hi == Fraction(69, 10000)
    g = parse("F[1e-3,2.5] g")
    assert g.interval.lo == Fraction(1, 1000)
    assert g.interval.hi == Fraction(5, 2)


def test_formula_text_round_trip():
    for text in ("a", "!a & b", "F[0,2] (a & b)", "G[1,inf) c",
                 "a U(0,5] b", "X[1,2] !a", "F[0,69/10000] g",
                 "G[0,3] (a U[0,1] b)"):
        f = parse(text)
        assert parse(formula_to_text(f)) == f


def test_parse_error_positions():
    with pytest.raises(ParseError, match="position 1"):
        parse("F[2,1] a")  # empty interval
    for window in ("[1,1]", "(1,1]", "[1,1)"):  # point windows
        with pytest.raises(ParseError, match="empty or a point") as caught:
            parse(f"a U{window} b")
        assert caught.value.position == 3
    with pytest.raises(ParseError, match="position 4"):
        parse("a U b")  # missing interval
    with pytest.raises(ParseError, match="end of input"):
        parse("(a")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("a @ b")


def test_point_guard_interval_is_allowed():
    # the outside-window guard of (0,b] is the point window [0,0]
    point = Interval(Fraction(0), Fraction(0))
    assert point.contains(Fraction(0)) and not point.contains(Fraction(1))
    with pytest.raises(ValueError, match="empty"):
        Interval(Fraction(2), Fraction(1))


def test_non_rational_constant_rejected():
    with pytest.raises(NonRationalConstant):
        parse("G[0, 1.5/3] a")


def test_atoms_collects_proposition_names():
    assert atoms(parse("F[0,1] (a & !b U[0,2] c)")) \
        == frozenset({"a", "b", "c"})


def test_to_fraction_reads_floats_exactly_by_decimal_repr():
    assert to_fraction(0.1) == Fraction(1, 10)
    assert to_fraction(0.0103) == Fraction(103, 10000)
    assert to_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert to_fraction(7) == Fraction(7)


# --------------------------------------------------------------------------
# timed words
# --------------------------------------------------------------------------

def test_word_indexing_wraps_the_cycle():
    w = lasso([A, B], [E, A], Fraction(1, 2))
    assert w.letter(0) == A and w.time(0) == 0
    assert w.letter(1) == B and w.time(1) == Fraction(1, 2)
    assert w.letter(2) == E and w.letter(3) == A
    assert w.letter(4) == E  # cycle repeats
    assert w.time(4) == 2
    assert w.period == 1


def test_word_from_lasso_accepts_empty_prefix():
    w = word_from_lasso([], [A, E], 1)
    assert w.letter(0) == A
    assert w.time(0) == 0
    assert w.letter(2) == A and w.time(2) == 2


def test_word_from_lasso_gives_one_frozenset_per_distinct_letter():
    # fresh lists, one per position, against repeated frozenset objects
    # and an equal frozenset that is another object
    as_lists = word_from_lasso([["a"], ["b", "a"], [], ["a"]],
                               [["a", "b"], [], ["b", "a"]], 1)
    as_sets = word_from_lasso([A, AB, E, frozenset("a")], [AB, E, AB], 1)
    assert as_lists == as_sets
    for w in (as_lists, as_sets):
        assert w.letters == (A, AB, E, A, AB, E, AB)
        assert all(type(letter) is frozenset for letter in w.letters)
        assert len({id(letter) for letter in w.letters}) == 3


def test_degenerate_words_rejected():
    with pytest.raises(ValueError):
        word_from_lasso([A], [], 1)
    with pytest.raises(ValueError):
        TimedWord(((A, Fraction(0)),), ((E, Fraction(0)),))
    with pytest.raises(ValueError):
        word_from_lasso([A], [E], -1)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_eventually_window_boundaries():
    w = lasso([E, E, A], [E], 1)  # a exactly at t = 2
    assert evaluate(w, parse("F[0,2] a"))
    assert evaluate(w, parse("F[2,5] a"))
    assert not evaluate(w, parse("F[0,2) a"))  # open upper bound excludes it
    assert not evaluate(w, parse("F(2,5] a"))  # open lower bound excludes it
    assert not evaluate(w, parse("F[0,1] a"))


def test_always_window_boundaries():
    w = lasso([A, A, A, E], [E], 1)
    assert evaluate(w, parse("G[0,2] a"))
    assert not evaluate(w, parse("G[0,3] a"))
    assert evaluate(w, parse("G[0,3) a"))
    assert evaluate(w, parse("G[4,9] !a"))


def test_until_requires_left_to_hold_up_to_the_witness():
    w = lasso([A, A, B], [E], 1)
    assert evaluate(w, parse("a U[0,5] b"))
    assert evaluate(w, parse("a U[2,3] b"))
    broken = lasso([A, E, B], [E], 1)
    assert not evaluate(broken, parse("a U[0,5] b"))
    # witness inside the window even though left fails later
    late = lasso([A, B, E], [E], 1)
    assert evaluate(late, parse("a U[0,1] b"))


def test_next_checks_position_and_window():
    w = lasso([A, B], [E], Fraction(3, 2))
    assert evaluate(w, parse("X[1,2] b"))
    assert not evaluate(w, parse("X[2,3] b"))  # next instant misses window
    assert not evaluate(w, parse("X[1,2] a"))


def test_evaluation_at_later_positions():
    # positions: a@0, b@1, a@2, then the cycle b@3, {}@4, b@5, ...
    w = lasso([A, B, A], [B, E], 1)
    assert evaluate(w, parse("F[0,1] b"), position=4)
    assert not evaluate(w, parse("F[0,1) b"), position=4)
    assert evaluate(w, parse("G[0,9] (F[0,2] b)"), position=0)


def test_unbounded_windows_decided_via_the_cycle():
    assert evaluate(lasso([A], [A, A], 1), parse("G[0,inf) a"))
    assert not evaluate(lasso([A], [E, A], 1), parse("G[0,inf) a"))
    assert evaluate(lasso([E], [E, A], 1), parse("F[3,inf) a"))
    assert not evaluate(lasso([B], [E, E], 1), parse("F[0,inf) a"))


def test_horizon_budget_overflow():
    w = lasso([E], [E, A], Fraction(1, 1000))
    with pytest.raises(HorizonOverflow):
        evaluate(w, parse("F[0,1000] b"), budget=50)


def test_unbounded_window_scans_one_cycle_past_the_prefix():
    # no b anywhere: the scan visits the prefix position and then one cycle
    # from the first in-window position past the prefix, c positions
    for cycle in ([E], [E, A, E]):
        w = lasso([E], cycle)
        visited = 1 + len(cycle)
        assert not evaluate(w, parse("F[0,inf) b"), budget=visited)
        with pytest.raises(HorizonOverflow):
            evaluate(w, parse("F[0,inf) b"), budget=visited - 1)


def test_example_timed_words_from_staging_system():
    # two runs over the same plant: the first meets its deadline window,
    # the second leaves the safe region before the horizon ends
    g = frozenset({"green"})
    r1 = TimedWord(
        prefix=((g, Fraction(0)), (E, Fraction(1)),
                (g, Fraction(3)), (E, Fraction(4))),
        cycle=((g, Fraction(2)), (E, Fraction(1))))
    assert evaluate(r1, parse("F[2,5] green"))
    r2 = TimedWord(
        prefix=((g, Fraction(0)), (E, Fraction(1)), (E, Fraction(5, 2)),
                (E, Fraction(3))),
        cycle=((E, Fraction(3, 2)), (E, Fraction(1))))
    assert not evaluate(r2, parse("G[0,5] green"))


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------

_letters = st.sampled_from([A, B, AB, E])
_bounds = st.tuples(st.integers(0, 4), st.integers(1, 5)).map(
    lambda p: (p[0], p[0] + p[1]))


@st.composite
def _words(draw):
    prefix = draw(st.lists(_letters, min_size=0, max_size=4))
    cycle = draw(st.lists(_letters, min_size=1, max_size=4))
    dt = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    return word_from_lasso(prefix, cycle, dt)


@st.composite
def _flat_formulas(draw):
    lo, hi = draw(_bounds)
    iv = Interval(Fraction(lo), Fraction(hi),
                  lo_open=draw(st.booleans()) and lo < hi,
                  hi_open=draw(st.booleans()))
    name = draw(st.sampled_from(["a", "b"]))
    kind = draw(st.sampled_from(["F", "G", "U", "X"]))
    if kind == "F":
        return Eventually(iv, Atom(name))
    if kind == "G":
        return Always(iv, Atom(name))
    if kind == "X":
        return Next(iv, Atom(name))
    other = draw(st.sampled_from(["a", "b"]))
    return Until(iv, Atom(other), Atom(name))


@settings(max_examples=300, deadline=None)
@given(_words(), _flat_formulas())
def test_eventually_always_duality(word, formula):
    iv = formula.interval
    if isinstance(formula, Eventually):
        dual = Not(Always(iv, Not(formula.arg)))
    elif isinstance(formula, Always):
        dual = Not(Eventually(iv, Not(formula.arg)))
    else:
        dual = Not(Not(formula))
    assert evaluate(word, formula) == evaluate(word, dual)


@settings(max_examples=300, deadline=None)
@given(_words(), _flat_formulas())
def test_evaluation_matches_reference_semantics(word, formula):
    horizon = word.prefix_length + 40 * word.cycle_length
    letters, times = unroll(word, horizon)
    assert evaluate(word, formula) \
        == reference_eval(letters, times, formula)


@st.composite
def _eventually_goals(draw):
    """F over a bounded or unbounded window, its operand an atom or one
    bounded temporal operator over atoms."""
    lo, hi = draw(_bounds)
    lo_open = draw(st.booleans())
    if draw(st.booleans()):
        window = Interval(Fraction(lo), None, lo_open=lo_open, hi_open=True)
    else:
        window = Interval(Fraction(lo), Fraction(hi), lo_open=lo_open,
                          hi_open=draw(st.booleans()))
    operand = draw(st.one_of(
        st.sampled_from([Atom("a"), Atom("b")]),
        st.builds(lambda f, iv: Not(f(iv, Not(Atom("a")))),
                  st.sampled_from([Eventually, Always]),
                  st.sampled_from([Interval(Fraction(0), Fraction(1)),
                                   Interval(Fraction(1), Fraction(2),
                                            lo_open=True)])),
        st.builds(lambda iv: Until(iv, Atom("a"), Atom("b")),
                  st.sampled_from([Interval(Fraction(0), Fraction(2)),
                                   Interval(Fraction(1, 2), Fraction(3),
                                            hi_open=True)]))))
    return Eventually(window, operand)


@settings(max_examples=300, deadline=None)
@given(_words(), _eventually_goals())
def test_witness_instant_is_the_first_witness(word, formula):
    # slices 20 cycles longer than the search reach past every nested window
    search = word.prefix_length + 40 * word.cycle_length
    letters, times = unroll(word, search + 20 * word.cycle_length)
    expected = next(
        (times[j] for j in range(search)
         if formula.interval.contains(times[j] - times[0])
         and reference_eval(letters, times, formula.arg, j)), None)
    assert witness_instant(word, formula) == expected
    assert (expected is not None) == evaluate(word, formula)


@settings(max_examples=200, deadline=None)
@given(_words())
def test_eventually_is_monotone_in_the_window(word):
    narrow = parse("F[1,2] a")
    wide = parse("F[0,4] a")
    if evaluate(word, narrow):
        assert evaluate(word, wide)


def test_evaluation_frees_its_word_without_the_cycle_collector():
    word = lasso([E, A], [B, AB])
    ref = weakref.ref(word)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert evaluate(word, parse("F[1,inf) (a & b) & G[0,inf) F[0,2] b"))
        del word
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
