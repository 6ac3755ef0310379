"""Timed automata: flat-formula translation, intersection, lasso acceptance."""

from fractions import Fraction

import gc
import weakref
from functools import reduce

import numpy as np
import pytest

from mas import mitl
from mas.errors import BudgetExceeded, NonPeriodicWord, UnsupportedNesting
from mas.mitl import (TimedWord, evaluate, exact_gcd, parse,
                      word_from_lasso)
from mas.tba import accepts_lasso, canonical_letters, from_flat_mitl, intersect

from conftest import (random_flat_formula, random_lasso_word,
                      universal_acceptor)

G = frozenset({"green"})
P = frozenset({"p"})
E = frozenset()


def test_translation_agrees_with_evaluation_on_window_boundaries():
    word = word_from_lasso([E, E, P], [E], 1)  # p exactly at t = 2
    for text, expect in [
        ("F[0,2] p", True),
        ("F[0,2) p", False),
        ("F(2,5] p", False),
        ("F[2,2.5] p", True),
        ("G[0,1] !p", True),
        ("G[0,2] !p", False),
    ]:
        auto = from_flat_mitl(parse(text), letters=canonical_letters({"p"}))
        assert accepts_lasso(auto, word) is expect, text
        assert evaluate(word, parse(text)) is expect, text


def test_deadline_met_example_word():
    r1 = TimedWord(
        prefix=((G, Fraction(0)), (E, Fraction(1)),
                (G, Fraction(3)), (E, Fraction(4))),
        cycle=((G, Fraction(2)), (E, Fraction(1))))
    auto = from_flat_mitl(parse("F[2,5] green"))
    assert accepts_lasso(auto, r1)
    assert evaluate(r1, parse("F[2,5] green"))


def test_safety_violated_example_word():
    r2 = TimedWord(
        prefix=((G, Fraction(0)), (E, Fraction(1)), (E, Fraction(5, 2)),
                (E, Fraction(3))),
        cycle=((E, Fraction(3, 2)), (E, Fraction(1))))
    auto = from_flat_mitl(parse("G[0,5] green"))
    assert not accepts_lasso(auto, r2)
    assert not evaluate(r2, parse("G[0,5] green"))


def test_largest_constant_drives_saturation():
    auto = from_flat_mitl(parse("F[2,5] p"))
    assert auto.c_max == Fraction(5)
    auto = from_flat_mitl(parse("G[0,3] p & F[1,7] q"))
    assert auto.c_max == Fraction(7)


def test_universal_acceptor_accepts_anything():
    rng = np.random.default_rng(5)
    auto = universal_acceptor({"p", "q"})
    for _ in range(20):
        assert accepts_lasso(auto, random_lasso_word(rng))


def test_intersection_with_universal_is_identity_on_language():
    rng = np.random.default_rng(17)
    base = from_flat_mitl(parse("F[1,4] p"),
                          letters=canonical_letters({"p", "q"}))
    both = intersect(base, universal_acceptor({"p", "q"}))
    for _ in range(60):
        word = random_lasso_word(rng)
        assert accepts_lasso(base, word) == accepts_lasso(both, word)


def test_intersection_is_language_conjunction():
    rng = np.random.default_rng(23)
    f = parse("F[0,3] p")
    g = parse("G[1,4] q")
    auto = intersect(from_flat_mitl(f, letters=canonical_letters({"p", "q"})),
                     from_flat_mitl(g, letters=canonical_letters({"p", "q"})))
    for _ in range(60):
        word = random_lasso_word(rng, max_length=8)
        expect = evaluate(word, f) and evaluate(word, g)
        assert accepts_lasso(auto, word) == expect


def test_lasso_acceptance_stops_at_its_node_budget():
    word = word_from_lasso([G, E, E], [G, E, E, E], 1)  # six phases
    auto = universal_acceptor({"green"})
    assert accepts_lasso(auto, word)
    with pytest.raises(BudgetExceeded):
        accepts_lasso(auto, word, node_cap=2)


def test_translation_rejects_nested_temporal_operands():
    with pytest.raises(UnsupportedNesting):
        from_flat_mitl(parse("F[0,1] (F[0,1] a)"))
    with pytest.raises(UnsupportedNesting):
        from_flat_mitl(parse("!(a U[0,1] b)"))


def test_an_atom_no_letter_carries_is_never_true():
    b = frozenset({"b"})
    auto = from_flat_mitl(parse("F[0,1] a"), letters=canonical_letters({"b"}))
    assert auto.alphabet == {"a", "b"}
    assert {auto.labels[q] for q in auto.locations} == {E, b}
    rng = np.random.default_rng(29)
    for _ in range(40):
        word = random_lasso_word(rng, names=("b",), max_length=6)
        assert not accepts_lasso(auto, word)
    # a word that does carry the atom has no location to read it in
    with pytest.raises(ValueError, match=r"\['a'\].*position 1"):
        accepts_lasso(auto, word_from_lasso([E, frozenset({"a"})], [E], 1))


def test_services_outside_the_alphabet_are_ignored():
    word = word_from_lasso([frozenset({"p", "q"})], [E], Fraction(1, 2))
    formula = parse("F[0,1] p")
    assert evaluate(word, formula)
    assert accepts_lasso(from_flat_mitl(formula), word)
    assert not accepts_lasso(from_flat_mitl(parse("G[0,1] p")), word)


def test_lasso_acceptance_needs_a_timed_word():
    auto = universal_acceptor({"p"})
    with pytest.raises(NonPeriodicWord):
        accepts_lasso(auto, [({"p"}, 0)])


def test_canonical_letters_order():
    assert canonical_letters(frozenset({"b", "a"})) == [
        frozenset(), frozenset({"a"}), frozenset({"b"}),
        frozenset({"a", "b"})]


def test_given_letters_are_expanded_in_canonical_order():
    # the universe is deduplicated and sorted by size, then by names, the
    # order of canonical_letters, which the default universe uses as is
    formula = parse("F[0,2] p & G[0,1] !q")
    full = from_flat_mitl(formula)
    shuffled = canonical_letters({"p", "q"})[::-1] * 2
    auto = from_flat_mitl(formula, letters=shuffled)
    assert (auto.locations, auto.edges) == (full.locations, full.edges)
    # a smaller universe keeps the relative order of what is left
    auto = from_flat_mitl(formula, letters=[frozenset({"p", "q"}), E,
                                            frozenset({"q"})])
    assert auto.locations == tuple(
        q for q in full.locations if full.labels[q] != P)
    assert auto.edges == tuple(
        e for e in full.edges
        if P not in (full.labels[e.source], full.labels[e.target]))


def test_negated_units_translate_via_duality():
    word = word_from_lasso([P, P, E], [P], 1)
    for text in ("!(F[0,1] p)", "!(G[0,5] p)"):
        auto = from_flat_mitl(parse(text), letters=canonical_letters({"p"}))
        assert accepts_lasso(auto, word) == evaluate(word, parse(text))


def test_next_and_until_templates():
    word = word_from_lasso([P, frozenset({"q"})], [E], 1)
    cases = [
        ("X[1,2] q", True),
        ("X[2,3] q", False),
        ("p U[0,2] q", True),
        ("p U[2,4] q", False),  # p fails at position 1 before any late q
    ]
    for text, expect in cases:
        auto = from_flat_mitl(parse(text),
                              letters=canonical_letters({"p", "q"}))
        assert accepts_lasso(auto, word) is expect, text
        assert evaluate(word, parse(text)) is expect, text


def test_translation_agrees_with_evaluation_on_random_instances():
    rng = np.random.default_rng(20240821)
    for _ in range(120):
        formula = random_flat_formula(rng)
        word = random_lasso_word(rng, max_length=8)
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        assert accepts_lasso(auto, word) == evaluate(word, formula), \
            (mitl.formula_to_text(formula), word)


def test_fractional_step_words_agree_too():
    rng = np.random.default_rng(31)
    for _ in range(60):
        formula = random_flat_formula(rng)
        word = random_lasso_word(rng, max_length=6, dt=Fraction(1, 2))
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        assert accepts_lasso(auto, word) == evaluate(word, formula), \
            (mitl.formula_to_text(formula), word)


_MIXED_GAPS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
               Fraction(3, 2), Fraction(3, 10))


def _mixed_gap_word(rng, start=Fraction(0)) -> TimedWord:
    """Random lasso word whose gaps mix several sampling periods, its first
    position at ``start``."""
    def letter():
        return frozenset(x for x in "pq" if rng.random() < 0.4)

    def gap():
        return _MIXED_GAPS[int(rng.integers(len(_MIXED_GAPS)))]

    prefix, t = [], start
    for _ in range(int(rng.integers(1, 6))):
        prefix.append((letter(), t))
        t += gap()
    cycle = [(letter(), gap()) for _ in range(int(rng.integers(1, 5)))]
    return TimedWord(tuple(prefix), tuple(cycle))


def test_mixed_gap_words_agree_too():
    # clocks tick at the gcd of the word's gaps, from 1/20 up to 3/2
    rng = np.random.default_rng(41)
    verdicts, deltas = [], set()
    for _ in range(300):
        formula = random_flat_formula(rng)
        word = _mixed_gap_word(rng)
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        got = accepts_lasso(auto, word)
        assert got == evaluate(word, formula), \
            (mitl.formula_to_text(formula), word)
        verdicts.append(got)
        deltas.add(exact_gcd(word.gaps()))
    assert 0 < sum(verdicts) < len(verdicts)
    assert Fraction(1, 20) in deltas and len(deltas) > 4


def test_late_starting_words_agree_too():
    # a first timestamp off the gaps' grid makes the word's unit finer than
    # the gcd of its gaps, so each clock tick spans several of its ticks
    rng = np.random.default_rng(43)
    verdicts, scaled = [], 0
    for _ in range(200):
        formula = random_flat_formula(rng)
        word = _mixed_gap_word(rng, start=Fraction(1, 8))
        auto = from_flat_mitl(formula, letters=canonical_letters({"p", "q"}))
        got = accepts_lasso(auto, word)
        assert got == evaluate(word, formula), \
            (mitl.formula_to_text(formula), word)
        verdicts.append(got)
        scaled += exact_gcd(word.gaps()) != word.unit
    assert 0 < sum(verdicts) < len(verdicts) and scaled > 150


def test_intersection_is_freed_without_the_cycle_collector():
    parts = [from_flat_mitl(parse(text), letters=canonical_letters({"p", "q"}))
             for text in ("F[0,2] p", "G[0,1] !q", "F[1,3] q")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        joint = reduce(intersect, parts)
        for loc in joint.locations:
            joint.edges_from[loc]
        assert joint.c_max == 3
        ref = weakref.ref(joint)
        del joint
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
