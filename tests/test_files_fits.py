"""The walker's fast path (``fits`` of ``Object`` and ``Array``) against the
generator-based ``fits`` it replaced.

The oracle is a local copy of the earlier methods. Each case applies one to
three random mutations to a scenario, a synthesized plans.json or a timed
word in either form: a bool in place of an integer, a dict or list replaced
by a subclass copy, a key deleted or an unknown one added, an array
lengthened, shortened or emptied, a scalar replaced. Every ``fits`` call the
walk makes is replayed against the oracle with the same values and the same
known top-level keys. Where the values hold no subclass both must answer
alike; where they do, the fast path may reject (the values are then walked
by ``fault``) but must never accept what the oracle rejects. The walk's
problem lists must be equal under either.

Targeted cases put one fault into a plans.json whose first prefix holds
1 600 steps: a required key missing at step 1 500, an unknown key in one
step, an optional key in only some objects, an empty cycle, one step that
is a dict subclass. Their problem lists must be the expected ones under the
fast path, the oracle and a walk in which no list fits, where ``fault``
alone names the problems.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from pathlib import Path

import pytest

from mas.cli import main
from mas.errors import SchemaError
from mas.files import (COMPACT_WORD, EXPLICIT_WORD, PLANS, SCENARIO, Array,
                       Object, _walk, _Walk)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# --------------------------------------------------------------------------
# oracle: the fits methods before they tested whole lists with builtins
# --------------------------------------------------------------------------

def _oracle_array_fits(self, values: list, walk: _Walk) -> bool:
    n = walk.known.get(self.length) if isinstance(self.length, str) \
        else self.length
    return all(isinstance(v, list) and (v or not self.nonempty)
               and n in (None, len(v)) for v in values) and \
        self.items.fits(list(itertools.chain.from_iterable(values)), walk)


def _oracle_object_fits(self, values: list, walk: _Walk) -> bool:
    return all(isinstance(v, dict) and self.allowed.issuperset(v)
               and self.required.issubset(v) for v in values) and \
        all(k.type.fits([v[k.name] for v in values if k.name in v], walk)
            for k in self.keys) and \
        not (self.check and any(map(self.check, values)))


# --------------------------------------------------------------------------
# random mutations
# --------------------------------------------------------------------------

class _Dict(dict):
    pass


class _List(list):
    pass


def _has_subclass(value) -> bool:
    if isinstance(value, dict):
        return type(value) is not dict or \
            any(map(_has_subclass, value.values()))
    if isinstance(value, list):
        return type(value) is not list or any(map(_has_subclass, value))
    return False


def _mutate(doc, rng: random.Random):
    """Mutate one value of doc in place, or return a new root."""
    parent, key, value = None, None, doc
    while isinstance(value, (dict, list)) and value and rng.random() < 0.8:
        parent, key = value, rng.choice(
            list(value) if isinstance(value, dict) else range(len(value)))
        value = parent[key]
    if isinstance(value, dict):
        choices = ["subclass", "unknown key"] + (["delete"] if value else [])
    elif isinstance(value, list):
        choices = ["subclass", "empty", "append"] + (
            ["drop"] if value else [])
    elif type(value) is int:
        choices = ["bool"]
    else:
        choices = ["replace"]
    if parent is None:  # the root stays a container
        choices = [c for c in choices if c != "replace"] or ["subclass"]
    how = rng.choice(choices)
    if how == "unknown key":
        value["zz"] = 1
    elif how == "delete":
        del value[rng.choice(list(value))]
    elif how == "empty":
        value.clear()
    elif how == "append":
        value.append(copy.deepcopy(rng.choice(value)) if value else 1)
    elif how == "drop":
        del value[rng.randrange(len(value))]
    else:
        new = {"subclass": lambda: (_Dict if isinstance(value, dict)
                                    else _List)(value),
               "bool": lambda: rng.choice([True, False]),
               "replace": lambda: rng.choice([True, 0, "x", None, []])}[how]()
        if parent is None:
            return new
        parent[key] = new
    return doc


# --------------------------------------------------------------------------
# the comparison
# --------------------------------------------------------------------------

def _problems(doc, table):
    try:
        _walk(doc, table, "document")
    except SchemaError as exc:
        return exc.problems
    return []


@pytest.fixture(scope="module")
def plans_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("plans")
    assert main(["synthesize", "--scenario", str(SCENARIOS / "pair_line.json"),
                 "--out", str(out)]) == 0
    return json.loads((out / "plans.json").read_text())


def _documents(plans_doc):
    compact = {"dt": 0.5, "prefix": [["port"], []], "cycle": [["dock"], []]}
    explicit = {"prefix": [{"services": [], "time": 0},
                           {"services": ["port"], "time": "3/2"}],
                "cycle": [{"services": [], "duration": "1/2"},
                          {"services": ["port"], "duration": 1}]}
    return [(json.loads((SCENARIOS / name).read_text()), SCENARIO)
            for name in ("pair_line.json", "path3_plane.json")] + [
        (plans_doc, PLANS), (compact, COMPACT_WORD),
        (explicit, EXPLICIT_WORD)]


def test_fast_path_agrees_with_the_oracle(plans_doc, monkeypatch):
    rng = random.Random(20161)
    fast = {Array: Array.fits, Object: Object.fits}
    oracle = {Array: _oracle_array_fits, Object: _oracle_object_fits}
    calls = []

    def recorded(cls):
        def fits(self, values, walk):
            result = fast[cls](self, values, walk)
            calls.append((cls, self, values, dict(walk.known), result))
            return result
        return fits

    seen = set()
    for base, table in _documents(plans_doc):
        for _ in range(150):
            doc = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                doc = _mutate(doc, rng)
            calls.clear()
            for cls in fast:
                monkeypatch.setattr(cls, "fits", recorded(cls))
            problems = _problems(doc, table)
            for cls in fast:
                monkeypatch.setattr(cls, "fits", oracle[cls])
            assert _problems(doc, table) == problems
            for cls, typ, values, known, result in calls:
                walk = _Walk()
                walk.known = known
                expected = oracle[cls](typ, values, walk)
                if _has_subclass(values):
                    assert expected or not result
                    seen.add(("subclass", result == expected))
                else:
                    assert result == expected
                    seen.add((cls, result))
            seen.add(("problems", bool(problems)))
    # the cases reach both answers of both methods, a subclass that only
    # the fast path rejects, and documents with and without problems
    assert seen >= {(Array, True), (Array, False), (Object, True),
                    (Object, False), ("subclass", False),
                    ("problems", True), ("problems", False)}


# --------------------------------------------------------------------------
# targeted cases: key presence and unknown keys in long step arrays
# --------------------------------------------------------------------------

def _long_plans(plans_doc, steps=1600):
    """plans_doc with agent 1's prefix lengthened to ``steps`` step objects,
    each its own copy."""
    doc = copy.deepcopy(plans_doc)
    prefix = doc["agents"][0]["prefix"] or doc["agents"][0]["cycle"]
    doc["agents"][0]["prefix"] = [copy.deepcopy(prefix[k % len(prefix)])
                                  for k in range(steps)]
    return doc


def _drop(key):
    def edit(doc):
        del doc["agents"][0]["prefix"][1500][key]
    return edit


def _add_unknown(doc):
    doc["agents"][0]["prefix"][1500]["zz"] = 1


def _drop_witness(value):
    def edit(doc):
        del doc["agents"][0]["witness_time"]
        doc["agents"][1]["witness_time"] = value
    return edit


def _empty_cycle(doc):
    doc["agents"][1]["cycle"] = []


def _subclass_step(doc):
    prefix = doc["agents"][0]["prefix"]
    prefix[1500] = _Dict(prefix[1500])


def _missing_and_unknown(doc):
    _drop("action")(doc)
    _add_unknown(doc)


_TARGETED = {
    "required key missing at 1500": (_drop("cell"), [
        ("/agents/0/prefix/1500/cell", "required key is missing")]),
    "unknown key in one step": (_add_unknown, [
        ("/agents/0/prefix/1500/zz", "unknown key (known: action, cell, "
         "input_norm, remainder, services, time)")]),
    "missing and unknown in one step": (_missing_and_unknown, [
        ("/agents/0/prefix/1500/action", "required key is missing"),
        ("/agents/0/prefix/1500/zz", "unknown key (known: action, cell, "
         "input_norm, remainder, services, time)")]),
    "witness_time in some agents": (_drop_witness("3/2"), []),
    "witness_time in some agents, malformed": (_drop_witness("x"), [
        ("/agents/1/witness_time",
         "expected null or an exact-ratio string")]),
    "empty cycle": (_empty_cycle, [
        ("/agents/1/cycle", "expected a non-empty array")]),
    "one step a dict subclass": (_subclass_step, []),
}


@pytest.mark.parametrize("case", _TARGETED)
def test_targeted_cases_name_the_same_problems(plans_doc, monkeypatch, case):
    """The fast path's answers match the oracle's on every list it is
    given, and the problems are the expected ones under the fast path, the
    oracle and a walk in which nothing fits, so ``fault`` alone names
    them."""
    edit, expected = _TARGETED[case]
    doc = _long_plans(plans_doc)
    assert _problems(doc, PLANS) == []
    edit(doc)
    fast = Object.fits
    calls = []

    def recorded(self, values, walk):
        result = fast(self, values, walk)
        calls.append((self, values, dict(walk.known), result))
        return result

    monkeypatch.setattr(Object, "fits", recorded)
    problems = _problems(doc, PLANS)
    assert problems == expected
    # the long prefix's steps were given to the fast path in one list
    assert any(len(values) >= 1600 for _, values, _, _ in calls)
    for typ, values, known, result in calls:
        walk = _Walk()
        walk.known = known
        want = _oracle_object_fits(typ, values, walk)
        assert result == (want and not _has_subclass(values))
    monkeypatch.setattr(Object, "fits", _oracle_object_fits)
    monkeypatch.setattr(Array, "fits", _oracle_array_fits)
    assert _problems(doc, PLANS) == expected
    monkeypatch.setattr(Object, "fits", lambda self, values, walk: False)
    monkeypatch.setattr(Array, "fits", lambda self, values, walk: False)
    assert _problems(doc, PLANS) == expected
