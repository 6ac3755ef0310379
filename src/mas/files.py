"""Scenarios, plans.json and timed words: read by one walker; plans.json is
also written here (``plans_json``), and so is the text of the other JSON
artifacts (``json_text``).

Each file's structure is a table: ``SCENARIO``, ``PLANS``, ``COMPACT_WORD``
and ``EXPLICIT_WORD``. A table entry (:class:`Key`) names a key, gives its
JSON type with a minimum or positivity rule and a length, and says whether
the key is required; a length is a number or the name of a top-level key read
before it (``agents``, ``dimension``). The walker checks a document against
its table and collects every problem as a (JSON pointer, message) pair: a
missing or unknown key, a wrong type, a number that is not finite, a wrong
length, an agent key that is not the decimal form of an agent number in
range. The problems are raised together as one SchemaError.

Content that is well formed but inconsistent is checked after the walk by
plain code. A scenario raises SemanticError, ParseError or
UnsupportedNesting (a formula outside the flat fragment); a timed word with
an empty cycle, times that do not increase or durations that are not
positive raises a SchemaError at the empty pointer.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError, SemanticError, UnsupportedNesting
from .mitl import MitlFormula, TimedWord, atoms, parse, word_from_lasso
from .partition import LabeledRegion, Workspace
from .synthesis import Plan, SynthesisResult
from .tba import check_flat

_BOUNDARY_TOL = 1e-9


# --------------------------------------------------------------------------
# the walker
# --------------------------------------------------------------------------

class _Walk:
    """One document's problems, and the valid top-level values that lengths
    and agent ranges refer to."""

    def __init__(self):
        self.problems: list[tuple[str, str]] = []
        self.known: dict = {}

    def fault(self, parent: str, key, message: str) -> None:
        if isinstance(key, str):  # RFC 6901 escapes "~" and "/" in a key
            key = key.replace("~", "~0").replace("/", "~1")
        self.problems.append((_pointer(parent, key), message))


def _pointer(parent: str, key) -> str:
    return parent if key is None else f"{parent}/{key}"


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _ratio(v: str) -> bool:
    try:
        Fraction(v)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# The scalar types, keyed by the words a fault message names them with: the
# Python types json.loads gives such a value (never bool for a number), and a
# test of its content where the type is not enough.
_KINDS = {
    "an integer": ({int}, None),
    "a finite number": ({int, float}, _finite),
    "a string": ({str}, None),
    "a non-empty string": ({str}, bool),
    "a number or an exact-ratio string": (
        {int, float, str},
        lambda v: _ratio(v) if isinstance(v, str) else _finite(v)),
    "null or an exact-ratio string": (
        {type(None), str}, lambda v: v is None or _ratio(v)),
}

# Every type has two methods. fault(value, walk, parent, key) returns what is
# wrong with the value itself, or None, and records the problems of the
# values inside it; a value is named by its parent's pointer and its key, and
# a pointer is only spelt out where it is needed. fits(values, walk) says
# whether a list of values has no problem at all, testing them together a
# type or a key at a time, so that an array walks its items one by one, to
# name their problems, only when they have some. fits tests the whole list
# with builtins (map, set, all), which run at C speed: an object's keys are
# tested once, as the union of the list's key sets, and a missing required
# key is the KeyError of its column's getter. It may be stricter
# than fault (a dict or list subclass does not fit): values that do not fit
# are walked by fault, which names the same problems.


class Scalar:
    """A value of a ``_KINDS`` type that is at least ``minimum``, positive
    if asked, and at most the top-level key ``maximum``."""

    def __init__(self, kind: str, minimum: int | None = None,
                 positive: bool = False, maximum: str | None = None):
        self.kind = kind
        self.types, self.content = _KINDS[kind]
        self.minimum, self.positive, self.maximum = minimum, positive, maximum
        self.bounded = minimum is not None or positive or maximum is not None

    def fault(self, value, walk: _Walk, parent="", key=None) -> str | None:
        if type(value) not in self.types or \
                self.content and not self.content(value):
            return f"expected {self.kind}"
        if self.minimum is not None and value < self.minimum:
            return f"must be at least {self.minimum}"
        if self.positive and value <= 0:
            return "must be positive"
        top = walk.known.get(self.maximum)
        if top is not None and value > top:
            return f"must be at most {top}"
        return None

    def fits(self, values: list, walk: _Walk) -> bool:
        if not set(map(type, values)) <= self.types or \
                self.content and not all(map(self.content, values)):
            return False
        return not (self.bounded and values) or \
            not self.fault(min(values), walk) and \
            not self.fault(max(values), walk)


@dataclass(frozen=True)
class Array:
    """An array of ``items`` of ``length`` (a number, or the top-level key
    that gives it). ``whole`` describes an array of scalars whose faults,
    its items' included, are reported at the array itself."""

    items: object
    length: int | str | None = None
    nonempty: bool = False
    whole: str | None = None

    def fault(self, value, walk: _Walk, parent: str, key) -> str | None:
        if not isinstance(value, list) or self.nonempty and not value or \
                self.whole and not self.items.fits(value, walk):
            return "expected " + (self.whole or ("a non-empty array"
                                  if self.nonempty else "an array"))
        n = walk.known.get(self.length) if isinstance(self.length, str) \
            else self.length
        if n is not None and len(value) != n:
            return f"expected {n} items, got {len(value)}"
        if not self.whole and not self.items.fits(value, walk):
            here = _pointer(parent, key)
            for k, x in enumerate(value):
                message = self.items.fault(x, walk, here, k)
                if message:
                    walk.fault(here, k, message)
        return None

    def fits(self, values: list, walk: _Walk) -> bool:
        n = walk.known.get(self.length) if isinstance(self.length, str) \
            else self.length
        return set(map(type, values)) <= {list} and \
            not (self.nonempty and not all(values)) and \
            (n is None or set(map(len, values)) <= {n}) and \
            self.items.fits(list(itertools.chain.from_iterable(values)), walk)


Key = namedtuple("Key", "name type required", defaults=(True,))


class Object:
    """An object with the given keys and the ``unchecked`` ones, whose
    values are taken as they are, but no others; ``check`` names what is
    wrong with a value whose parts are all well formed, or returns None."""

    def __init__(self, *keys: Key, unchecked=(), check=None):
        self.keys = keys
        self.allowed = frozenset(key.name for key in keys).union(unchecked)
        self.required = frozenset(key.name for key in keys if key.required)
        self.check = check

    def fault(self, value, walk: _Walk, parent: str, key) -> str | None:
        if not isinstance(value, dict):
            return "expected a JSON object"
        before = len(walk.problems)
        here = _pointer(parent, key)
        for k in self.keys:
            if k.name in value:
                message = k.type.fault(value[k.name], walk, here, k.name)
                if message:
                    walk.fault(here, k.name, message)
                elif not here:
                    walk.known[k.name] = value[k.name]
            elif k.required:
                walk.fault(here, k.name, "required key is missing")
        for name in sorted(set(value) - self.allowed):
            walk.fault(here, name, f"unknown key (known: "
                                   f"{', '.join(sorted(self.allowed))})")
        if self.check and len(walk.problems) == before:
            return self.check(value)
        return None

    def fits(self, values: list, walk: _Walk) -> bool:
        if not set(map(type, values)) <= {dict} or \
                not set().union(*values) <= self.allowed:
            return False
        for k in self.keys:
            if k.required:
                try:  # the getter raises on a missing required key
                    column = list(map(itemgetter(k.name), values))
                except KeyError:
                    return False
            else:
                column = [v[k.name] for v in values if k.name in v]
            if not k.type.fits(column, walk):
                return False
        return not (self.check and any(map(self.check, values)))


_AGENT = Scalar("an integer", minimum=1, maximum="agents")


@dataclass(frozen=True)
class AgentMap:
    """An object keyed by agent number in canonical decimal form ("1", not
    "01"), up to the top-level ``agents``; ``every_agent`` requires a key
    for each agent."""

    values: object
    nonempty: bool = False
    every_agent: bool = False

    def fault(self, value, walk: _Walk, parent: str, key) -> str | None:
        if not isinstance(value, dict) or self.nonempty and not value:
            return f"expected {'a non-empty' if self.nonempty else 'an'} " \
                   f"object keyed by agent number"
        here = _pointer(parent, key)
        for k in sorted(value):
            if k.isascii() and k.isdecimal() and str(int(k)) == k:
                message = _AGENT.fault(int(k), walk) \
                    or self.values.fault(value[k], walk, here, k)
            else:
                message = "expected an agent number as key"
            if message:
                walk.fault(here, k, message)
        agents = walk.known.get("agents")
        if self.every_agent and agents is not None:
            for n in range(1, agents + 1):
                if str(n) not in value:
                    walk.fault(here, n, "required key is missing")
        return None

    def fits(self, values: list, walk: _Walk) -> bool:
        return False  # agent maps are only in scenarios: walked one by one


def _walk(document, table: Object, what: str) -> None:
    walk = _Walk()
    message = table.fault(document, walk, "", None)
    if message:
        walk.fault("", None, message)
    if walk.problems:
        raise SchemaError(walk.problems, what)


# --------------------------------------------------------------------------
# the tables
# --------------------------------------------------------------------------

_VECTOR = Array(Scalar("a finite number"), length="dimension",
                whole="an array of finite numbers")
_LETTER = Array(Scalar("a non-empty string"),
                whole="an array of non-empty service names")
_TIME = Scalar("a number or an exact-ratio string")


def _lower_below_upper(box: dict) -> str | None:
    if all(lo < hi for lo, hi in zip(box["lower"], box["upper"])):
        return None
    return "lower must be strictly below upper"


# the optional scenario parameters and their defaults
PARAMETERS = {"safety": 1.1, "lambda": 0.5, "cell_diameter": None,
              "dt": None, "r_bar_override": None}

SCENARIO = Object(
    Key("name", Scalar("a string"), required=False),
    Key("agents", Scalar("an integer", minimum=2)),
    Key("dimension", Scalar("an integer", minimum=1)),
    Key("v_max", Scalar("a finite number", positive=True)),
    Key("edges", Array(Array(_AGENT, length=2,
                             whole="a pair of agent numbers in 1..agents"),
                       nonempty=True)),
    Key("workspace", Object(Key("lower", _VECTOR), Key("upper", _VECTOR))),
    Key("initial_positions", Array(_VECTOR, length="agents")),
    Key("regions", Array(Object(
        Key("lower", _VECTOR), Key("upper", _VECTOR),
        Key("services", AgentMap(Array(
            Scalar("a non-empty string"), nonempty=True,
            whole="a non-empty array of service names"), nonempty=True)),
        check=_lower_below_upper))),
    Key("formulas", AgentMap(Scalar("a non-empty string"), every_agent=True)),
    Key("parameters", Object(*(Key(name, Scalar("a finite number"),
                                   required=False) for name in PARAMETERS)),
        required=False),
)

_STEP = Object(
    Key("cell", Scalar("an integer", minimum=1)),
    Key("action", Array(Scalar("an integer"),
                        whole="an array of cell numbers")),
    Key("services", _LETTER),
    unchecked=("time", "input_norm", "remainder"),
)

PLANS = Object(
    Key("dt", Scalar("a finite number", positive=True)),
    Key("agents", Array(Object(
        Key("agent", Scalar("an integer", minimum=1)),
        Key("witness_time", Scalar("null or an exact-ratio string"),
            required=False),
        Key("prefix", Array(_STEP)),
        Key("cycle", Array(_STEP, nonempty=True)),
        unchecked=("formula",),
    ), nonempty=True)),
    unchecked=("scenario", "prefix_length", "cycle_length", "step_used"),
)

COMPACT_WORD = Object(
    Key("dt", _TIME),
    Key("prefix", Array(_LETTER), required=False),
    Key("cycle", Array(_LETTER)),
)

EXPLICIT_WORD = Object(
    Key("prefix", Array(Object(Key("services", _LETTER), Key("time", _TIME)))),
    Key("cycle", Array(Object(Key("services", _LETTER),
                              Key("duration", _TIME)))),
)


# --------------------------------------------------------------------------
# scenario files
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    """Validated scenario: network, workspace, tasks, tuning knobs."""

    name: str
    agent_count: int
    dimension: int
    edges: tuple[tuple[int, int], ...]
    v_max: float
    workspace_lower: np.ndarray
    workspace_upper: np.ndarray
    initial_positions: np.ndarray
    regions: list[LabeledRegion]
    formulas: dict[int, MitlFormula]
    safety: float
    lambda_reach: float
    cell_diameter: float | None
    dt: float | None
    r_bar_override: float | None

    def workspace(self) -> Workspace:
        return Workspace(self.workspace_lower, self.workspace_upper)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file.

    Structural problems are collected by walking ``SCENARIO`` and raised
    together as a SchemaError whose message lists a JSON-pointer path per
    problem. Well-formed but inconsistent content (overlapping service
    alphabets, positions or regions outside the workspace, formulas using
    foreign services, bad parameter values) raises SemanticError or
    ParseError, and a formula outside the flat fragment the planner
    translates raises UnsupportedNesting (``tba.check_flat``, which builds
    no automaton); each formula error names its agent.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as exc:
        raise SchemaError([("", f"cannot read scenario file: {exc}")]) from None
    except json.JSONDecodeError as exc:
        raise SchemaError([("", f"not valid JSON: {exc}")]) from None
    _walk(raw, SCENARIO, "scenario")

    agents = raw["agents"]
    ws_lower, ws_upper = (np.asarray(raw["workspace"][k], dtype=float)
                          for k in ("lower", "upper"))
    positions = np.asarray(raw["initial_positions"], dtype=float)
    regions = [LabeledRegion(
        np.asarray(r["lower"], dtype=float),
        np.asarray(r["upper"], dtype=float),
        {int(k): frozenset(v) for k, v in sorted(r["services"].items())})
        for r in raw["regions"]]
    params = PARAMETERS | {k: float(v)
                           for k, v in raw.get("parameters", {}).items()}

    if not np.all(ws_lower < ws_upper):
        raise SemanticError(
            "workspace lower corner must be strictly below the upper corner")
    workspace = Workspace(ws_lower, ws_upper)
    for i in range(agents):
        if not workspace.contains(positions[i]):
            raise SemanticError(
                f"initial position of agent {i + 1} lies outside the workspace")
    for k, region in enumerate(regions):
        if np.any(region.lower < ws_lower - _BOUNDARY_TOL) or \
                np.any(region.upper > ws_upper + _BOUNDARY_TOL):
            raise SemanticError(f"region {k} is not inside the workspace")
    owned: dict[str, int] = {}
    for region in regions:
        for aid, names in sorted(region.services.items()):
            for s in sorted(names):
                if owned.setdefault(s, aid) != aid:
                    raise SemanticError(
                        f"service '{s}' is assigned to both agent "
                        f"{owned[s]} and agent {aid}; per-agent service sets "
                        f"must be disjoint")
    if params["safety"] <= 1.0:
        raise SemanticError("parameters.safety must exceed 1")
    if not 0.0 < params["lambda"] < 1.0:
        raise SemanticError("parameters.lambda must lie strictly in (0, 1)")
    for key in ("cell_diameter", "dt", "r_bar_override"):
        if params[key] is not None and params[key] <= 0:
            raise SemanticError(f"parameters.{key} must be positive")

    formulas: dict[int, MitlFormula] = {}
    for aid in range(1, agents + 1):
        try:
            formulas[aid] = parse(raw["formulas"][str(aid)])
        except ParseError as exc:
            raise ParseError(f"formula for agent {aid}: {exc}",
                             exc.position) from None
        try:
            check_flat(formulas[aid])
        except UnsupportedNesting as exc:
            raise UnsupportedNesting(
                f"formula for agent {aid}: {exc}") from None
        own = frozenset().union(*(r.services.get(aid, frozenset())
                                  for r in regions))
        foreign = atoms(formulas[aid]) - own
        if foreign:
            raise SemanticError(
                f"formula for agent {aid} uses services not assigned to it "
                f"in any region: {', '.join(sorted(foreign))}")

    return Scenario(
        name=raw.get("name", p.stem),
        agent_count=agents,
        dimension=raw["dimension"],
        edges=tuple(map(tuple, raw["edges"])),
        v_max=float(raw["v_max"]),
        workspace_lower=ws_lower,
        workspace_upper=ws_upper,
        initial_positions=positions,
        regions=regions,
        formulas=formulas,
        safety=params["safety"],
        lambda_reach=params["lambda"],
        cell_diameter=params["cell_diameter"],
        dt=params["dt"],
        r_bar_override=params["r_bar_override"],
    )


# --------------------------------------------------------------------------
# plans.json
# --------------------------------------------------------------------------

def plans_json(sc: Scenario, result: SynthesisResult) -> str:
    """The text of plans.json, byte for byte what ``json.dumps(document,
    indent=2, sort_keys=True) + "\\n"`` writes, in one join.

    A step's text is its body, its time ``j * dt`` and its closing brace;
    the body holds every other key (``action``, ``cell``, ``input_norm``
    and ``remainder`` when the step has a certificate, ``services``).
    Agents dwell, so steps repeat bodies (the two step-4 pair plans' 1 834
    steps have 383, one per distinct move): each distinct (cell, action,
    services, certificate) is formatted once for the whole file
    (`_Bodies`), and the times once per position for every plan with the
    same ``dt``. Each step is then three references into one list of
    texts, which is joined once. Strings, NaN and Infinity are written by
    ``json.dumps``, so their escapes and spellings are its own.
    """
    length = max(plan.prefix_length + plan.cycle_length
                 for plan in result.plans)
    times: dict[str, list[str]] = {}   # dt text -> each position's time
    bodies = _Bodies()
    parts = ['{\n  "agents": [\n']
    separator = ""
    for plan in result.plans:
        dt_text = _scalar(plan.dt)
        if dt_text not in times:
            times[dt_text] = _times(plan.dt, length)
        steps = list(map(bodies.__getitem__, zip(
            plan.prefix_cells + plan.cycle_cells,
            plan.prefix_actions + plan.cycle_actions,
            plan.provided_prefix + plan.provided_cycle,
            plan.certificates_prefix + plan.certificates_cycle)))
        p = plan.prefix_length
        wt = plan.witness_time
        parts.append(f'{separator}    {{\n'
                     f'      "agent": {_scalar(plan.agent)},\n'
                     f'      "cycle": ')
        _add_steps(parts, steps, times[dt_text], p, len(steps))
        parts.append(f',\n      "formula": {_scalar(plan.formula_text)},\n'
                     f'      "prefix": ')
        _add_steps(parts, steps, times[dt_text], 0, p)
        parts.append(f',\n      "witness_time": '
                     f'{_scalar(None if wt is None else str(wt))}\n'
                     f'    }}')
        separator = ",\n"
    first = result.plans[0]
    parts.append(f'\n  ],\n'
                 f'  "cycle_length": {_scalar(first.cycle_length)},\n'
                 f'  "dt": {_scalar(first.dt)},\n'
                 f'  "prefix_length": {_scalar(first.prefix_length)},\n'
                 f'  "scenario": {_scalar(sc.name)},\n'
                 f'  "step_used": {_scalar(result.step_used)}\n'
                 f'}}\n')
    return "".join(parts)


# the indents of a step object in plans.json, of its keys and of their items
_STEP_INDENT = " " * 8
_KEY_INDENT = " " * 10
_ITEM_INDENT = " " * 12
_STEP_CLOSE = "\n" + _STEP_INDENT + "}"


def _times(dt, count: int) -> list[str]:
    """The times ``j * dt`` of steps 0 .. count - 1 as ``json.dumps``
    writes them, all formatted by one call (a number's text holds no
    ", ")."""
    return json.dumps([j * dt for j in range(count)])[1:-1].split(", ")


def _add_steps(parts: list[str], bodies: list[str], times: list[str],
               a: int, b: int) -> None:
    """Append the JSON array of steps a .. b - 1 to ``parts``: each step's
    body, time and close (with the comma that follows it), as three
    items."""
    if a == b:
        parts.append("[]")
        return
    block = [_STEP_CLOSE + ",\n"] * (3 * (b - a))
    block[0::3] = bodies[a:b]
    block[1::3] = times[a:b]
    block[-1] = _STEP_CLOSE + "\n      ]"
    parts.append("[\n")
    parts += block


class _Bodies(dict):
    """Step bodies, each made on first use: the text of a step up to its
    time value, keyed by (cell, action, services, certificate), with the
    keys in sorted order. A certificate hashes by identity.

    The text before a certificate's lines depends only on (cell, action)
    and the text after them only on the services, so each is made once,
    keyed by value. An agent's certificates share one remainder object,
    rho(dt): its line is made again only when the remainder is another
    object, so a remainder's text is never taken from an equal value with
    other bits (0.0 for -0.0)."""

    def __init__(self):
        super().__init__()
        self.heads: dict[tuple, str] = {}
        self.tails: dict[frozenset, str] = {}
        self.remainder: tuple = (None, "")   # an object and its lines' end

    def __missing__(self, key) -> str:
        cell, action, services, cert = key
        indent, item = _KEY_INDENT, _ITEM_INDENT
        head = self.heads.get((cell, action))
        if head is None:
            cells = _array([item + _scalar(c) for c in action], indent)
            head = self.heads[cell, action] = (
                f'{_STEP_INDENT}{{\n'
                f'{indent}"action": {cells},\n'
                f'{indent}"cell": {_scalar(cell)},\n')
        tail = self.tails.get(services)
        if tail is None:
            names = _array([item + _scalar(s) for s in sorted(services)],
                           indent)
            tail = self.tails[services] = (f'{indent}"services": {names},\n'
                                           f'{indent}"time": ')
        if cert is None:
            body = self[key] = head + tail
            return body
        rho, rest = self.remainder
        if cert.remainder is not rho:
            rho = cert.remainder
            rest = f',\n{indent}"remainder": {_scalar(rho)},\n'
            self.remainder = rho, rest
        body = self[key] = (f'{head}{indent}"input_norm": '
                            f'{_scalar(cert.norm)}{rest}{tail}')
        return body


def _scalar(x) -> str:
    """A JSON scalar as json.dumps writes it: an int as its repr and a
    finite float, numpy's too, as ``float.__repr__``, without the call."""
    if type(x) is int:
        return int.__repr__(x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def _array(items: list[str], indent: str) -> str:
    """A JSON array of indented item texts, closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, for a document of str-keyed objects, lists, tuples and scalars.

    The standard library's indenting encoder is pure Python and builds
    closures that refer to one another, which only the cyclic collector
    frees; this formatter is plain recursion over ``_scalar`` and
    ``_array`` and leaves no garbage."""
    return _value_text(obj, "") + "\n"


def _value_text(x, indent: str) -> str:
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        return "{\n" + ",\n".join(
            [f"{inner}{_scalar(k)}: {_value_text(x[k], inner)}"
             for k in sorted(x)]) + "\n" + indent + "}"
    if isinstance(x, (list, tuple)):
        return _array([inner + _value_text(v, inner) for v in x], indent)
    return _scalar(x)


def plans_from_dict(obj) -> list[Plan]:
    """Rebuild executable plans from plans.json (certificates are dropped).

    Structural problems are collected by walking ``PLANS`` and raised
    together as a SchemaError listing a JSON-pointer path per problem.
    """
    _walk(obj, PLANS, "plans.json")
    return [_plan_from_entry(obj["dt"], a) for a in obj["agents"]]


def plan_from_dict(obj, agent: int) -> Plan | None:
    """The first plan for ``agent`` in plans.json, or None if it has none.

    The whole file is walked as by ``plans_from_dict``, so a fault in any
    agent's plan is still a SchemaError; only the plan asked for is built.
    """
    _walk(obj, PLANS, "plans.json")
    for a in obj["agents"]:
        if a["agent"] == agent:
            return _plan_from_entry(obj["dt"], a)
    return None


_CELL, _ACTION, _SERVICES = map(itemgetter, ("cell", "action", "services"))


def _plan_from_entry(dt: float, a: dict) -> Plan:
    prefix, cycle = a["prefix"], a["cycle"]
    wt = a.get("witness_time")
    return Plan(
        agent=a["agent"],
        dt=dt,
        prefix_cells=tuple(map(_CELL, prefix)),
        cycle_cells=tuple(map(_CELL, cycle)),
        prefix_actions=tuple(map(tuple, map(_ACTION, prefix))),
        cycle_actions=tuple(map(tuple, map(_ACTION, cycle))),
        provided_prefix=tuple(map(frozenset, map(_SERVICES, prefix))),
        provided_cycle=tuple(map(frozenset, map(_SERVICES, cycle))),
        certificates_prefix=(None,) * len(prefix),
        certificates_cycle=(None,) * len(cycle),
        formula_text=a.get("formula", ""),
        witness_time=None if wt is None else Fraction(wt),
    )


# --------------------------------------------------------------------------
# timed words
# --------------------------------------------------------------------------

def word_from_json(obj) -> TimedWord:
    """Timed word from JSON.

    Compact form (``COMPACT_WORD``): {"dt": 0.5, "prefix": [["a"], []],
    "cycle": [["b"]]} (position j occurs at j*dt; empty prefix allowed).
    Explicit form (``EXPLICIT_WORD``): {"prefix": [{"services": [...],
    "time": T}, ...], "cycle": [{"services": [...], "duration": D}, ...]}.
    A word is read in the compact form when it has ``dt`` or when no step of
    its prefix or cycle is a JSON object, so a compact word without ``dt``
    is reported as missing ``dt``.
    Every letter is an array of service names and every time (``dt`` too) a
    finite number or an exact-ratio string like "3/2", never a boolean;
    anything else is a SchemaError naming its position. A word whose content
    is inconsistent (an empty cycle, times that do not increase, durations
    that are not positive) is a SchemaError at the document.
    """
    compact = isinstance(obj, dict) and ("dt" in obj or not any(
        isinstance(step, dict) for key in ("prefix", "cycle")
        if isinstance(obj.get(key), list) for step in obj[key]))
    _walk(obj, COMPACT_WORD if compact else EXPLICIT_WORD, "timed word")
    try:
        if compact:
            return word_from_lasso(obj.get("prefix", []), obj["cycle"],
                                   obj["dt"])
        return TimedWord(
            tuple((s["services"], s["time"]) for s in obj["prefix"]),
            tuple((s["services"], s["duration"]) for s in obj["cycle"]))
    except ValueError as exc:
        raise SchemaError([("", f"malformed timed word: {exc!r}")],
                          "timed word") from None
