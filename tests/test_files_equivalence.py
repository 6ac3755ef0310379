"""The table-driven readers of ``mas.files`` against the readers they replaced.

The oracle below is a local copy of the earlier hand-written readers
(``load_scenario``, ``plans_from_dict`` and ``word_from_json`` with their
helpers). The corpus mutates the three shipped scenarios, a synthesized
plans.json and a word file in each form: every key deleted, every value
replaced by each of null, true, "x", -1, 0, 1.5, [] and {}, every array
emptied and its first and last elements dropped or duplicated. On every case
both readers must give the same exit code; where the oracle raises a
SchemaError the new reader must name the same pointers in the same order;
where both accept the file they must return the same value. The cases whose
outcome may differ are word cases, listed in ``ITERATED`` and ``CAUGHT`` by
the rule that decides them.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mas.cli import load_scenario, main, word_from_json
from mas.errors import MasError, ParseError, SchemaError, SemanticError
from mas.files import Array, Key, Object, Scalar, Scenario, _walk, \
    plans_from_dict
from mas.mitl import TimedWord, atoms, parse, to_fraction, word_from_lasso
from mas.partition import LabeledRegion, Workspace
from mas.synthesis import Plan

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_BOUNDARY_TOL = 1e-9


# --------------------------------------------------------------------------
# oracle: the hand-written readers
# --------------------------------------------------------------------------

class _Collector:
    def __init__(self):
        self.problems: list[tuple[str, str]] = []

    def add(self, path: str, msg: str) -> None:
        self.problems.append((path, msg))


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_letter(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) and s for s in x)


_LETTER = "expected an array of non-empty service names"
_TIME = "expected a number or an exact-ratio string"


def _get_int(col: _Collector, obj: dict, key: str, minimum: int) -> int | None:
    if key not in obj:
        col.add(f"/{key}", "required key is missing")
        return None
    v = obj[key]
    if not _is_int(v):
        col.add(f"/{key}", "expected an integer")
        return None
    if v < minimum:
        col.add(f"/{key}", f"must be at least {minimum}")
        return None
    return v


def _get_number(col: _Collector, obj: dict, key: str) -> float | None:
    if key not in obj:
        col.add(f"/{key}", "required key is missing")
        return None
    v = obj[key]
    if not _is_num(v):
        col.add(f"/{key}", "expected a number")
        return None
    return float(v)


def _get_vector(col: _Collector, obj: dict, key: str, length: int | None,
                path: str) -> np.ndarray | None:
    if key not in obj:
        col.add(path, "required key is missing")
        return None
    v = obj[key]
    if not isinstance(v, list) or any(not _is_num(x) for x in v):
        col.add(path, "expected an array of numbers")
        return None
    if length is not None and len(v) != length:
        col.add(path, f"expected {length} coordinates, got {len(v)}")
        return None
    return np.asarray(v, dtype=float)


_PARAMETER_KEYS = ("safety", "lambda", "cell_diameter", "dt", "r_bar_override")


def _load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file.

    Structural problems (missing keys, wrong types, wrong lengths) are
    collected exhaustively and raised together as a SchemaError whose message
    lists a JSON-pointer path per problem. Well-formed but inconsistent
    content (overlapping service alphabets, positions outside the workspace,
    formulas using foreign services, bad parameter values) raises
    SemanticError or ParseError.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as exc:
        raise SchemaError([("", f"cannot read scenario file: {exc}")]) from None
    except json.JSONDecodeError as exc:
        raise SchemaError([("", f"not valid JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise SchemaError([("", "scenario must be a JSON object")])

    col = _Collector()
    name = raw.get("name", p.stem)
    if not isinstance(name, str):
        col.add("/name", "expected a string")
        name = p.stem
    agents = _get_int(col, raw, "agents", minimum=2)
    dimension = _get_int(col, raw, "dimension", minimum=1)
    v_max = _get_number(col, raw, "v_max")
    if v_max is not None and v_max <= 0:
        col.add("/v_max", "must be positive")
        v_max = None

    edges: list[tuple[int, int]] = []
    e_raw = raw.get("edges")
    if not isinstance(e_raw, list) or not e_raw:
        col.add("/edges", "expected a non-empty array of agent pairs")
    else:
        for k, e in enumerate(e_raw):
            if not isinstance(e, list) or len(e) != 2 \
                    or any(not _is_int(x) for x in e):
                col.add(f"/edges/{k}", "expected a pair of agent indices")
                continue
            if agents is not None and any(not 1 <= x <= agents for x in e):
                col.add(f"/edges/{k}",
                        f"agent index out of range 1..{agents}")
                continue
            edges.append((e[0], e[1]))

    ws_lower = ws_upper = None
    ws_raw = raw.get("workspace")
    if not isinstance(ws_raw, dict):
        col.add("/workspace", "expected an object with 'lower' and 'upper'")
    else:
        ws_lower = _get_vector(col, ws_raw, "lower", dimension,
                               "/workspace/lower")
        ws_upper = _get_vector(col, ws_raw, "upper", dimension,
                               "/workspace/upper")

    positions = None
    p_raw = raw.get("initial_positions")
    if not isinstance(p_raw, list):
        col.add("/initial_positions", "expected an array of points")
    elif agents is not None and len(p_raw) != agents:
        col.add("/initial_positions",
                f"expected {agents} points, got {len(p_raw)}")
    else:
        rows = []
        for k in range(len(p_raw)):
            row = _get_vector(col, {"p": p_raw[k]}, "p", dimension,
                              f"/initial_positions/{k}")
            rows.append(row)
        if all(r is not None for r in rows):
            positions = np.stack(rows)

    regions: list[LabeledRegion] = []
    r_raw = raw.get("regions")
    if not isinstance(r_raw, list):
        col.add("/regions", "expected an array of labeled boxes")
    else:
        for k, r in enumerate(r_raw):
            base = f"/regions/{k}"
            if not isinstance(r, dict):
                col.add(base, "expected an object")
                continue
            lo = _get_vector(col, r, "lower", dimension, base + "/lower")
            hi = _get_vector(col, r, "upper", dimension, base + "/upper")
            sv = r.get("services")
            services: dict[int, frozenset[str]] = {}
            if not isinstance(sv, dict) or not sv:
                col.add(base + "/services",
                        "expected an object mapping agent ids to service names")
            else:
                for key, names in sorted(sv.items()):
                    spath = f"{base}/services/{key}"
                    try:
                        aid = int(key)
                    except ValueError:
                        col.add(spath, "agent key must be an integer")
                        continue
                    if agents is not None and not 1 <= aid <= agents:
                        col.add(spath, f"agent id out of range 1..{agents}")
                        continue
                    if not isinstance(names, list) or not names or \
                            any(not isinstance(s, str) or not s for s in names):
                        col.add(spath,
                                "expected a non-empty array of service names")
                        continue
                    services[aid] = frozenset(names)
            if lo is None or hi is None or not services:
                continue
            if not np.all(lo < hi):
                col.add(base, "lower must be strictly below upper")
                continue
            regions.append(LabeledRegion(lo, hi, services))

    formula_texts: dict[int, str] = {}
    f_raw = raw.get("formulas")
    if not isinstance(f_raw, dict):
        col.add("/formulas", "expected an object mapping agent ids to formulas")
    else:
        for key, text in sorted(f_raw.items()):
            fpath = f"/formulas/{key}"
            try:
                aid = int(key)
            except ValueError:
                col.add(fpath, "agent key must be an integer")
                continue
            if agents is not None and not 1 <= aid <= agents:
                col.add(fpath, f"agent id out of range 1..{agents}")
                continue
            if not isinstance(text, str) or not text.strip():
                col.add(fpath, "expected a formula string")
                continue
            formula_texts[aid] = text
        if agents is not None:
            for aid in range(1, agents + 1):
                if aid not in formula_texts and \
                        not any(path == f"/formulas/{aid}"
                                for path, _ in col.problems):
                    col.add(f"/formulas/{aid}", "missing formula for this agent")

    params = {"safety": 1.1, "lambda": 0.5, "cell_diameter": None,
              "dt": None, "r_bar_override": None}
    q_raw = raw.get("parameters", {})
    if not isinstance(q_raw, dict):
        col.add("/parameters", "expected an object")
    else:
        for key in sorted(q_raw):
            qpath = f"/parameters/{key}"
            if key not in _PARAMETER_KEYS:
                col.add(qpath, f"unknown parameter (known: "
                               f"{', '.join(_PARAMETER_KEYS)})")
                continue
            v = q_raw[key]
            if not _is_num(v):
                col.add(qpath, "expected a number")
                continue
            params[key] = float(v)

    if col.problems:
        raise SchemaError(col.problems)

    # structure is fine; now the content has to make sense
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
            formulas[aid] = parse(formula_texts[aid])
        except ParseError as exc:
            raise ParseError(f"formula for agent {aid}: {exc}",
                             exc.position) from None
        own = frozenset().union(*(r.services.get(aid, frozenset())
                                  for r in regions)) if regions else frozenset()
        foreign = atoms(formulas[aid]) - own
        if foreign:
            raise SemanticError(
                f"formula for agent {aid} uses services not assigned to it "
                f"in any region: {', '.join(sorted(foreign))}")

    return Scenario(
        name=name,
        agent_count=agents,
        dimension=dimension,
        edges=tuple(edges),
        v_max=v_max,
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


def _check_plan_steps(col: _Collector, plan: dict, key: str,
                      path: str) -> None:
    steps = plan.get(key)
    if not isinstance(steps, list) or (key == "cycle" and not steps):
        col.add(path, f"expected {'a non-empty' if key == 'cycle' else 'an'} "
                      f"array of steps")
        return
    for j, step in enumerate(steps):
        at = f"{path}/{j}"
        if not isinstance(step, dict):
            col.add(at, "expected a step object")
            continue
        if not _is_int(step.get("cell")) or step["cell"] < 1:
            col.add(at + "/cell", "expected a positive cell number")
        action = step.get("action")
        if not isinstance(action, list) or not all(map(_is_int, action)):
            col.add(at + "/action", "expected an array of cell numbers")
        if not _is_letter(step.get("services")):
            col.add(at + "/services", _LETTER)


def _plans_from_dict(obj) -> list[Plan]:
    """Rebuild executable plans from plans.json (certificates are dropped).

    Structural problems are collected and raised together as a SchemaError
    listing a JSON-pointer path per problem.
    """
    if not isinstance(obj, dict):
        raise SchemaError([("", "expected a JSON object")], "plans.json")
    col = _Collector()
    dt = obj.get("dt")
    if not _is_num(dt) or dt <= 0:
        col.add("/dt", "expected a positive number")
    agents = obj.get("agents")
    if not isinstance(agents, list) or not agents:
        col.add("/agents", "expected a non-empty array of plans")
        agents = []
    for i, a in enumerate(agents):
        if not isinstance(a, dict):
            col.add(f"/agents/{i}", "expected a plan object")
            continue
        if not _is_int(a.get("agent")) or a["agent"] < 1:
            col.add(f"/agents/{i}/agent", "expected a positive agent number")
        if not isinstance(a.get("witness_time"), (str, type(None))):
            col.add(f"/agents/{i}/witness_time", "expected a string or null")
        for key in ("prefix", "cycle"):
            _check_plan_steps(col, a, key, f"/agents/{i}/{key}")
    if col.problems:
        raise SchemaError(col.problems, "plans.json")
    plans = []
    for a in agents:
        prefix = a["prefix"]
        cycle = a["cycle"]
        wt = a.get("witness_time")
        plans.append(Plan(
            agent=a["agent"],
            dt=dt,
            prefix_cells=tuple(s["cell"] for s in prefix),
            cycle_cells=tuple(s["cell"] for s in cycle),
            prefix_actions=tuple(tuple(s["action"]) for s in prefix),
            cycle_actions=tuple(tuple(s["action"]) for s in cycle),
            provided_prefix=tuple(frozenset(s["services"]) for s in prefix),
            provided_cycle=tuple(frozenset(s["services"]) for s in cycle),
            certificates_prefix=tuple(None for _ in prefix),
            certificates_cycle=tuple(None for _ in cycle),
            formula_text=a.get("formula", ""),
            witness_time=None if wt is None else Fraction(wt),
        ))
    return plans


def _word_from_json(obj) -> TimedWord:
    """Timed word from JSON.

    Compact form: {"dt": 0.5, "prefix": [["a"], []], "cycle": [["b"]]}
    (position j occurs at j*dt; empty prefix allowed). Explicit form:
    {"prefix": [{"services": [...], "time": T}, ...],
     "cycle":  [{"services": [...], "duration": D}, ...]} where times and
    durations are numbers or exact-ratio strings like "3/2". Every letter
    is an array of service names and every time (``dt`` too) such a number
    or string, never a boolean; anything else is a SchemaError naming its
    position.
    """
    def letter(names, path: str) -> frozenset[str]:
        if not _is_letter(names):
            raise SchemaError([(path, _LETTER)], "timed word")
        return frozenset(names)

    def time(value, path: str) -> Fraction:
        if not (_is_num(value) or isinstance(value, str)):
            raise SchemaError([(path, _TIME)], "timed word")
        return to_fraction(value)

    if not isinstance(obj, dict):
        raise SchemaError([("", "expected a JSON object")], "timed word")
    try:
        if "dt" in obj:
            prefix = [letter(ls, f"/prefix/{j}")
                      for j, ls in enumerate(obj.get("prefix", []))]
            cycle = [letter(ls, f"/cycle/{j}")
                     for j, ls in enumerate(obj["cycle"])]
            return word_from_lasso(prefix, cycle, time(obj["dt"], "/dt"))
        prefix = tuple(
            (letter(s["services"], f"/prefix/{j}/services"),
             time(s["time"], f"/prefix/{j}/time"))
            for j, s in enumerate(obj["prefix"]))
        cycle = tuple(
            (letter(s["services"], f"/cycle/{j}/services"),
             time(s["duration"], f"/cycle/{j}/duration"))
            for j, s in enumerate(obj["cycle"]))
        return TimedWord(prefix, cycle)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError([("", f"malformed timed word: {exc!r}")],
                          "timed word") from None


# --------------------------------------------------------------------------
# the corpus
# --------------------------------------------------------------------------

_REPLACEMENTS = (None, True, "x", -1, 0, 1.5, [], {})


_DELETE = object()


def _replaced(doc, path, new):
    """A deep copy of doc whose value at path is ``new(old)``; a ``new``
    returning ``_DELETE`` removes the key."""
    if not path:
        return new(doc)
    copy = json.loads(json.dumps(doc))
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    value = new(parent[path[-1]])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def _mutations(doc, path=()):
    """(case id, mutated document) for every mutation below path."""
    where = "/" + "/".join(map(str, path))
    value = doc if not path else _at(doc, path)
    if path and isinstance(path[-1], str):
        yield f"{where} deleted", _replaced(doc, path, lambda v: _DELETE)
    for r in _REPLACEMENTS:
        yield f"{where} = {json.dumps(r)}", _replaced(doc, path, lambda v: r)
    if isinstance(value, list) and value:
        yield f"{where} emptied", _replaced(doc, path, lambda v: [])
        for k in sorted({0, len(value) - 1}):
            yield f"{where} without {k}", _replaced(
                doc, path, lambda v: v[:k] + v[k + 1:])
            yield f"{where} with {k} twice", _replaced(
                doc, path, lambda v: v[:k + 1] + v[k:])
    keys = list(value) if isinstance(value, dict) else \
        sorted({0, len(value) - 1}) if isinstance(value, list) and value else []
    for key in keys:  # arrays are homogeneous: their ends stand for the rest
        yield from _mutations(doc, path + (key,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _canonical(result):
    """A comparable form of what a reader returned."""
    if isinstance(result, TimedWord):
        return result
    if isinstance(result, list):  # plans
        return [tuple(getattr(p, f.name) for f in fields(p)) for p in result]
    out = []
    for f in fields(result):
        v = getattr(result, f.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype, v.shape, v.tolist())
        elif f.name == "regions":
            v = [(r.lower.tolist(), r.upper.tolist(), list(r.services.items()))
                 for r in v]
        elif isinstance(v, dict):
            v = list(v.items())
        out.append((f.name, type(v), v))
    return out


def _outcome(read, doc):
    """(exit code, what the reader returned, the problems of its SchemaError
    or the type of its error), the exit code as ``mas.cli.main`` gives it."""
    try:
        return 0, _canonical(read(doc))
    except SchemaError as exc:
        return 1, exc.problems
    except (MasError, ValueError) as exc:
        return 1, type(exc).__name__
    except Exception as exc:  # escapes main as a traceback
        return "crash", type(exc).__name__


def _scenario_reader(loader, tmp_path):
    path = tmp_path / "scenario.json"

    def read(doc):
        path.write_text(json.dumps(doc))
        return loader(path)
    return read


@pytest.fixture(scope="module")
def plans_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("plans")
    scenario = SCENARIOS / "path3_plane.json"
    assert main(["synthesize", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    return json.loads((out / "plans.json").read_text())


COMPACT = {"dt": 0.5, "prefix": [["port"], []], "cycle": [["dock"], []]}
EXPLICIT = {"prefix": [{"services": [], "time": 0},
                       {"services": ["port"], "time": "3/2"}],
            "cycle": [{"services": [], "duration": "1/2"},
                      {"services": ["port"], "duration": 1}]}

# The word cases whose outcome differs, by the rule that decides them. All
# are rejected by both readers except "compact: /prefix = {}", which the old
# reader accepted as an empty prefix.
ITERATED = """
compact: /prefix = "x"
compact: /prefix = {}
compact: /cycle = "x"
compact: /cycle = {}
explicit: /prefix = {}
explicit: /cycle = {}
"""  # the old reader iterated a string or an object where an array belongs
CAUGHT = """
compact: / = {}
compact: /dt deleted
compact: /dt = "x"
compact: /prefix = null
compact: /prefix = true
compact: /prefix = -1
compact: /prefix = 0
compact: /prefix = 1.5
compact: /cycle deleted
compact: /cycle = null
compact: /cycle = true
compact: /cycle = -1
compact: /cycle = 0
compact: /cycle = 1.5
explicit: / = {}
explicit: /prefix deleted
explicit: /prefix = null
explicit: /prefix = true
explicit: /prefix = "x"
explicit: /prefix = -1
explicit: /prefix = 0
explicit: /prefix = 1.5
explicit: /prefix/0 = null
explicit: /prefix/0 = true
explicit: /prefix/0 = "x"
explicit: /prefix/0 = -1
explicit: /prefix/0 = 0
explicit: /prefix/0 = 1.5
explicit: /prefix/0 = []
explicit: /prefix/0 = {}
explicit: /prefix/0/services deleted
explicit: /prefix/0/time deleted
explicit: /prefix/0/time = "x"
explicit: /prefix/1 = null
explicit: /prefix/1 = true
explicit: /prefix/1 = "x"
explicit: /prefix/1 = -1
explicit: /prefix/1 = 0
explicit: /prefix/1 = 1.5
explicit: /prefix/1 = []
explicit: /prefix/1 = {}
explicit: /prefix/1/services deleted
explicit: /prefix/1/time deleted
explicit: /prefix/1/time = "x"
explicit: /cycle deleted
explicit: /cycle = null
explicit: /cycle = true
explicit: /cycle = "x"
explicit: /cycle = -1
explicit: /cycle = 0
explicit: /cycle = 1.5
explicit: /cycle/0 = null
explicit: /cycle/0 = true
explicit: /cycle/0 = "x"
explicit: /cycle/0 = -1
explicit: /cycle/0 = 0
explicit: /cycle/0 = 1.5
explicit: /cycle/0 = []
explicit: /cycle/0 = {}
explicit: /cycle/0/services deleted
explicit: /cycle/0/duration deleted
explicit: /cycle/0/duration = "x"
explicit: /cycle/1 = null
explicit: /cycle/1 = true
explicit: /cycle/1 = "x"
explicit: /cycle/1 = -1
explicit: /cycle/1 = 0
explicit: /cycle/1 = 1.5
explicit: /cycle/1 = []
explicit: /cycle/1 = {}
explicit: /cycle/1/services deleted
explicit: /cycle/1/duration deleted
explicit: /cycle/1/duration = "x"
"""  # the old reader's catch-all reported a KeyError, a TypeError or an
# unreadable time at the empty pointer; the table names the key or value


def _pointers(outcome):
    return [path for path, _ in outcome[1]] if outcome[0] == 1 else None


def _differences(old_read, new_read, documents):
    seen = {}
    for name, doc in documents:
        for case, mutated in _mutations(doc):
            old = _outcome(old_read, mutated)
            new = _outcome(new_read, mutated)
            if old[0] != new[0] or old[0] == 0 and old != new or \
                    isinstance(old[1], list) and \
                    _pointers(old) != _pointers(new):
                seen[f"{name}: {case}"] = (old, new)
    return seen


def test_scenario_reader_matches_the_oracle(tmp_path):
    documents = [(p.name, json.loads(p.read_text()))
                 for p in sorted(SCENARIOS.glob("*.json"))]
    seen = _differences(_scenario_reader(_load_scenario, tmp_path),
                        _scenario_reader(load_scenario, tmp_path), documents)
    assert seen == {}


def test_plans_reader_matches_the_oracle(plans_doc):
    seen = _differences(_plans_from_dict, plans_from_dict,
                        [("plans.json", plans_doc)])
    assert seen == {}


def test_word_reader_matches_the_oracle():
    seen = _differences(_word_from_json, word_from_json,
                        [("compact", COMPACT), ("explicit", EXPLICIT)])
    listed = {group: set(cases.strip().splitlines())
              for group, cases in (("iterated", ITERATED),
                                   ("caught", CAUGHT))}
    assert set(seen) == set().union(*listed.values())
    for case in listed["caught"]:
        (_, [(pointer, message)]), (code, problems) = seen[case]
        assert pointer == "" and code == 1, case
        assert message.startswith(("malformed timed word: KeyError",
                                   "malformed timed word: TypeError",
                                   "malformed timed word: ValueError(\"Invalid "
                                   "literal for Fraction")), case
        assert all(path.startswith(case.split()[1].rstrip("/"))
                   for path, _ in problems), case


def test_a_check_applies_to_every_object_of_an_array():
    # the regions, the one checked object of the tables, hold agent maps and
    # so are always walked one by one; plain checked objects are tested
    # together first, and that test must run the check too
    box = Object(Key("lo", Scalar("an integer")),
                 Key("hi", Scalar("an integer")),
                 check=lambda b: None if b["lo"] < b["hi"] else "lo >= hi")
    _walk({"boxes": [{"lo": 0, "hi": 1}]}, Object(Key("boxes", Array(box))),
          "test")
    with pytest.raises(SchemaError) as exc:
        _walk({"boxes": [{"lo": 0, "hi": 1}, {"lo": 2, "hi": 1}]},
              Object(Key("boxes", Array(box))), "test")
    assert exc.value.problems == [("/boxes/1", "lo >= hi")]
