"""The one-pass plans.json writer against the dict-and-``json.dumps`` one.

The oracle below is the earlier writer, ``plans_to_dict``, whose document
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` wrote. ``plans_json``
must give the same text on random plans (certificates and hand-built
``None`` ones, empty and multi-service letters, names that need JSON
escapes, floats that are NaN or infinite, an empty aligned prefix, 1-4
agents, long runs whose steps share few bodies), on fixed cases (norms
0.0, -0.0 and NaN beside one shared remainder; every pair of 0.0, -0.0,
NaN and the infinities as norm and remainder; one certificate object shared
by positions and agents; agents with different remainders; plans of
different lengths and sampling intervals) and on real plans: the
step-4 pair scenario's and those of the shipped scenarios that have
plans. The text read back gives the plans' cells, actions and services.
``json_text``, which writes report.json and services.json, gives what
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` gives on random
documents.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mas.abstraction import TransitionCertificate
from mas.cli import load_scenario, stage_abstract, stage_bounds, \
    stage_synthesize
from mas.files import json_text, plans_from_dict, plans_json
from mas.synthesis import Plan, SynthesisResult

from test_cli import STEP4_SCENARIO

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# --------------------------------------------------------------------------
# oracle: the dict writer
# --------------------------------------------------------------------------

def plans_to_dict(sc, result: SynthesisResult) -> dict:
    agents = []
    for plan in result.plans:
        def step_entry(j: int, cell: int, action, services, cert) -> dict:
            entry = {
                "cell": cell,
                "action": list(action),
                "services": sorted(services),
                "time": j * plan.dt,
            }
            if cert is not None:
                entry["input_norm"] = cert.norm
                entry["remainder"] = cert.remainder
            return entry

        prefix = [step_entry(j, c, plan.prefix_actions[j],
                             plan.provided_prefix[j],
                             plan.certificates_prefix[j])
                  for j, c in enumerate(plan.prefix_cells)]
        base = len(plan.prefix_cells)
        cycle = [step_entry(base + j, c, plan.cycle_actions[j],
                            plan.provided_cycle[j],
                            plan.certificates_cycle[j])
                 for j, c in enumerate(plan.cycle_cells)]
        wt = plan.witness_time
        agents.append({
            "agent": plan.agent,
            "formula": plan.formula_text,
            "witness_time": None if wt is None else str(wt),
            "prefix": prefix,
            "cycle": cycle,
        })
    first = result.plans[0]
    return {
        "scenario": sc.name,
        "dt": first.dt,
        "prefix_length": first.prefix_length,
        "cycle_length": first.cycle_length,
        "step_used": result.step_used,
        "agents": agents,
    }


def _assert_same_text(text: str, sc, result) -> None:
    expected = json.dumps(plans_to_dict(sc, result), indent=2,
                          sort_keys=True) + "\n"
    # lines first: pytest names the first differing line of a list, where
    # it would diff two long strings whole
    assert text.splitlines() == expected.splitlines()
    assert text == expected


# --------------------------------------------------------------------------
# random plans
# --------------------------------------------------------------------------

# every name needs an escape or is plain ASCII: a quote, a backslash, a
# solidus (which json.dumps leaves as it is), a non-ASCII letter and a
# control character
NAMES = ("a", 'q"uote', "back\\slash", "so/lidus", "café", "bell\x07")
# a time j * dt reaches infinity from the second step at dt = 1e308
DTS = (0.0103, 0.1, 1e-7, 1, 3, 2.5e15, 1e308)
FLOATS = (0.0, -0.0, 0.1, 1 / 3, 1e-300, 2.5e22, math.inf, -math.inf,
          math.nan)


def _certificate(rng: np.random.Generator, cell: int):
    if rng.random() < 0.3:
        return None
    if rng.random() < 0.2:  # a norm or remainder that is NaN or infinite
        nominal = np.array([float(rng.choice(FLOATS)), 1.0])
        remainder = float(rng.choice(FLOATS))
    else:
        nominal = rng.normal(size=int(rng.integers(1, 4)))
        remainder = np.float64(rng.random())  # a float subclass
    return TransitionCertificate(agent=1, source=cell, target=cell,
                                 neighbor_cells=(), nominal_input=nominal,
                                 norm=float(np.linalg.norm(nominal)),
                                 remainder=remainder)


def _random_result(rng: np.random.Generator) -> SynthesisResult:
    agents = int(rng.integers(1, 5))
    prefix_length = 0 if rng.random() < 0.3 else int(rng.integers(1, 40))
    cycle_length = int(rng.integers(1, 40))
    if rng.random() < 0.2:  # a long run over few distinct steps
        prefix_length, cycle_length = 400, 60
    dt = DTS[int(rng.integers(len(DTS)))]
    plans = []
    for agent in range(1, agents + 1):
        # each step is one of a few (cell, action, services, certificate)
        choices = []
        for _ in range(int(rng.integers(1, 6))):
            cell = int(rng.integers(1, 10))
            action = (cell,) + tuple(
                int(c) for c in rng.integers(1, 10, size=agents - 1))
            services = frozenset(
                str(n) for n in rng.choice(NAMES, size=int(rng.integers(0, 4)),
                                           replace=False))
            choices.append((cell, action, services, _certificate(rng, cell)))
        steps = [choices[int(k)] for k in
                 rng.integers(len(choices), size=prefix_length + cycle_length)]
        cells, actions, provided, certificates = (
            tuple(column) for column in zip(*steps))
        p = prefix_length
        witness = None if rng.random() < 0.4 else \
            Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 9)))
        plans.append(Plan(
            agent=agent, dt=dt,
            prefix_cells=cells[:p], cycle_cells=cells[p:],
            prefix_actions=actions[:p], cycle_actions=actions[p:],
            provided_prefix=provided[:p], provided_cycle=provided[p:],
            certificates_prefix=certificates[:p],
            certificates_cycle=certificates[p:],
            formula_text=f"F[0,1] {rng.choice(NAMES)} & G !é\"\\",
            witness_time=witness))
    return SynthesisResult(plans=plans, step_used=int(rng.integers(3, 5)),
                           agent_lasso_counts=[1] * agents,
                           combinations_tried=1)


def _assert_written_as_before(sc, result: SynthesisResult) -> str:
    text = plans_json(sc, result)
    _assert_same_text(text, sc, result)
    for plan, back in zip(result.plans,
                          plans_from_dict(json.loads(text)), strict=True):
        assert (back.agent, back.witness_time) == \
            (plan.agent, plan.witness_time)
        assert (back.prefix_cells, back.cycle_cells) == \
            (plan.prefix_cells, plan.cycle_cells)
        assert (back.prefix_actions, back.cycle_actions) == \
            (plan.prefix_actions, plan.cycle_actions)
        assert (back.provided_prefix, back.provided_cycle) == \
            (plan.provided_prefix, plan.provided_cycle)
    return text


def test_random_plans_are_written_as_json_dumps_writes_them(rng):
    for k in range(150):
        sc = SimpleNamespace(name=f"s{k} \"\\/é\x01")
        _assert_written_as_before(sc, _random_result(rng))


def test_a_time_that_is_not_a_number_is_written_as_json_dumps_writes_it(
        rng):
    result = _random_result(rng)
    for plan in result.plans:
        plan.dt = math.nan
    sc = SimpleNamespace(name="nan")
    text = plans_json(sc, result)
    _assert_same_text(text, sc, result)
    assert '"time": NaN' in text


def _plan(agent: int, dt, steps, prefix_length: int) -> Plan:
    """A plan from (cell, action, services, certificate) steps."""
    cells, actions, provided, certificates = (
        tuple(column) for column in zip(*steps))
    p = prefix_length
    return Plan(agent=agent, dt=dt,
                prefix_cells=cells[:p], cycle_cells=cells[p:],
                prefix_actions=actions[:p], cycle_actions=actions[p:],
                provided_prefix=provided[:p], provided_cycle=provided[p:],
                certificates_prefix=certificates[:p],
                certificates_cycle=certificates[p:],
                formula_text="F[0,1] a")


def _result(*plans: Plan) -> SynthesisResult:
    return SynthesisResult(plans=list(plans), step_used=4,
                           agent_lasso_counts=[1] * len(plans),
                           combinations_tried=1)


def test_zero_signs_and_nan_norms_beside_a_shared_remainder():
    remainder = 0.125   # one object in every certificate, as rho(dt) is
    certificates = [
        TransitionCertificate(agent=1, source=1, target=1, neighbor_cells=(),
                              nominal_input=np.zeros(1), norm=norm,
                              remainder=remainder)
        for norm in (0.0, -0.0, math.nan, 1.0, 0.125, -0.0)]
    a = frozenset({"a"})
    steps = [(1, (1,), a, cert) for cert in certificates]
    steps += [(1, (1,), a, None), (1, (1,), a, certificates[1])]
    sc = SimpleNamespace(name="signs")
    text = _assert_written_as_before(sc, _result(_plan(1, 0.5, steps, 3)))
    for norm, count in (("0.0", 1), ("-0.0", 3), ("NaN", 1), ("1.0", 1),
                        ("0.125", 1)):
        assert text.count(f'"input_norm": {norm},') == count
    assert text.count('"remainder": 0.125,') == 7


def _bare_certificate(norm, remainder):
    return TransitionCertificate(agent=1, source=1, target=1,
                                 neighbor_cells=(), nominal_input=np.zeros(1),
                                 norm=norm, remainder=remainder)


# equal values with other bits, and values equal to no other value
_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)


def test_special_norms_and_remainders_keep_their_bits():
    # every pair of special values, each certificate on two positions; a
    # remainder follows one with an equal value and other bits (-0.0 after
    # 0.0)
    certificates = [_bare_certificate(norm, remainder)
                    for norm in _SPECIAL for remainder in _SPECIAL]
    a = frozenset({"a"})
    steps = [(1, (1,), a, cert) for cert in certificates for _ in range(2)]
    sc = SimpleNamespace(name="special")
    for p in (0, 7, len(steps) - 1):
        text = _assert_written_as_before(sc, _result(_plan(1, 0.5, steps, p)))
    for name, spelled in zip(_SPECIAL,
                             ("0.0", "-0.0", "NaN", "Infinity", "-Infinity")):
        assert text.count(f'"input_norm": {spelled},') == 10, name
        assert text.count(f'"remainder": {spelled},') == 10, name


def test_a_certificate_shared_by_positions_and_agents():
    # one object at several positions of both agents, under steps whose
    # cell, action or services differ (a cell need not be its action's
    # first), beside its equal-valued twin
    shared = _bare_certificate(0.25, -0.0)
    twin = _bare_certificate(0.25, -0.0)
    a, b = frozenset({"a"}), frozenset({"b", "c"})
    first = [(1, (1, 2), a, shared), (1, (1, 2), a, shared),
             (2, (2, 2), a, shared), (2, (2, 1), b, twin),
             (2, (2, 1), b, shared), (1, (1, 2), a, None),
             (3, (1, 2), a, shared), (1, (1, 2), b, shared)]
    second = [(2, (2, 1), b, shared), (1, (1, 1), frozenset(), shared),
              (2, (2, 1), b, twin), (2, (2, 1), b, shared)]
    sc = SimpleNamespace(name="shared")
    text = _assert_written_as_before(sc, _result(_plan(1, 0.1, first, 2),
                                                 _plan(2, 0.1, second, 1)))
    assert text.count('"remainder": -0.0,') == 11


def test_agents_with_different_remainders():
    a = frozenset({"a"})
    for rho_1, rho_2 in ((0.125, 0.25), (0.0, -0.0), (-0.0, 0.0),
                         (0.5, np.float64(0.5)), (math.nan, math.inf)):
        plans = [_plan(agent, 0.5, [(cell, (cell,), a,
                                     _bare_certificate(norm, rho))
                                    for cell, norm in ((1, 1.0), (2, -0.0),
                                                       (1, 1.0), (3, 2.0))],
                       1)
                 for agent, rho in ((1, rho_1), (2, rho_2), (3, rho_1))]
        sc = SimpleNamespace(name=f"remainders {rho_1} {rho_2}")
        text = _assert_written_as_before(sc, _result(*plans))
        remainders = [line.strip() for line in text.splitlines()
                      if '"remainder"' in line]
        spelled = [json.dumps(rho) for rho in (rho_1, rho_2, rho_1)]
        assert remainders == [f'"remainder": {r},' for r in spelled
                              for _ in range(4)]


def test_plans_of_different_lengths_share_their_times():
    a, b = frozenset({"a"}), frozenset({"b", "c"})
    short = [(1, (1, 2), a, None), (2, (2, 2), frozenset(), None)]
    long = [(2, (2, 1), b, None)] * 3 + [(3, (3, 1), b, None)] * 6
    for dt in (0.1, 1, -0.0, 1e308, math.nan):
        for plans in ([_plan(1, dt, short, 1), _plan(2, dt, long, 4)],
                      [_plan(1, dt, long, 0), _plan(2, dt, short, 2)]):
            sc, result = SimpleNamespace(name=f"lengths {dt}"), \
                _result(*plans)
            text = plans_json(sc, result)
            _assert_same_text(text, sc, result)
            assert text.count('"time"') == len(short) + len(long)
    # plans whose dt differ keep their own times
    plans = [_plan(1, 1, long, 4), _plan(2, 1.0, long, 4),
             _plan(3, 0.5, short, 1)]
    _assert_written_as_before(SimpleNamespace(name="dts"), _result(*plans))


# --------------------------------------------------------------------------
# real plans
# --------------------------------------------------------------------------

def _synthesized(path):
    return stage_synthesize(stage_abstract(stage_bounds(load_scenario(path))))


# the third shipped scenario, pair_line_unsat.json, has no plans
@pytest.mark.parametrize("name", ["pair_line.json", "path3_plane.json"])
def test_shipped_scenario_plans_are_written_as_before(name):
    _assert_written_as_before(load_scenario(SCENARIOS / name),
                              _synthesized(SCENARIOS / name))


def test_step4_plans_are_written_as_before(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(STEP4_SCENARIO))
    result = _synthesized(path)
    assert result.step_used == 4
    text = _assert_written_as_before(load_scenario(path), result)
    assert text.count('"time"') == 2 * 917


# --------------------------------------------------------------------------
# report.json and services.json
# --------------------------------------------------------------------------

_SCALARS = [0, -7, 2**70, 0.0, -0.0, 1e-300, 2.5, float("nan"),
            float("inf"), -float("inf"), np.float64(0.1), np.float64("nan"),
            True, False, None, "", "port", 'quote " and \\ back',
            "tab\tnew\nline", "caf\u00e9 \u2603", "\x00\x1f"]


def _random_document(rng, depth: int):
    kind = int(rng.integers(0, 4 if depth else 1))
    if kind == 0:
        return _SCALARS[int(rng.integers(len(_SCALARS)))]
    size = int(rng.integers(0, 4))
    items = [_random_document(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    keys = rng.choice(["a", "B", "b", "agents", "\u00e9", "~/", "1", "10",
                       "2", ""], size=size, replace=False)
    return {str(k): v for k, v in zip(keys, items)}


def test_json_text_writes_what_json_dumps_writes(rng):
    documents = [{}, [], (), {"a": {}, "b": [], "c": [[], {}]}, 1.5, "x",
                 None, {"agents": [{"agent": 1, "neighbors": [2, 3]}]}]
    documents += [_random_document(rng, 4) for _ in range(300)]
    for doc in documents:
        assert json_text(doc) == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
