"""Command-line front end: scenario files, pipeline stages, artifacts.

Subcommands::

    mas bounds     --scenario S [--out DIR]
    mas abstract   --scenario S [--out DIR] [--max-states K]
    mas synthesize --scenario S [--out DIR] [--max-states K] [--max-iters R]
    mas simulate   --scenario S [--out DIR] [--max-states K] [--max-iters R]
                   [--horizon STEPS] [--substeps M]
    mas check      --scenario S --agent I [--word FILE] [--formula TEXT]
                   [--out DIR]

Every command reads a scenario JSON file (see load_scenario for the format),
writes deterministic artifacts into --out (report.json; synthesize adds
plans.json; simulate adds trajectory.csv and services.json) and prints a
short summary. `simulate` reuses an existing plans.json in --out instead of
re-synthesizing. `check` evaluates a formula on a timed word (from --word or
from the agent's plan in --out).

Exit codes: 0 success (check: formula satisfied), 2 unsatisfiable (check:
formula violated), 3 a search budget was exhausted, 1 any other error. Set
MAS_LOG=debug|info|warning to enable logging.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .abstraction import ACTION_ENUMERATION_CAP, AgentWTS, build_agent_wts
from .bounds import (BoundsReport, DiscretizationRange, deviation_remainder,
                     discretization_range, theorem1_constants)
from .errors import (BudgetExceeded, MasError, ParseError, SchemaError,
                     SemanticError, Unsatisfiable)
from .graph import NetworkGraph, SpectralData, build_graph, spectral
from .mitl import (MitlFormula, TimedWord, atoms, evaluate, parse,
                   to_fraction, witness_instant, word_from_lasso)
from .partition import (CellDecomposition, LabeledRegion, ServiceLabeling,
                        Workspace, cell_of, grid_decompose,
                        refine_to_compliance)
from .simulate import extract_service_word, integrate_plans
from .synthesis import (DEFAULT_R_ITER, DEFAULT_STATE_CAP, Plan,
                        SynthesisResult, synthesize)

logger = logging.getLogger(__name__)

_BOUNDARY_TOL = 1e-9
_CSV_CHUNK = 1024  # trajectory.csv rows formatted per write


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
    safety: float = 1.1
    lambda_reach: float = 0.5
    cell_diameter: float | None = None
    dt: float | None = None
    r_bar_override: float | None = None

    def workspace(self) -> Workspace:
        return Workspace(self.workspace_lower, self.workspace_upper)

    def agent_services(self, agent: int) -> frozenset[str]:
        out: set[str] = set()
        for region in self.regions:
            out |= region.services.get(agent, frozenset())
        return frozenset(out)


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


def load_scenario(path) -> Scenario:
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


# --------------------------------------------------------------------------
# pipeline stages
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Pipeline:
    scenario: Scenario
    g: NetworkGraph
    spec: SpectralData
    report: BoundsReport
    disc: DiscretizationRange
    grid: CellDecomposition | None = None
    decomp: CellDecomposition | None = None
    labeling: ServiceLabeling | None = None
    initial_cells: list[int] | None = None
    wts_list: list[AgentWTS] | None = None


def stage_bounds(sc: Scenario) -> Pipeline:
    g = build_graph(sc.agent_count, sc.edges, sc.dimension)
    spec = spectral(g)
    report = theorem1_constants(spec, g, sc.v_max, safety=sc.safety,
                                lambda_reach=sc.lambda_reach,
                                r_bar_override=sc.r_bar_override)
    disc = discretization_range(report, sc.cell_diameter, sc.dt)
    diam = float(np.linalg.norm(sc.workspace_upper - sc.workspace_lower))
    worst = max(g.degree(i) for i in range(1, sc.agent_count + 1)) * diam
    if worst > report.m_bound * (1.0 + _BOUNDARY_TOL):
        raise SemanticError(
            f"workspace too large for the drift bound: an agent of degree "
            f"{max(g.degree(i) for i in range(1, sc.agent_count + 1))} can "
            f"see drift up to {worst:.6g} > M = {report.m_bound:.6g}; "
            f"increase v_max or the safety factor, or shrink the workspace")
    return Pipeline(scenario=sc, g=g, spec=spec, report=report, disc=disc)


def stage_abstract(pipe: Pipeline,
                   max_actions: int = ACTION_ENUMERATION_CAP) -> Pipeline:
    sc = pipe.scenario
    grid = grid_decompose(sc.workspace(), pipe.disc.chosen_d_max)
    decomp, labeling = refine_to_compliance(sc.regions, grid)
    initial_cells = [cell_of(decomp, sc.initial_positions[i])
                     for i in range(sc.agent_count)]
    wts_list = []
    for agent in range(1, sc.agent_count + 1):
        wts_list.append(build_agent_wts(
            pipe.g, agent, decomp, labeling, pipe.report, pipe.disc,
            initial_cells[agent - 1], max_actions=max_actions))
    pipe.grid = grid
    pipe.decomp = decomp
    pipe.labeling = labeling
    pipe.initial_cells = initial_cells
    pipe.wts_list = wts_list
    return pipe


def stage_synthesize(pipe: Pipeline, r_iter: int = DEFAULT_R_ITER,
                     max_states: int = DEFAULT_STATE_CAP) -> SynthesisResult:
    sc = pipe.scenario
    if not pipe.report.hypothesis_satisfied:
        raise SemanticError(
            "the configured relative-state bound does not dominate K2*v_max; "
            "the abstraction would be unsound, refusing to synthesize")
    alphabets = {agent: sc.agent_services(agent)
                 for agent in range(1, sc.agent_count + 1)}
    return synthesize(pipe.wts_list, pipe.g, sc.formulas,
                      alphabets=alphabets, r_iter=r_iter,
                      max_states=max_states)


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fraction_str(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def report_dict(pipe: Pipeline) -> dict:
    sc = pipe.scenario
    out = {
        "scenario": sc.name,
        "graph": {
            "agents": sc.agent_count,
            "dimension": sc.dimension,
            "edges": [list(e) for e in sc.edges],
            "lambda2": pipe.spec.lambda2,
            "lambda_max": pipe.spec.lambda_max,
            "incidence_norm": pipe.spec.incidence_transpose_norm,
        },
        "bounds": {
            "k2": pipe.report.k2,
            "r_bar": pipe.report.r_bar,
            "m": pipe.report.m_bound,
            "l1": pipe.report.l1,
            "l2": pipe.report.l2,
            "l": pipe.report.l_total,
            "v_max": pipe.report.v_max,
            "lambda": pipe.report.lambda_reach,
            "safety": pipe.report.safety,
            "hypothesis_satisfied": pipe.report.hypothesis_satisfied,
        },
        "discretization": {
            "d_max_sup": pipe.disc.d_max_sup,
            "dt_lo": pipe.disc.dt_lo,
            "dt_hi": pipe.disc.dt_hi,
            "cell_diameter": pipe.disc.chosen_d_max,
            "dt": pipe.disc.chosen_dt,
            "remainder": deviation_remainder(pipe.report,
                                             pipe.disc.chosen_dt),
        },
    }
    if pipe.decomp is not None:
        out["abstraction"] = {
            "grid_cells": pipe.grid.cell_count,
            "cells": pipe.decomp.cell_count,
            "agents": [
                {
                    "agent": w.agent,
                    "initial_cell": w.initial,
                    "neighbors": list(w.neighbor_agents),
                    "actions": len(w.transitions),
                    "transitions": w.transition_count(),
                }
                for w in pipe.wts_list
            ],
        }
    return out


def plans_to_dict(sc: Scenario, result: SynthesisResult) -> dict:
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
                entry["input_norm"] = cert.nominal_norm()
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
        agents.append({
            "agent": plan.agent,
            "formula": plan.formula_text,
            "witness_time": _fraction_str(plan.witness_time),
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


def plans_from_dict(obj) -> list[Plan]:
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


def _write_trajectory_csv(path: Path, traj, agent_count: int,
                          dimension: int) -> None:
    header = ["t"]
    for i in range(1, agent_count + 1):
        for k in range(1, dimension + 1):
            header.append(f"agent{i}_x{k}")
    rows = np.column_stack((traj.times,
                            traj.states.reshape(len(traj.times), -1)))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_CHUNK):
            chunk = rows[start:start + _CSV_CHUNK].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in chunk))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_bounds(args) -> int:
    sc = load_scenario(args.scenario)
    pipe = stage_bounds(sc)
    out = _prepare_out(args)
    _write_json(out / "report.json", report_dict(pipe))
    print(f"scenario '{sc.name}': {sc.agent_count} agents, "
          f"{len(sc.edges)} edges, lambda2 = {pipe.spec.lambda2:.6g}")
    print(f"K2 = {pipe.report.k2:.6g}  R_bar = {pipe.report.r_bar:.6g}  "
          f"L = {pipe.report.l_total:.6g}")
    print(f"d_max <= {pipe.disc.d_max_sup:.6g} (chosen "
          f"{pipe.disc.chosen_d_max:.6g}); dt in "
          f"[{pipe.disc.dt_lo:.6g}, {pipe.disc.dt_hi:.6g}] (chosen "
          f"{pipe.disc.chosen_dt:.6g})")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_abstract(args) -> int:
    sc = load_scenario(args.scenario)
    pipe = stage_abstract(stage_bounds(sc), max_actions=args.max_states)
    out = _prepare_out(args)
    _write_json(out / "report.json", report_dict(pipe))
    print(f"scenario '{sc.name}': {pipe.decomp.cell_count} cells "
          f"(grid {pipe.grid.cell_count}), dt = {pipe.disc.chosen_dt:.6g}")
    for w in pipe.wts_list:
        print(f"  agent {w.agent}: initial cell {w.initial}, "
              f"{len(w.transitions)} actions, "
              f"{w.transition_count()} transitions")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_synthesize(args) -> int:
    sc = load_scenario(args.scenario)
    pipe = stage_abstract(stage_bounds(sc))
    result = stage_synthesize(pipe, r_iter=args.max_iters,
                              max_states=args.max_states)
    out = _prepare_out(args)
    rep = report_dict(pipe)
    rep["synthesis"] = {
        "step_used": result.step_used,
        "combinations_tried": result.combinations_tried,
        "lasso_counts": result.agent_lasso_counts,
        "prefix_length": result.plans[0].prefix_length,
        "cycle_length": result.plans[0].cycle_length,
    }
    _write_json(out / "report.json", rep)
    _write_json(out / "plans.json", plans_to_dict(sc, result))
    print(f"scenario '{sc.name}': plans found (step {result.step_used}, "
          f"{result.combinations_tried} combinations tried)")
    for plan in result.plans:
        wt = plan.witness_time
        extra = f", goal witnessed at t = {float(wt):.6g}" if wt is not None \
            else ""
        print(f"  agent {plan.agent}: prefix {plan.prefix_length} + cycle "
              f"{plan.cycle_length} steps{extra}")
    print(f"wrote {out / 'plans.json'}")
    return 0


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    pipe = stage_abstract(stage_bounds(sc))
    out = _prepare_out(args)
    plans_path = out / "plans.json"
    if plans_path.exists():
        plans = plans_from_dict(json.loads(plans_path.read_text()))
        if plans[0].dt != pipe.disc.chosen_dt:
            raise SemanticError(
                f"plans.json was synthesized with dt = {plans[0].dt}, the "
                f"scenario now yields dt = {pipe.disc.chosen_dt}; delete it "
                f"or re-run synthesize")
        print(f"reusing {plans_path}")
    else:
        result = stage_synthesize(pipe, r_iter=args.max_iters,
                                  max_states=args.max_states)
        _write_json(plans_path, plans_to_dict(sc, result))
        plans = result.plans
        print(f"synthesized plans (step {result.step_used})")
    steps = args.horizon if args.horizon is not None else \
        plans[0].prefix_length + 2 * plans[0].cycle_length
    traj = integrate_plans(pipe.g, plans, pipe.decomp, sc.initial_positions,
                           sc.v_max, steps, substeps=args.substeps)
    services = extract_service_word(traj, pipe.decomp, pipe.labeling,
                                    plans=plans)
    rep = report_dict(pipe)
    rep["simulation"] = {
        "steps": steps,
        "substeps": args.substeps,
        "final_time": float(traj.times[-1]),
        "saturated_inputs": len(traj.saturated),
    }
    _write_json(out / "report.json", rep)
    _write_json(out / "services.json", {
        str(agent): [{"time": t, "services": sorted(s)} for t, s in visits]
        for agent, visits in services.items()
    })
    _write_trajectory_csv(out / "trajectory.csv", traj, sc.agent_count,
                          sc.dimension)
    print(f"simulated {steps} steps ({traj.states.shape[0]} nodes) up to "
          f"t = {float(traj.times[-1]):.6g}; all boundary cells match the plan")
    for agent in sorted(services):
        for t, provided in services[agent]:
            print(f"  agent {agent} provides {{{', '.join(sorted(provided))}}} "
                  f"at t = {t:.6g}")
    print(f"wrote {out / 'trajectory.csv'}, {out / 'services.json'}")
    return 0


def word_from_json(obj) -> TimedWord:
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


def cmd_check(args) -> int:
    sc = load_scenario(args.scenario)
    if not 1 <= args.agent <= sc.agent_count:
        raise SemanticError(
            f"agent {args.agent} out of range 1..{sc.agent_count}")
    if args.formula is not None:
        formula = parse(args.formula)
    else:
        formula = sc.formulas[args.agent]
    if args.word is not None:
        word = word_from_json(json.loads(Path(args.word).read_text()))
    else:
        plans_path = Path(args.out) / "plans.json"
        if not plans_path.exists():
            raise SemanticError(
                f"no --word given and {plans_path} does not exist; run "
                f"synthesize first")
        plans = plans_from_dict(json.loads(plans_path.read_text()))
        matches = [p for p in plans if p.agent == args.agent]
        if not matches:
            raise SemanticError(f"plans.json has no plan for agent {args.agent}")
        word = matches[0].word()
    ok = evaluate(word, formula)
    if ok:
        wt = witness_instant(word, formula)
        extra = f" (goal witnessed at t = {float(wt):.6g})" if wt is not None \
            else ""
        print(f"SATISFIED{extra}")
        return 0
    print("VIOLATED")
    return 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: argparse's
    formatters and sections refer to each other, so a parser per call
    would leave cyclic garbage behind every in-process command."""
    parser = argparse.ArgumentParser(
        prog="mas",
        description="Timed plan synthesis for consensus-coupled multi-agent "
                    "systems under individual metric-interval tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="path to the scenario JSON file")
        p.add_argument("--out", default="mas_out",
                       help="artifact directory (default: mas_out)")

    p = sub.add_parser("bounds",
                       help="spectral data, invariance bound, discretization")
    common(p)

    p = sub.add_parser("abstract", help="build per-agent transition systems")
    common(p)
    p.add_argument("--max-states", type=int, default=ACTION_ENUMERATION_CAP,
                   help="cap on per-agent action tuples, cells^(deg+1)")

    p = sub.add_parser("synthesize", help="find consistent satisfying plans")
    common(p)
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP,
                   help="cap on explored product states")
    p.add_argument("--max-iters", type=int, default=DEFAULT_R_ITER,
                   help="cap on per-agent run combinations before the full "
                        "product search")

    p = sub.add_parser("simulate",
                       help="execute plans in closed loop (reuses plans.json)")
    common(p)
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP,
                   help="cap on explored product states")
    p.add_argument("--max-iters", type=int, default=DEFAULT_R_ITER,
                   help="cap on per-agent run combinations before the full "
                        "product search")
    p.add_argument("--horizon", type=int, default=None,
                   help="sampling steps to simulate (default: prefix + two "
                        "cycles)")
    p.add_argument("--substeps", type=int, default=4,
                   help="recorded and workspace-checked nodes per sampling "
                        "step (default 4)")

    p = sub.add_parser("check", help="evaluate a formula on a timed word")
    common(p)
    p.add_argument("--agent", type=int, required=True,
                   help="agent whose formula/plan to use")
    p.add_argument("--word", default=None,
                   help="timed-word JSON file (default: the agent's plan "
                        "word from --out/plans.json)")
    p.add_argument("--formula", default=None,
                   help="formula text (default: the agent's scenario formula)")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MAS_LOG", "").upper()
    if level:
        logging.basicConfig(
            level=getattr(logging, level, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        # Looked up by name on each call, so a command replaced on the
        # module after the parser was cached is the one that runs.
        return globals()["cmd_" + args.command](args)
    except Unsatisfiable as exc:
        print(f"unsatisfiable: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (MasError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
