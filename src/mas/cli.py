"""Command-line front end: pipeline stages, artifacts, subcommands.

Subcommands::

    mas bounds     --scenario S [--out DIR]
    mas abstract   --scenario S [--out DIR] [--max-states K]
    mas synthesize --scenario S [--out DIR] [--max-states K] [--max-iters R]
    mas simulate   --scenario S [--out DIR] [--max-states K] [--max-iters R]
                   [--horizon STEPS] [--substeps M]
    mas check      --scenario S --agent I [--word FILE] [--formula TEXT]
                   [--out DIR]

Every command reads a scenario JSON file (mas.files describes the format),
writes deterministic artifacts into --out (report.json; synthesize adds
plans.json; simulate adds trajectory.csv and services.json) and prints a
short summary. `simulate` reuses an existing plans.json in --out instead of
re-synthesizing; executing plans needs only the cell decomposition
(`stage_partition`), so it builds the transition systems (`stage_abstract`)
only when it has to synthesize, and only then does its report.json hold the
"abstraction" section. `check` evaluates a formula on a timed word (from
--word or from the agent's plan in --out).

Exit codes: 0 success (check: formula satisfied), 2 unsatisfiable (check:
formula violated), 3 a search budget was exhausted, 1 any other error. Set
MAS_LOG=debug|info|warning to enable logging.

`main` runs each command with CPython's cyclic garbage collector paused: it
disables the collector once the arguments are parsed and re-enables it
afterwards only if it was enabled before. That is safe because the commands
build no reference cycles, so reference counting frees what they allocate
and the collector's passes would only walk the heap; tests/test_cli.py
audits every command for cyclic garbage. (report.json and services.json
are written by `mas.files.json_text`, not by the standard library's
indenting JSON encoder, whose closures refer to one another.) The
collector's state is process-wide: a `main` that starts while another
thread's `main` runs finds it disabled and leaves it so.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .abstraction import (ACTION_ENUMERATION_CAP, AgentWTS, SumClassTable,
                          build_agent_wts)
from .bounds import (BoundsReport, DiscretizationRange, deviation_remainder,
                     discretization_range, theorem1_constants)
from .errors import BudgetExceeded, MasError, SemanticError, Unsatisfiable
# the commands call load_scenario, plans_from_dict and plan_from_dict as
# globals of this module, so that a wrapper set on it (as a tracer does) is
# what runs
from .files import (Scenario, json_text, load_scenario, plan_from_dict,
                    plans_from_dict, plans_json, word_from_json)
from .graph import NetworkGraph, SpectralData, build_graph, spectral
from .mitl import evaluate, parse, witness_instant
from .partition import (CellDecomposition, ServiceLabeling, cell_of,
                        grid_decompose, refine_to_compliance)
from .simulate import extract_service_word, integrate_plans
from .synthesis import (DEFAULT_R_ITER, DEFAULT_STATE_CAP, SynthesisResult,
                        synthesize)

logger = logging.getLogger(__name__)

_BOUNDARY_TOL = 1e-9
_CSV_CHUNK = 1024  # trajectory.csv rows formatted per write


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
    # set by stage_partition: all that executing and reading back plans needs
    grid: CellDecomposition | None = None
    decomp: CellDecomposition | None = None
    labeling: ServiceLabeling | None = None
    initial_cells: list[int] | None = None
    # set by stage_abstract, which synthesis needs; report_dict writes the
    # "abstraction" section only when it is set
    wts_list: list[AgentWTS] | None = None


def stage_bounds(sc: Scenario) -> Pipeline:
    g = build_graph(sc.agent_count, sc.edges, sc.dimension)
    spec = spectral(g)
    report = theorem1_constants(spec, g, sc.v_max, safety=sc.safety,
                                lambda_reach=sc.lambda_reach,
                                r_bar_override=sc.r_bar_override)
    disc = discretization_range(report, sc.cell_diameter, sc.dt)
    diam = float(np.linalg.norm(sc.workspace_upper - sc.workspace_lower))
    degree = max(g.degree(i) for i in range(1, sc.agent_count + 1))
    worst = degree * diam
    if worst > report.m_bound * (1.0 + _BOUNDARY_TOL):
        raise SemanticError(
            f"workspace too large for the drift bound: an agent of degree "
            f"{degree} can see drift up to {worst:.6g} > "
            f"M = {report.m_bound:.6g}; "
            f"increase v_max or the safety factor, or shrink the workspace")
    return Pipeline(scenario=sc, g=g, spec=spec, report=report, disc=disc)


def stage_partition(pipe: Pipeline) -> Pipeline:
    sc = pipe.scenario
    pipe.grid = grid_decompose(sc.workspace(), pipe.disc.chosen_d_max)
    pipe.decomp, pipe.labeling = refine_to_compliance(sc.regions, pipe.grid)
    pipe.initial_cells = [cell_of(pipe.decomp, sc.initial_positions[i])
                          for i in range(sc.agent_count)]
    return pipe


def stage_abstract(pipe: Pipeline,
                   max_actions: int = ACTION_ENUMERATION_CAP) -> Pipeline:
    if pipe.decomp is None:
        stage_partition(pipe)
    # one transition table per neighbor count, for this call only
    tables: dict[int, SumClassTable] = {}
    wts_list = []
    for agent in range(1, pipe.scenario.agent_count + 1):
        degree = len(pipe.g.neighbors(agent))
        wts = build_agent_wts(pipe.g, agent, pipe.decomp, pipe.labeling,
                              pipe.report, pipe.disc,
                              pipe.initial_cells[agent - 1],
                              max_actions=max_actions,
                              transitions=tables.get(degree))
        tables.setdefault(degree, wts.transitions)
        wts_list.append(wts)
    pipe.wts_list = wts_list
    return pipe


def stage_synthesize(pipe: Pipeline, r_iter: int = DEFAULT_R_ITER,
                     max_states: int = DEFAULT_STATE_CAP) -> SynthesisResult:
    sc = pipe.scenario
    if not pipe.report.hypothesis_satisfied:
        raise SemanticError(
            "the configured relative-state bound does not dominate K2*v_max; "
            "the abstraction would be unsound, refusing to synthesize")
    return synthesize(pipe.wts_list, pipe.g, sc.formulas, r_iter=r_iter,
                      max_states=max_states)


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json_text(obj))


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
    if pipe.wts_list is not None:
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


def _write_trajectory_csv(path: Path, traj, agent_count: int,
                          dimension: int) -> None:
    """One row per node: the time, then every agent's coordinates, each
    float in its shortest repr.

    Agents dwell at their cell centres, so most rows repeat the state of
    the row above. A row's state text is formatted only when its state
    differs from that row's, and reused until it changes. The comparison is
    on the bits, not with ``==``: ``0.0 == -0.0`` but their reprs differ
    (and ``nan != nan``). The first row of every chunk is formatted anyway,
    so each chunk stands alone. A chunk's state texts are built a column at
    a time: each column's reprs, zipped and joined by ``map``, so no row
    runs Python code of its own; its lines are joined by newlines.
    """
    header = ["t"]
    for i in range(1, agent_count + 1):
        for k in range(1, dimension + 1):
            header.append(f"agent{i}_x{k}")
    n = len(traj.times)
    states = traj.states.reshape(n, -1)
    bits = states.view(np.uint64)
    moved = np.ones(n, dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=moved[1:])
    moved[::_CSV_CHUNK] = True
    times = traj.times.tolist()
    lead = itertools.repeat("")   # joined before a tail's first column
    with path.open("w") as fh:
        fh.write(",".join(header))
        for start in range(0, n, _CSV_CHUNK):
            chunk = slice(start, start + _CSV_CHUNK)
            keep = moved[chunk]
            columns = states[chunk][keep].T.tolist()
            tails = list(map(",".join, zip(lead, *[map(repr, column)
                                                   for column in columns])))
            # the tail of row k is the last one formatted at or before k
            owner = (np.cumsum(keep) - 1).tolist()
            fh.write("\n")
            fh.write("\n".join([repr(t) + tails[k]
                                for t, k in zip(times[chunk], owner)]))
        fh.write("\n")


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
    (out / "plans.json").write_text(plans_json(sc, result))
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
    pipe = stage_partition(stage_bounds(sc))
    out = Path(args.out)
    plans_path = out / "plans.json"
    if plans_path.exists():
        # executing plans needs only the cells; the transition systems
        # were built, and reported, when the plans were synthesized
        plans = plans_from_dict(json.loads(plans_path.read_text()))
        if plans[0].dt != pipe.disc.chosen_dt:
            raise SemanticError(
                f"plans.json was synthesized with dt = {plans[0].dt}, the "
                f"scenario now yields dt = {pipe.disc.chosen_dt}; delete it "
                f"or re-run synthesize")
        print(f"reusing {plans_path}")
    else:
        stage_abstract(pipe)
        _prepare_out(args)
        result = stage_synthesize(pipe, r_iter=args.max_iters,
                                  max_states=args.max_states)
        plans_path.write_text(plans_json(sc, result))
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
        plan = plan_from_dict(json.loads(plans_path.read_text()),
                              args.agent)
        if plan is None:
            raise SemanticError(f"plans.json has no plan for agent {args.agent}")
        word = plan.word()
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

def _at_least(low: int):
    """argparse type for an integer count no smaller than ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return count


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
    p.add_argument("--max-states", type=_at_least(1),
                   default=ACTION_ENUMERATION_CAP,
                   help="cap on per-agent action tuples, cells^(deg+1)")

    p = sub.add_parser("synthesize", help="find consistent satisfying plans")
    common(p)
    p.add_argument("--max-states", type=_at_least(1),
                   default=DEFAULT_STATE_CAP,
                   help="cap on explored product states")
    p.add_argument("--max-iters", type=_at_least(0), default=DEFAULT_R_ITER,
                   help="cap on per-agent run combinations before the full "
                        "product search")

    p = sub.add_parser("simulate",
                       help="execute plans in closed loop (reuses plans.json)")
    common(p)
    p.add_argument("--max-states", type=_at_least(1),
                   default=DEFAULT_STATE_CAP,
                   help="cap on explored product states")
    p.add_argument("--max-iters", type=_at_least(0), default=DEFAULT_R_ITER,
                   help="cap on per-agent run combinations before the full "
                        "product search")
    p.add_argument("--horizon", type=_at_least(0), default=None,
                   help="sampling steps to simulate (default: prefix + two "
                        "cycles)")
    p.add_argument("--substeps", type=_at_least(1), default=4,
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (exit 0) or the usage and the error;
        # exit code 2 is kept for unsatisfiable verdicts
        return 0 if exc.code == 0 else 1
    # the collector is paused for the command (see the module docstring)
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
