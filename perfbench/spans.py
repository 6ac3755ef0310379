"""Spans and counters recorded from outside `mas`.

Wrappers are installed on the module globals through which the pipeline's
stages call each other, so `mas` itself is not edited. Each call records a
span (name, start, end, parent span, operation id); spans stay in memory and
are written out once at the end. Hooks on the wrapped calls' arguments and
results add exact counters for the same operation. ``uninstall`` restores
the original functions, so traced and untraced operations can alternate in
one process.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

import mas.cli
import mas.simulate
import mas.synthesis

# (module, global name, span name)
WRAPPED = (
    (mas.cli, "cmd_synthesize", "cli.cmd_synthesize"),
    (mas.cli, "cmd_simulate", "cli.cmd_simulate"),
    (mas.cli, "cmd_check", "cli.cmd_check"),
    (mas.cli, "load_scenario", "cli.load_scenario"),
    (mas.cli, "plans_from_dict", "cli.plans_from_dict"),
    (mas.cli, "stage_bounds", "bounds.stage_bounds"),
    (mas.cli, "grid_decompose", "partition.grid_decompose"),
    (mas.cli, "refine_to_compliance", "partition.refine_to_compliance"),
    (mas.cli, "build_agent_wts", "abstraction.build_agent_wts"),
    (mas.cli, "synthesize", "synthesis.synthesize"),
    (mas.cli, "integrate_plans", "simulate.integrate_plans"),
    (mas.cli, "extract_service_word", "simulate.extract_service_word"),
    (mas.cli, "evaluate", "mitl.evaluate"),
    (mas.cli, "witness_instant", "mitl.witness_instant"),
    (mas.synthesis, "enumerate_accepting_lassos", "synthesis.enumerate"),
    (mas.synthesis, "consistent", "synthesis.consistent"),
    (mas.synthesis, "find_accepting_lasso", "synthesis.fallback"),
    (mas.synthesis, "from_flat_mitl", "tba.from_flat_mitl"),
    (mas.synthesis, "intersect", "tba.intersect"),
    (mas.synthesis, "evaluate", "mitl.evaluate"),
    (mas.synthesis, "witness_instant", "mitl.witness_instant"),
    (mas.simulate, "cell_of", "partition.cell_of"),
)

# exact counts that must repeat between operations and processes
EXACT = (
    "partition.cells", "partition.cell_of_calls", "abstraction.builds",
    "abstraction.actions_enumerated", "abstraction.actions_enabled",
    "abstraction.transitions", "abstraction.corner_rows", "tba.locations",
    "tba.edges", "synthesis.agent_product_states", "synthesis.lassos",
    "synthesis.combinations_tried", "synthesis.fallback_states",
    "synthesis.step_used", "mitl.evaluate_calls", "simulate.steps",
    "simulate.rk4_stages", "simulate.saturated_inputs", "cli.artifact_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op = -1
        self.counts: Counter = Counter()

    # ---- wrappers -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            extra = hook(self, args) if hook else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if extra is not None:
                    extra()
            on_result = _RESULTS.get(name)
            if on_result:
                on_result(self.counts, args, result)
            return result

        return traced

    # ---- per-operation metrics -----------------------------------------

    def op_metrics(self, op: int, verdict_s: float, validate_s: float,
                   artifact_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced operation."""
        indexed = [(k, s) for k, s in enumerate(self.spans) if s[4] == op]
        spans = [s for _, s in indexed]
        child_time: Counter = Counter()
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        nested_eval = 0.0
        for k, s in indexed:
            d = s[2] - s[1]
            total[s[0]] += d
            calls[s[0]] += 1
            self_time[s[0]] += d - child_time[k]
            parent = self.spans[s[3]][0] if s[3] >= 0 else ""
            if s[0].startswith("mitl.") and parent.startswith("mitl."):
                nested_eval += d
        c = self.counts
        abstraction_s = total["abstraction.build_agent_wts"]
        search_s = total["synthesis.enumerate"] + total["synthesis.fallback"]
        states = c["synthesis.agent_product_states"] + \
            c["synthesis.fallback_states"]
        integrate_s = total["simulate.integrate_plans"]
        extract_s = total["simulate.extract_service_word"]
        steps = c["simulate.steps"]
        out = {
            "cli.load_s": total["cli.load_scenario"],
            "cli.self_s": sum(v for k, v in self_time.items()
                              if k.startswith("cli.")
                              and k != "cli.load_scenario"),
            "cli.artifact_bytes": artifact_bytes,
            "bounds.time_s": total["bounds.stage_bounds"],
            "partition.time_s": total["partition.grid_decompose"]
            + total["partition.refine_to_compliance"],
            "partition.cell_of_calls": calls["partition.cell_of"],
            "partition.cell_of_s": total["partition.cell_of"],
            "abstraction.time_s": abstraction_s,
            "abstraction.builds": calls["abstraction.build_agent_wts"],
            "abstraction.actions_per_s":
                c["abstraction.actions_enumerated"] / abstraction_s,
            "abstraction.enabled_ratio": c["abstraction.actions_enabled"]
            / c["abstraction.actions_enumerated"],
            "tba.time_s": total["tba.from_flat_mitl"] + total["tba.intersect"],
            "synthesis.time_s": total["synthesis.synthesize"],
            "synthesis.enumerate_s": total["synthesis.enumerate"],
            "synthesis.consistent_s": total["synthesis.consistent"],
            "synthesis.fallback_s": total["synthesis.fallback"],
            "synthesis.states_per_s": states / search_s,
            "mitl.evaluate_calls": calls["mitl.evaluate"],
            "mitl.evaluate_s": total["mitl.evaluate"]
            + total["mitl.witness_instant"] - nested_eval,
            "simulate.integrate_s": integrate_s,
            "simulate.steps_per_s": steps / integrate_s,
            "simulate.extract_s": extract_s,
            "share.abstraction_of_verdict": sum(
                s[2] - s[1] for s in spans
                if s[0] == "abstraction.build_agent_wts"
                and self._inside(s, "cli.cmd_synthesize")) / verdict_s,
            "share.synthesis_of_verdict": total["synthesis.synthesize"]
            / verdict_s,
            "share.simulate_of_validate": (integrate_s + extract_s)
            / validate_s,
        }
        out.update({k: c[k] for k in EXACT if k not in out})
        return out

    def _inside(self, span, name) -> bool:
        while span[3] >= 0:
            span = self.spans[span[3]]
            if span[0] == name:
                return True
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# name start end parent op\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ---- hooks --------------------------------------------------------------

def _count_states(key):
    """Wrap the product's successors to count distinct expanded states."""
    def hook(tracer, args):
        product = args[0]
        seen = set()
        expand = product.successors

        def successors(state):
            seen.add(state)
            return expand(state)

        product.successors = successors

        def done():
            del product.successors
            tracer.counts[key] += len(seen)
        return done
    return hook


_HOOKS = {
    "synthesis.enumerate": _count_states("synthesis.agent_product_states"),
    "synthesis.fallback": _count_states("synthesis.fallback_states"),
}


def _on_wts(counts, args, wts):
    dimension = args[2].dimension          # build_agent_wts(g, agent, decomp, ...)
    enumerated = len(wts.cells) ** (len(wts.neighbor_agents) + 1)
    counts["abstraction.actions_enumerated"] += enumerated
    counts["abstraction.actions_enabled"] += len(wts.transitions)
    counts["abstraction.transitions"] += wts.transition_count()
    # computed: one corner row per action and corner combination
    counts["abstraction.corner_rows"] += \
        enumerated * 2 ** (dimension * (len(wts.neighbor_agents) + 1))


def _on_automaton(counts, args, automaton):
    counts["tba.locations"] += automaton.location_count()
    counts["tba.edges"] += len(automaton.edges)


def _on_synthesis(counts, args, result):
    counts["synthesis.combinations_tried"] += result.combinations_tried
    counts["synthesis.step_used"] += result.step_used


def _on_trajectory(counts, args, traj):
    counts["simulate.steps"] += traj.steps
    # computed: four RK4 stages per integrator substep
    counts["simulate.rk4_stages"] += traj.steps * traj.substeps * 4
    counts["simulate.saturated_inputs"] += len(traj.saturated)


def _on_refined(counts, args, result):
    counts["partition.cells"] = result[0].cell_count


def _on_lassos(counts, args, lassos):
    counts["synthesis.lassos"] += len(lassos)


_RESULTS = {
    "partition.refine_to_compliance": _on_refined,
    "abstraction.build_agent_wts": _on_wts,
    "tba.from_flat_mitl": _on_automaton,
    "tba.intersect": _on_automaton,
    "synthesis.enumerate": _on_lassos,
    "synthesis.synthesize": _on_synthesis,
    "simulate.integrate_plans": _on_trajectory,
}
