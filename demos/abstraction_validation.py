"""Build the decentralized abstraction for a two-agent scenario and stress
one of its transitions with adversarial neighbors.

Each transition of an agent's symbolic model is an action (own cell +
neighbor cells) paired with a reachable target cell, and comes with a
certificate: the nominal center-to-center input and the worst-case
integration remainder. Here we sample random start positions inside the
action cells, let the neighbor run a full-magnitude bang-bang input, and
check the continuous flow still lands in the promised target.
"""

import itertools
from pathlib import Path

import numpy as np

from mas.abstraction import feedback_inputs
from mas.cli import load_scenario, stage_abstract, stage_bounds
from mas.partition import cell_of
from mas.simulate import bang_bang_inputs

rng = np.random.default_rng(7)

scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "pair_line.json"
pipe = stage_abstract(stage_bounds(load_scenario(scenario_path)))
sc, decomp = pipe.scenario, pipe.decomp

print(f"scenario: {sc.name} ({sc.agent_count} agents, v_max = {sc.v_max})")
print(f"grid: {decomp.cell_count} cells, diameter {decomp.diameter:.4g}, "
      f"dt = {pipe.disc.chosen_dt:.4g}")
for w in pipe.wts_list:
    print(f"agent {w.agent}: initial cell {w.initial}, "
          f"{len(w.transitions)} actions, {w.transition_count()} transitions, "
          f"neighbors {w.neighbor_agents}")

# every action of agent 1 (own cell, neighbor cells) with its targets
w = pipe.wts_list[0]
moves = [(action, w.transitions.enabled(action[0], action[1:]))
         for action in itertools.product(
             w.cells, repeat=len(w.neighbor_agents) + 1)]
moves = [(action, targets) for action, targets in moves if targets]

# look at one certificate in detail
action, (target, *_) = moves[0]
cert = w.certificate(action, target)
print(f"\nagent {w.agent}, action {action} -> target {target}")
print(f"  nominal input: {cert.nominal_input} "
      f"(norm {np.linalg.norm(cert.nominal_input):.4g} "
      f"<= lambda*v_max = {pipe.report.lambda_reach * sc.v_max:.4g})")
print(f"  remainder rho = {cert.remainder:.4g} "
      f"vs target inradius {decomp.inradius(target):.4g}")
print(f"  every move takes dt = {w.dt:.4g}")

# Monte-Carlo attack: uniform starts inside the action cells, the neighbor
# drives bang-bang at full v_max, we steer with the measured-drift feedback
g, dt, v_max = pipe.g, pipe.disc.chosen_dt, sc.v_max
lap = g.laplacian
samples = 200


def rk4_batch(starts, inputs, substeps=8):
    h = dt / substeps
    f = lambda x: -np.einsum("ij,bjk->bik", lap, x) + inputs
    x = starts.copy()
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


own = w.agent - 1
nbr = [a - 1 for a in w.neighbor_agents]


def steer(starts, inputs, center):
    """Our agent's input in each sample: its row of the feedback law, aimed
    at ``center`` from the sampled positions."""
    for b in range(len(starts)):
        aims = starts[b].copy()
        aims[own] = center
        inputs[b, own] = feedback_inputs(g, starts[b], aims, dt, v_max)[0][own]

boxes = [decomp.bounds(c) for c in action]

starts = np.empty((samples, g.agent_count, g.dimension))
starts[:, own] = rng.uniform(*boxes[0], (samples, g.dimension))
for k, j in enumerate(nbr):
    starts[:, j] = rng.uniform(*boxes[1 + k], (samples, g.dimension))

inputs = bang_bang_inputs(g, v_max, samples, rng)
steer(starts, inputs, decomp.center(target))
ends = rk4_batch(starts, inputs)
landed = sum(cell_of(decomp, ends[b, own]) == target for b in range(samples))
print(f"\nMonte-Carlo: {landed}/{samples} adversarial runs landed in "
      f"cell {target}")

# and the same sweep over every transition of agent 1, 25 samples each
total = good = 0
for action, targets in moves:
    boxes = [decomp.bounds(c) for c in action]
    for target in targets:
        starts = np.empty((25, g.agent_count, g.dimension))
        starts[:, own] = rng.uniform(*boxes[0], (25, g.dimension))
        for k, j in enumerate(nbr):
            starts[:, j] = rng.uniform(*boxes[1 + k], (25, g.dimension))
        inputs = bang_bang_inputs(g, v_max, 25, rng)
        steer(starts, inputs, decomp.center(target))
        ends = rk4_batch(starts, inputs)
        total += 25
        good += sum(cell_of(decomp, ends[b, own]) == target for b in range(25))
print(f"full sweep over agent {w.agent}: {good}/{total} endpoints contained")
