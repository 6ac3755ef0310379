"""Timed plan synthesis for consensus-coupled multi-agent systems.

Agents with single-integrator dynamics coupled through a communication graph
each carry an individual metric-interval temporal task over the services they
can provide in labeled workspace regions. The package computes the
relative-state invariance bound, abstracts each agent into a finite
transition system whose moves the continuous dynamics can certifiably track,
translates the tasks into timed Büchi automata, searches the products for
consistent accepting runs, and turns them into executable feedback plans whose
closed loop is validated on the exact sampled flow of the coupled dynamics.

Modules: graph (topology, the Laplacian and its spectrum), bounds
(invariance and discretization constants), partition (workspace cells and
service labels), mitl (formulas and timed words), tba (timed Büchi
automata), abstraction (per-agent and product transition systems, and the
one feedback law, v = (C - x)/dt + Lx, that certificates and the closed loop
share), synthesis (plan search), simulate (closed-loop execution), files
(scenario, plans.json and timed-word files), cli (the `mas` command).
"""
