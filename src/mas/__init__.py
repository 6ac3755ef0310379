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

from .abstraction import (AgentWTS, ProductWTS, TransitionCertificate,
                          build_agent_wts, feedback_inputs)
from .bounds import (BoundsReport, DiscretizationRange, deviation_remainder,
                     discretization_range, lipschitz_constants,
                     theorem1_constants)
from .errors import (ArityMismatch, BudgetExceeded, DiameterTooLarge,
                     DimensionMismatch, DisconnectedGraph, DuplicateEdge,
                     HorizonOverflow, InputSaturationFlag, LabelMismatch,
                     LengthMismatch, MasError, NonPeriodicWord,
                     NonRationalConstant, OutsideWorkspace, ParseError,
                     SamplingOutOfRange, SchemaError, SelfLoop, SemanticError,
                     Unsatisfiable, UnsupportedNesting, WorkspaceExit)
from .graph import (NetworkGraph, SpectralData, build_graph,
                    incidence_matrix, perp_component, relative_state,
                    spectral)
from .mitl import (Always, And, Atom, Eventually, Interval, MitlFormula, Next,
                   Not, TimedWord, Until, atoms, evaluate, formula_to_text,
                   parse, to_fraction, witness_instant, word_from_lasso)
from .partition import (CellDecomposition, LabeledRegion, ServiceLabeling,
                        Workspace, cell_of, cells_of, grid_decompose,
                        refine_to_compliance)
from .simulate import (BoundednessReport, Trajectory, bang_bang_inputs,
                       boundary_cells, extract_service_word, integrate_inputs,
                       integrate_plans, verify_against_plans,
                       verify_boundedness)
from .synthesis import (BuchiProduct, Lasso, Plan, SynthesisResult,
                        align_runs, consistent,
                        enumerate_accepting_lassos, find_accepting_lasso,
                        synthesize)
from .tba import (Edge, Guard, TimedAutomaton, accepts_lasso,
                  canonical_letters, from_flat_mitl, intersect)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
