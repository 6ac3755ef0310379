"""Exception types shared across the package.

Everything raised on purpose derives from :class:`MasError`, so callers (and
the CLI) can distinguish "the input/problem is bad" from genuine bugs.
"""

from __future__ import annotations


class MasError(Exception):
    """Base class for all errors raised by this package."""


# --- graphs -----------------------------------------------------------------

class DisconnectedGraph(MasError):
    """The communication graph is not connected (lambda_2 below tolerance)."""


class DuplicateEdge(MasError):
    """The same undirected edge was given twice."""


class SelfLoop(MasError):
    """An edge connects an agent to itself."""


class DimensionMismatch(MasError):
    """A vector's length does not match the graph's agent count/dimension."""


# --- bounds / discretization -------------------------------------------------

class DiameterTooLarge(MasError):
    """Requested cell diameter exceeds the admissible supremum."""


class SamplingOutOfRange(MasError):
    """Requested sampling period lies outside the admissible interval."""


# --- workspace / partitions ---------------------------------------------------

class OutsideWorkspace(MasError):
    """A point does not belong to the workspace."""


class WorkspaceExit(MasError):
    """A simulated trajectory left the workspace."""


# --- formulas / words ---------------------------------------------------------

class ParseError(MasError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonRationalConstant(ParseError):
    """A timing constant could not be read as an exact rational."""


class HorizonOverflow(MasError):
    """Formula evaluation exceeded its position-unrolling budget."""


class UnsupportedNesting(MasError):
    """Formula is outside the flat fragment the automaton builder handles."""


class NonPeriodicWord(MasError):
    """A timed word is not in usable ultimately-periodic (lasso) form."""


# --- abstraction / synthesis ---------------------------------------------------

class ArityMismatch(MasError):
    """Wrong number of neighbor states/positions for an agent."""


class LabelMismatch(MasError):
    """Executed services disagree with the plan's promised services."""


class LengthMismatch(MasError):
    """Per-agent runs cannot be aligned within the cycle-length budget."""


class Unsatisfiable(MasError):
    """Exhaustive search proved there is no accepting joint run."""


class BudgetExceeded(MasError):
    """A state/iteration cap was hit before the search could conclude."""


# --- scenario I/O ---------------------------------------------------------------

class SchemaError(MasError):
    """An input file (a scenario unless ``what`` names another) is
    structurally invalid; the message lists pointer paths."""

    def __init__(self, problems, what: str = "scenario"):
        self.problems = list(problems)
        super().__init__(f"invalid {what}:\n" + "\n".join(
            f"  {path}: {msg}" for path, msg in self.problems))


class SemanticError(MasError):
    """Scenario is well-formed but semantically inconsistent."""


class InputSaturationFlag(UserWarning):
    """A feedback input had to be clamped to the input bound."""
