"""Exception types shared across the package.

The CLI maps these onto process exit codes, so new failure modes should
subclass one of the existing categories rather than raising bare ValueError.
"""

from __future__ import annotations


class NavsteerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NavsteerError, ValueError):
    """A parameter or input value is outside its documented domain."""


class EdgeListParseError(NavsteerError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class EmptyGraphError(NavsteerError):
    """The operation requires a graph with at least one node."""


class DanglingNodeError(NavsteerError):
    """A node with zero out-weight makes the transition matrix undefined."""

    def __init__(self, node: int, label: str):
        self.node = node
        self.label = label
        super().__init__(f"node {label!r} has no outgoing weight; "
                         "transition probabilities are undefined")


class NotStronglyConnectedError(NavsteerError):
    """Strict mode rejected an input that is not a single strongly
    connected component."""


class ConvergenceError(NavsteerError):
    """Power iteration did not reach the requested tolerance.

    Carries the last iterate and the full residual history so callers can
    inspect oscillation (periodic chains) versus slow mixing.
    """

    def __init__(self, message: str, last_iterate, residual_history):
        self.last_iterate = last_iterate
        self.residual_history = residual_history
        super().__init__(message)


class PeriodicChainError(ConvergenceError):
    """The transition chain is periodic, so power iteration from the
    uniform start oscillates instead of converging.

    Raised after the single uniform-start step, before any further
    iteration; ``period`` is the gcd of the chain's cycle lengths.
    """

    def __init__(self, period: int, last_iterate, residual_history):
        self.period = period
        super().__init__(
            f"transition chain is periodic with period {period}; power "
            "iteration cannot converge", last_iterate, residual_history)


class EmptySupportError(NavsteerError):
    """No existing link can receive bias weight (no in-links to any target)."""
