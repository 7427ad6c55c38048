"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError and DomainError (bad input)
-> 2, NumericError and its subclasses (a numerical breakdown) -> 3.  Check
failures (a verified inequality coming out false) are reported, not raised.
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class NumericError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, ill conditioning)."""


class EvaluationError(NumericError):
    """An integrand or chart produced a non-finite value."""


class AssemblyError(NumericError):
    """Galerkin matrices could not be assembled (e.g. mass matrix not PD)."""


class ConvergenceError(NumericError):
    """An iterative solver ran out of iterations.

    Carries the residual history so callers can diagnose stagnation.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class ResolutionError(NumericError):
    """A discrete invariant (e.g. integer-valued degree) came out ambiguous."""


class ConfigError(ValueError):
    """Malformed configuration file or option value."""
