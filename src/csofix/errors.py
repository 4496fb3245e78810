"""Exception hierarchy shared across the package.

PreconditionError and its subclasses map to CLI exit code 2,
ConvergenceError to exit code 3.
"""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


class AdmissibilityError(PreconditionError):
    """A seed fails the coefficient condition (a=1 for logs, a=s^k for poles)."""


class NonSimpleConfigurationError(PreconditionError):
    """A singularity lands inside an image disc without being a fixed point."""


class ConvergenceError(RuntimeError):
    """A computed result missed the requested tolerance."""
