"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`OTLabError`, so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""


class OTLabError(Exception):
    """Base class for all errors raised by otlab."""


class ShapeError(OTLabError):
    """Fields or grids with incompatible shapes were combined."""


class DomainError(OTLabError):
    """An argument lies outside the domain an object is defined on."""


class RangeError(OTLabError):
    """A gradient value lies outside the range of the cost gradient."""


class ParameterError(OTLabError):
    """A numeric parameter violates its documented range."""


class CapacityError(OTLabError):
    """A dense cost matrix would exceed the fixed desk-scale size limit, ``ot_core._DENSE_CAPACITY``."""


class DegenerateInputError(OTLabError):
    """Input is degenerate (e.g. an all-zero density)."""


class InputError(OTLabError):
    """Inconsistent solver input (e.g. mass mismatch between marginals)."""


class ConvergenceError(OTLabError):
    """An iterative solver failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class StepError(OTLabError):
    """A proximal step failed; carries the last inner residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class ConfigError(OTLabError):
    """Invalid or unparsable experiment configuration."""
