"""Exception hierarchy.

Input-side problems (bad shapes, malformed files, invalid parameters) derive
from InputError; failures of the numerical machinery derive from
NumericalError. The CLI maps the two branches to exit codes 2 and 3.
"""


class RespectraError(Exception):
    """Base class for all package errors."""


class InputError(RespectraError):
    """Invalid user-supplied data or parameters (CLI exit code 2)."""


class NumericalError(RespectraError):
    """A numerical procedure failed to produce a usable result (exit code 3)."""


class InvalidMatrix(InputError):
    pass


class InvalidShape(InputError):
    pass


class InvalidSpec(InputError):
    pass


class InvalidConfig(InputError):
    pass


class InvalidSize(InputError):
    pass


class InvalidInput(InputError):
    pass


class UnknownExperiment(InputError):
    pass


class ZeroVariance(InputError):
    pass


class ParseError(InputError):
    """Malformed file content. Carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


class TruncatedFile(InputError):
    pass


class ConvergenceFailure(NumericalError):
    """Fixed-point iteration did not converge. Carries the last residual
    and, from a solve over several points, the index of the failing one."""

    def __init__(self, message, residual=None, point=None):
        super().__init__(message if residual is None
                         else f"{message} (residual {residual:.3e})")
        self.residual = residual
        self.point = point


class InsufficientViews(NumericalError):
    pass
