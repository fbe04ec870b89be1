"""Exception hierarchy.

Input-side problems (bad shapes, malformed or truncated files, invalid
parameters, constant blocks) raise InputError; failures of the numerical
machinery raise NumericalError. The CLI maps the two branches to exit codes
2 and 3. The two subclasses carry data: ParseError the byte offset of the
problem, ConvergenceFailure the last residual and the failing point.
"""


class RespectraError(Exception):
    """Base class for all package errors."""


class InputError(RespectraError):
    """Invalid user-supplied data or parameters (CLI exit code 2)."""


class NumericalError(RespectraError):
    """A numerical procedure failed to produce a usable result (exit code 3)."""


class ParseError(InputError):
    """Malformed file content. Carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


class ConvergenceFailure(NumericalError):
    """Fixed-point iteration did not converge. Carries the last residual
    and, from a solve over several points, the index of the failing one."""

    def __init__(self, message, residual=None, point=None):
        super().__init__(message if residual is None
                         else f"{message} (residual {residual:.3e})")
        self.residual = residual
        self.point = point

