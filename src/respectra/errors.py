"""Exception hierarchy.

Input-side problems (bad shapes, malformed or truncated files, invalid
parameters, constant blocks) raise InputError; failures of the numerical
machinery raise NumericalError. The CLI maps the two branches to exit codes
2 and 3. The two subclasses carry data: ParseError the byte offset of the
problem, ConvergenceFailure the last residual and the failing point.
check_range is the one check of a scalar parameter's domain.
"""

import math


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


def check_range(name, value, low, high=math.inf, low_open=False,
                high_open=False):
    """Raise InputError unless value is finite and lies between low and
    high, each end included unless its ``*_open`` flag is set.

    The message states the domain: ``<name> must lie in [0, 1), got 1.5``
    for an interval with an open end, and otherwise in words: ``must be
    positive`` (open at 0), ``must be nonnegative``, ``must exceed 1``,
    ``must be at least 2``, ``must be at least 2 and at most 8``. Plain
    comparisons, false for NaN, keep it cheap on per-block paths, and
    ``value < inf`` also holds for integers too large for a float.
    """
    if ((low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)
            and value < math.inf):
        return
    if high < math.inf and (low_open or high_open):
        where = (f"lie in {'(' if low_open else '['}{low}, "
                 f"{high}{')' if high_open else ']'}")
    else:
        where = (("be positive" if low_open else "be nonnegative") if low == 0
                 else f"exceed {low}" if low_open else f"be at least {low}")
        if high < math.inf:
            where += f" and at most {high}"
    raise InputError(f"{name} must {where}, got {value}")
