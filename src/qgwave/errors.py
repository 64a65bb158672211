"""Exception types shared across the package."""


class QgwaveError(Exception):
    """Base class for all package errors."""


class ShapeError(QgwaveError, ValueError):
    """Array dimensions do not match the grid."""


class DomainError(QgwaveError, ValueError):
    """An argument lies outside the mathematically admissible range."""


class ProfileSpecError(QgwaveError, ValueError):
    """A profile spec string could not be parsed."""


class FieldFormatError(QgwaveError, ValueError):
    """A wave-field file is malformed (bad keys, shapes, or non-finite data)."""


class UnsupportedSingularityError(DomainError):
    """Singular eigenproblem requested for a profile whose minimum is not a
    certified monotone endpoint."""


class ConvergenceError(QgwaveError, RuntimeError):
    """Grid refinement exhausted without meeting the requested tolerance.

    Carries the last two eigenvalue iterates so callers can inspect how far
    the refinement got; raised without them, it has only the class's ().
    """

    last_iterates = ()

    def __init__(self, message, last_iterates=None):
        super().__init__(message)
        if last_iterates:
            self.last_iterates = tuple(last_iterates)


class NoRootError(QgwaveError, RuntimeError):
    """No wave-speed root is guaranteed: the endpoint eigenvalue does not
    reach the requested target."""

    def __init__(self, message, lambda_end=None, target=None):
        super().__init__(message)
        self.lambda_end = lambda_end
        self.target = target
