"""Exception hierarchy shared by all contactmech modules."""


class ContactMechError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ContactMechError, ValueError):
    """State dimensions do not match the model or map."""


class NonFiniteError(ContactMechError, ArithmeticError):
    """A value, derivative or state component came out NaN or infinite."""


class IntegrationError(ContactMechError, RuntimeError):
    """Integration could not be completed (step budget, solver failure)."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class SingularMeasureError(ContactMechError, ValueError):
    """Invariant-measure weight requested on (or too close to) the zero level set."""


class SingularChartError(ContactMechError, ValueError):
    """Coordinate chart is singular at the requested point (e.g. q = 0)."""


class RiccatiPoleError(IntegrationError):
    """The Riccati solution has a pole (lambda = 0) before the end of the grid."""


class UnsupportedModelError(ContactMechError, TypeError):
    """The operation needs structure (model kind, inverse map, family) the object lacks."""


class ExpressionError(ContactMechError, ValueError):
    """Expression parsing or evaluation failure; carries a byte offset when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ScenarioError(ContactMechError, ValueError):
    """Scenario file is malformed or violates a constraint; message carries the key path."""
