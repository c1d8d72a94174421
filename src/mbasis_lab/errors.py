"""Exception types shared across the package."""


class ArgumentError(ValueError):
    """Raised when an argument is malformed or out of range."""


class SingularGramError(RuntimeError):
    """Raised when a cross-Gram matrix is singular above the rank tolerance.

    Signals that the requested dual system does not exist relative to the
    given span (the vectors are not minimal with respect to it).  ``test``
    names the test that refused, for callers that advise on its cause.
    """

    def __init__(self, message: str, test: str | None = None):
        super().__init__(message)
        self.test = test


class ConstructionError(RuntimeError):
    """Raised when an inductive construction cannot be completed as specified."""
