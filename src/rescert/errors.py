"""Exception types shared across the package.

Invalid arguments and out-of-range inputs raise the builtin ValueError;
the classes here cover the two failure modes that deserve their own
handling at the CLI boundary (exit code 3).
"""


class ResourceLimitError(RuntimeError):
    """An enumeration, grid, or allocation exceeded its configured budget."""

    def __init__(self, message: str, *, needed=None, budget=None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    `needed` and `budget` are set when the evaluation budget stopped it
    (as on ResourceLimitError) and None when it did not converge.
    """

    def __init__(
        self, message: str, *, achieved_error=None, value=None, needed=None, budget=None
    ):
        super().__init__(message)
        self.achieved_error = achieved_error
        self.value = value
        self.needed = needed
        self.budget = budget
