"""Exception types shared across the package, mapped to CLI exit codes."""

import functools


class UsageError(Exception):
    """Bad flags, bad config keys, malformed CLI input. Exit code 1."""


class DataError(ValueError):
    """Input data violates the expected format or an invariant. Exit code 2."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration budget. Exit code 3."""

    def __init__(self, message: str, *, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self):
        # a pool worker's error is pickled on its way to the main process
        rebuild = functools.partial(type(self), iterations=self.iterations, residual=self.residual)
        return rebuild, self.args
