"""Exception types shared across the package.

Each class carries the CLI's exit code for it as ``exit_code``.
"""


class SpamcalError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(SpamcalError):
    """Invalid input: bad geometry, malformed file, non-stochastic matrix,
    or a noise model producing negative probabilities."""


class MissingDataError(SpamcalError):
    """A replay backend was asked for prepared states it does not hold.

    ``.missing`` holds the index of every missing state of the n-qubit
    register; the message names at most ``SHOWN`` of them as bitstrings,
    since one bitstring is n characters long."""

    exit_code = 3
    SHOWN = 8

    def __init__(self, missing, n: int):
        self.missing = list(missing)
        # the bitstrings of spamcal.bits, which imports this module
        shown = ", ".join(format(x, f"0{n}b") for x in self.missing[: self.SHOWN])
        if len(self.missing) <= self.SHOWN:
            message = "missing prepared state(s): " + shown
        else:
            message = (
                f"missing {len(self.missing)} prepared states, "
                f"the first {self.SHOWN}: {shown}"
            )
        super().__init__(message)


class NumericalError(SpamcalError):
    """Singular or ill-conditioned matrix; carries the condition estimate."""

    exit_code = 4

    def __init__(self, message, rcond=None):
        self.rcond = rcond
        super().__init__(message)


class ConvergenceError(SpamcalError):
    """Iterative solver hit its iteration cap; carries the best iterate."""

    exit_code = 4

    def __init__(self, message, best=None, residual=None, iterations=None):
        self.best = best
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)
