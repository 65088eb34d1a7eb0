"""Exception and warning types shared across the toolkit.

The CLI maps these onto exit codes: validation errors are usage errors
(exit 1), data errors are exit 2, numerical failures are exit 3.
"""


class FairnoiseError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairnoiseError, ValueError):
    """An argument violates a documented precondition."""


class InvalidBaseRate(ValidationError):
    pass


class NonPositiveEpsilon(ValidationError):
    pass


class OutOfRangeRho(ValidationError):
    pass


class OutOfRangeWeight(ValidationError):
    pass


class DataError(FairnoiseError):
    """The supplied data cannot support the requested operation."""


class EmptyDataset(DataError):
    pass


class EmptySlice(DataError):
    pass


class SchemaError(DataError):
    pass


class ParseError(DataError):
    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column!r})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class NumericalError(FairnoiseError):
    """A computation degenerated (division by a vanishing probability, etc.)."""


class DegenerateBaseRate(NumericalError):
    pass


class DegenerateConditional(NumericalError):
    pass


class FairnoiseWarning(UserWarning):
    pass


class PairingWarning(FairnoiseWarning):
    """Criterion and fairness loss paired in a non-default way."""


class NonConvergenceWarning(FairnoiseWarning):
    """A fit stopped with the gradient norm above its tolerance."""


class DegenerateEstimateWarning(FairnoiseWarning):
    """Noise-rate estimates had to be clamped to keep their sum below 1."""


class InfeasibleWarning(FairnoiseWarning):
    """No training iterate satisfied the fairness tolerance plus slack."""
