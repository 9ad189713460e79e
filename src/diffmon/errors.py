"""Exception types shared across the toolkit, and the step-size and integer checks."""

import math
from numbers import Integral


class DiffmonError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DiffmonError):
    """A domain object violates one of its defining constraints."""


class NotHermitianError(ValidationError):
    pass


class NotPSDError(ValidationError):
    pass


class OffDiagonalError(ValidationError):
    """A measurement matrix has cross-channel correlations where none are allowed."""


class EfficiencyOutOfRangeError(ValidationError):
    """A detection efficiency falls outside [0, 1]."""


class SumNotInHError(ValidationError):
    """The diagonal-block sum of an unravelling matrix is not a valid efficiency matrix."""


class OffBlockAsymmetricError(ValidationError):
    """The off-diagonal blocks of an unravelling matrix differ."""


class InternalInconsistencyError(DiffmonError):
    """A conversion produced an object that fails its own validation (should be unreachable)."""


class DimensionMismatchError(ValidationError):
    pass


class NotL1Error(DiffmonError):
    """The B-rep factorization only handles a single measured channel."""


class ZeroMError(DiffmonError):
    """The zero measurement matrix has no beam-splitter realization."""


class NotPureError(DiffmonError):
    """The purity-rate prediction requires a pure input state."""


class StateInvalidError(DiffmonError):
    """A propagated state lost positivity beyond the configured tolerance."""


class WeightUnderflowError(DiffmonError):
    """A linear-trajectory log-weight fell below the configured floor."""


class NonPositiveLagError(DiffmonError):
    """Autocorrelation lags must be strictly positive."""


class NoSnapshotsError(DiffmonError):
    """The ensemble stored no state snapshot at the requested time index."""


class InsufficientDataError(DiffmonError):
    """The ensemble does not contain enough data for the requested estimate."""


class NoCompatibleTError(DiffmonError):
    """No real factor T with T T^t = hbar U could be built (should be unreachable)."""


class ParseError(DiffmonError):
    """An input file is not readable as structured text."""


class SchemaError(DiffmonError):
    """An input file parses but does not match the expected schema."""


class IoError(DiffmonError):
    """Writing an output artifact failed."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is a flag, not a count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_dt(dt) -> float:
    """dt as a float; raises ``ValidationError`` unless it is finite and positive."""
    try:
        value = float(dt)
    except (TypeError, ValueError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValidationError(f"dt must be positive, got {dt}")
    return value
