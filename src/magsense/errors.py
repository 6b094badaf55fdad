"""Exception types shared across the package."""


class MagsenseError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(MagsenseError):
    """Operators or states tagged with different Hilbert spaces were combined."""


class UnknownModeError(MagsenseError):
    """A mode label is not present in the space."""


class HermiticityError(MagsenseError):
    """An operator used in a Hermitian role is not Hermitian."""


class IntegrationError(MagsenseError):
    """Time evolution failed a consistency check (step size, trace drift)."""


class ValidityError(MagsenseError):
    """Model parameters violate a validity guard (e.g. dispersive regime)."""


class DegenerateDataError(MagsenseError):
    """Data cannot constrain the requested fit (e.g. constant y for a peak)."""


class FitRankError(MagsenseError):
    """Design matrix rank-deficient for a linear fit."""


class CalibrationError(MagsenseError):
    """Slope ratio admits no real dispersive-shift solution."""


class BudgetError(MagsenseError):
    """A time budget cannot accommodate the minimum sampling."""


class EstimationError(MagsenseError):
    """A dataset does not meet the preconditions of an estimator."""


class SchemaError(MagsenseError):
    """A config or dataset file does not match the expected schema."""


class ConfigError(MagsenseError):
    """Experiment configuration failed validation; message carries field path."""
