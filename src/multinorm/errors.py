"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Vector/matrix shape does not match the space it is used with."""


class FieldError(ValueError):
    """Operation needs real scalars but received genuinely complex data."""


class SpecError(ValueError):
    """Multi-norm spec is invalid for the given space or arguments."""


class BudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class DegenerateNormError(ValueError):
    """Membership oracle vanished on a direction with nonzero objective, or a result is NaN or an exact infinity."""


class HermitianError(ValueError):
    """A decomposition required to be hermitian failed the check."""
