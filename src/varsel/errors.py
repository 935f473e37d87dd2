"""Exception hierarchy shared by all varsel modules."""


class VarselError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VarselError):
    """Invalid configuration or argument combination."""


class IngestError(VarselError):
    """Malformed input table; message carries row/column context."""


class InvalidSubsetError(VarselError):
    """Feature subset with out-of-range or duplicate indices."""


class RankDeficiencyError(VarselError):
    """Design matrix is numerically rank-deficient for the given subset."""

    def __init__(self, message: str, subset=None):
        super().__init__(message)
        self.subset = subset


class DegenerateStepError(VarselError):
    """Every candidate at a search or Gibbs step is rank-deficient, or every
    ranking prefix a selection criterion scores."""


class BudgetExceededError(VarselError):
    """Requested enumeration exceeds the configured subset budget."""

    def __init__(self, message: str, count: int, budget: int):
        super().__init__(message)
        self.count = count
        self.budget = budget
