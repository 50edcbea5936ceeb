"""Exception types shared across the package."""


class RiImputeError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RiImputeError):
    """Array shapes do not line up."""


class InvalidParameter(RiImputeError):
    """A parameter lies outside its stated domain."""


class RankDeficient(RiImputeError):
    """A fit's Gram or information matrix is numerically singular."""


class Separation(RiImputeError):
    """Logistic coefficients diverged; the classes are (quasi-)separated."""


class NonConvergence(RiImputeError):
    """Iterative fit failed to converge within the iteration budget."""


class TooFewRows(RiImputeError):
    """Not enough rows to perform the requested fit or imputation."""


class DegenerateSample(RiImputeError):
    """Sample has too little variation for the requested summary."""
