"""Exception hierarchy shared by the toolkit."""


class FatFlatsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FatFlatsError, ValueError):
    """Input violates a documented precondition or invariant."""


class RankDeficiencyError(ValidationError):
    """A selection of linear forms that must be independent is not."""


class GenericityError(FatFlatsError):
    """Random generation failed to reach a general-position witness
    within the retry budget."""


class CapExceededError(FatFlatsError):
    """A degree search ran past its cap without resolving; the result is
    'unresolved above cap', never a fabricated value."""


class CertificateError(FatFlatsError):
    """A nef certificate failed to verify."""
