"""Exception types shared across the library."""


class FuzzyCoarseError(Exception):
    """Base class for all library errors."""


class DomainError(FuzzyCoarseError):
    """An argument lies outside the domain an operation is defined on."""


class ParseError(FuzzyCoarseError):
    """Malformed textual input (rationals, windows, config files)."""


class UnsupportedOperationError(FuzzyCoarseError):
    """The operation's hypotheses exclude this input."""


class PreconditionError(FuzzyCoarseError):
    """A documented precondition was checked and found violated."""


class SearchFailureError(FuzzyCoarseError):
    """A bounded parameter search ended without a certified candidate."""


class CertificationError(FuzzyCoarseError):
    """A certificate hypothesis failed on the supplied window."""


class DerivationError(FuzzyCoarseError):
    """Parameter derivation could not be completed from the supplied moduli."""


class ExactnessError(FuzzyCoarseError):
    """A requested value is not representable as an exact rational."""


class NonArchimedeanViolationError(FuzzyCoarseError):
    """A space submitted as non-Archimedean fails the defining inequality."""


class OracleSizeError(FuzzyCoarseError):
    """The oracle only accepts very small windows."""
