"""Exception types shared across the package."""


class CoverforgeError(Exception):
    """Base class for all package errors."""


class BadModulus(CoverforgeError):
    """The requested field characteristic is not an odd prime."""


class NotUnimodular(CoverforgeError):
    """A matrix was supplied whose determinant is not 1 mod p."""


class BadParameters(CoverforgeError):
    """Arguments violate a documented precondition."""


class BudgetExceeded(CoverforgeError):
    """A group was named above the table limit, an orbit outgrew its
    budget, or a certificate recorded an orbit budget above the
    verifier's cap.

    Carries diagnostics but never partial results: a computation that
    raises this must not be used downstream.
    """

    def __init__(self, message, used=None, budget=None):
        super().__init__(message)
        self.used = used
        self.budget = budget


class SearchExhausted(CoverforgeError):
    """A deterministic scan finished (or hit its cap) without a hit."""


class InconsistentRamification(CoverforgeError):
    """Ramification data does not describe a closed orientable cover."""


class SchemaMismatch(CoverforgeError):
    """A certificate file does not carry the expected schema."""
