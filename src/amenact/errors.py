"""Exception types shared across the library."""


class AmenactError(Exception):
    """Base class for all library errors."""


class GroupMismatchError(AmenactError):
    """Operands live in different abelian groups."""


class MonoidMismatchError(AmenactError):
    """Operands live in different monoids."""


class UnsupportedQuotientError(AmenactError):
    """The requested quotient falls outside the supported shapes."""


class NotInvariantError(AmenactError):
    """A subgroup is not invariant under the action; carries a witness."""

    def __init__(self, message, generator=None, element=None):
        super().__init__(message)
        self.generator = generator
        self.element = element


class UndecidableFamilyError(AmenactError):
    """No rule is available for this monoid or homomorphism family."""


class BudgetExceededError(AmenactError):
    """An element or search budget was exhausted.

    ``completed``, when set, names where the work stopped: a trajectory
    sets it to the monoid element s whose image alpha(s)(X) took the
    count past the budget, or for a subgroup seed to the element whose
    visit took the visited count past it, each shell counted in order of
    increasing l1 norm of the exponents.  ``index``, when set, is the net
    index being reached.
    """

    def __init__(self, message, completed=None, index=None):
        super().__init__(message)
        self.completed = completed
        self.index = index


class InvalidWitnessError(AmenactError):
    """A tiling witness failed the checks required before a derived test."""


class InconsistentSubgroupError(AmenactError):
    """A subgroup's enumerated closure disagrees with its lattice order."""


class SchemaError(AmenactError):
    """A scenario file does not match the schema."""
