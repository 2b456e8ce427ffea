"""Exception types shared across the package."""


class TreeshiftError(Exception):
    """Base class for all package errors."""


class InputError(TreeshiftError):
    """Malformed or out-of-contract input (bad file, bad schema, misuse)."""


class SpecInvalidError(TreeshiftError):
    """A chain spec violates one of its invariants."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class DomainError(TreeshiftError):
    """A configuration domain is not left-connected or misses the identity."""


class MissingCoordinate(TreeshiftError):
    """A computation needed a coordinate outside the configuration's domain.

    Carries the absolute group element that was requested, so demand-driven
    enumerators can extend the domain and retry.  The message is written
    only when asked for: scans raise and catch thousands of these.
    """

    def __init__(self, word):
        self.word = word
        super().__init__(word)

    def __str__(self) -> str:
        return f"coordinate {self.word} not in domain"


class BudgetError(TreeshiftError):
    """An enumeration exceeded its configured size budget."""


class ParamsError(TreeshiftError):
    """Slide parameters are inconsistent with the chain spec."""

