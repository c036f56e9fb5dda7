"""Exception types shared across midylab."""

__all__ = [
    "BoundedSearchError",
    "DomainError",
    "HypothesisNotApplicableError",
    "MidylabError",
    "PreconditionError",
]


class MidylabError(Exception):
    """Base class for all midylab errors."""


class DomainError(MidylabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(MidylabError, ValueError):
    """A documented call precondition does not hold."""


class HypothesisNotApplicableError(MidylabError, ValueError):
    """The hypothesis of a conditional criterion fails for these inputs.

    Distinct from PreconditionError: the call is well formed, but the
    criterion it evaluates says nothing about the given instance.
    """


class BoundedSearchError(MidylabError, RuntimeError):
    """A bounded search ran out of budget before finding a result."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound

    def __reduce__(self):
        # The default rebuilds from args alone, which lack bound, so the
        # error would not survive pickling.
        return type(self), (self.args[0], self.bound)
