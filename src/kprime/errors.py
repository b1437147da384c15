"""Exception types shared across the package."""


class KPrimeError(Exception):
    """Base class for all package errors."""


class ParseError(KPrimeError):
    """Raised on malformed input text.

    Carries the 1-based line/column of the offending token and the set of
    token descriptions that would have been accepted there.
    """

    def __init__(self, message, line, column, expected=(), found=None):
        self.message = message
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        self.found = found
        detail = f"{message} at line {line}, column {column}"
        if found is not None:
            detail += f" (found {found!r})"
        if self.expected:
            detail += "; expected one of: " + ", ".join(sorted(self.expected))
        super().__init__(detail)


class BudgetExceeded(KPrimeError):
    """Base class for configurable resource-cap violations.

    reached and limit, where the raiser knows them, are the count that
    crossed the cap and the cap itself, as integers; the message names both.
    """

    def __init__(self, message, stage=None, reached=None, limit=None):
        self.stage = stage
        self.reached = reached
        self.limit = limit
        if stage is not None:
            message = f"{message} (at stage {stage})"
        super().__init__(message)


class ClauseBudgetExceeded(BudgetExceeded):
    """Clause-count cap hit while expanding or closing a clause set."""


class TableauBudgetExceeded(BudgetExceeded):
    """Node cap hit inside the satisfiability procedure."""


class RecursionDepthExceeded(BudgetExceeded):
    """Input or resolvent search nested past a depth cap."""
