"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the
most specific type that applies rather than bare ValueError.
"""


class ProbminkError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ProbminkError):
    """Malformed textual input: rationals, distributions, digit sequences."""


class DomainError(ProbminkError):
    """Structurally valid input outside the domain of the operation."""


class PeriodDetectionError(DomainError):
    """No eventual period was found within the allotted number of shifts."""


class ResourceLimitError(ProbminkError):
    """An exact result would exceed the package's size budget."""
