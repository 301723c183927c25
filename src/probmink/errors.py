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


class AperiodicError(PeriodDetectionError):
    """The point's digit stream is provably not eventually periodic.

    So the induced function is irrational there and has no exact value.
    `witness` and `step` are those of the expansion's Aperiodic
    certificate, and `enclosure` brackets the value from the `step` digits
    decoded before it fired.
    """

    def __init__(self, message: str, witness: int, step: int, enclosure) -> None:
        super().__init__(message)
        self.witness = witness
        self.step = step
        self.enclosure = enclosure


class ResourceLimitError(ProbminkError):
    """An exact result would exceed the package's size budget."""
