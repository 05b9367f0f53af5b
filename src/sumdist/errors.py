"""Exception types shared across the package: ``DomainError`` is the root of
every numerical failure, which the command line reports with exit status 1."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuantileOutOfRange(DomainError):
    """A requested quantile level is not bracketed by the distribution table."""
