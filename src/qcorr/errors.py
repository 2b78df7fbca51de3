"""Exception hierarchy shared across the package.

Each concrete class carries the CLI's exit code for it and the prefix of
the one stderr line that reports it; ``cli.main`` reads both off the class.
"""


class QcorrError(Exception):
    """Base class for all package errors; subclasses set ``exit_code`` and ``prefix``."""

    exit_code: int
    prefix: str


class ParseError(QcorrError):
    """Malformed input file or JSON payload."""

    exit_code, prefix = 2, "parse error"


class InvariantError(QcorrError):
    """A physical or structural invariant is violated."""

    exit_code, prefix = 3, "invariant violation"


class UsageError(QcorrError):
    """Unknown measure, suite, or otherwise bad invocation."""

    exit_code, prefix = 64, "usage error"
