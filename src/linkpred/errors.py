"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2. Non-convergence is not an error; the solver reports it via
``ScoreMatrix.converged`` and the CLI exits 3 after writing results.
"""

from __future__ import annotations


class LinkpredError(ValueError):
    """Base class for errors raised by this package."""


class ConfigError(LinkpredError):
    """Invalid parameter, option, or method name."""


class DataError(LinkpredError):
    """Input data cannot be used as requested."""


class ParseError(DataError):
    """Malformed input file; the message carries path and line number."""


class EvaluationError(DataError):
    """Evaluation is impossible on this instance (e.g. empty probe set)."""
