"""Exception hierarchy.

Three families matter to callers:

* ``ParseError`` and ``DataError`` mean the input files or the dataset are
  at fault (CLI exit code 2).
* ``ModelError`` means the estimation machinery was handed something it
  cannot work with (also exit code 2).
* ``NumericsError`` means a numeric kernel violated its own contract and
  is almost always a bug or a truly degenerate input.

Usage errors (bad flags, malformed config) are raised as ``ConfigError``
and map to CLI exit code 1.
"""

from __future__ import annotations


class SlvRateError(Exception):
    """Base class for all package errors."""


class ConfigError(SlvRateError):
    """Bad command-line usage or malformed configuration."""


# -- input parsing ----------------------------------------------------------


class ParseError(SlvRateError):
    """A file could not be parsed; carries file/line provenance."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class MissingColumnError(ParseError):
    pass


class DuplicateStError(ParseError):
    pass


class NonIntegerAlleleError(ParseError):
    pass


class EmptyFileError(ParseError):
    pass


class MalformedHeaderError(ParseError):
    pass


class DuplicateAlleleError(ParseError):
    pass


class EmptySequenceError(ParseError):
    pass


# -- dataset construction and consistency -----------------------------------


class DataError(SlvRateError):
    """The parsed data violate a dataset invariant."""


class ReferentialIntegrityError(DataError):
    pass


class TooFewLociError(DataError):
    pass


class TooFewStsError(DataError):
    pass


class DuplicateVectorError(DataError):
    """Two sequence types carry identical allele vectors."""


class LengthMismatchError(DataError):
    pass


class ZeroDifferencePairError(DataError):
    """Distinct allele ids at the focal locus with identical sequences."""


class TooFewUnitsError(DataError):
    pass


# -- model / estimation -----------------------------------------------------


class ModelError(SlvRateError):
    """Estimation cannot proceed on this input."""


class InvalidParamsError(ModelError):
    pass


class DegenerateRatioError(ModelError):
    pass


class EmptyPartitionError(ModelError):
    pass


class AlphaUnidentifiableError(ModelError):
    """No group contributes more than one pair, so the within-group
    score correlation cannot be estimated."""


class DegenerateScoresError(ModelError):
    pass


class NonMonotoneDevianceError(ModelError):
    """The deviance failed to bracket the confidence threshold."""


class SingularInfoError(ModelError):
    pass


class NonPositiveInfoError(ModelError):
    pass


class InvalidImportModelError(ModelError):
    pass


# -- numeric kernels --------------------------------------------------------


class NumericsError(SlvRateError):
    """A numeric kernel contract was violated."""


class NonFiniteError(NumericsError):
    pass


class SingularMatrixError(NumericsError):
    pass


class NotSPDError(NumericsError):
    pass
