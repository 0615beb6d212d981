"""Exception hierarchy for the miniwfl engine.

Static-class errors (parse/validate/plan time) and runtime-class errors
(staging, output collection) are kept in separate branches so the
runtime can map each to a failure kind without string matching.
"""


class MiniwflError(Exception):
    """Base class for all engine errors."""


# --- document model ---------------------------------------------------------

class DocumentSyntaxError(MiniwflError):
    """Input text is not well-formed YAML/JSON."""


class SchemaError(MiniwflError):
    """Document structure violates the dialect schema."""


class TypeSyntaxError(SchemaError):
    """A type string could not be parsed."""


class NotFoundError(MiniwflError):
    """A referenced document could not be loaded."""


class IncludeCycleError(MiniwflError):
    """A document transitively includes itself."""


# --- expressions ------------------------------------------------------------

class ExpressionError(MiniwflError):
    """An expression could not be evaluated."""


class ExprSyntaxError(ExpressionError):
    """Expression source is outside the grammar."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class ExprTypeError(ExpressionError):
    """Operand types invalid for an operator, or a guard was non-boolean."""


class UnknownReferenceError(ExpressionError):
    """Expression referenced an id absent from the evaluation context."""


# --- planning ---------------------------------------------------------------

class JobOrderError(MiniwflError):
    """Job order is missing inputs or names unreadable files."""


class PlanError(MiniwflError):
    """A structural validation finding, or a job lacking an input that a
    source names: there is no graph to run."""


class ScatterLengthMismatchError(MiniwflError):
    """Dot-product scatter over arrays of unequal length."""


class GraphCycleError(MiniwflError):
    """Operation requiring an acyclic graph was given a cyclic one."""


# --- runtime ----------------------------------------------------------------

class StagingError(MiniwflError):
    """Input staging failed: missing file, checksum drift, or collision."""


class InputChangedError(StagingError):
    """An input no longer has the signature it was staged with: a store
    entry written through its link, or a file the run made, read in place;
    ``damaged`` holds (checksum, inode) as collected for each of those."""

    def __init__(self, message, damaged=()):
        super().__init__(message)
        self.damaged = list(damaged)


class OutputMissingError(MiniwflError):
    """Required File output matched nothing."""


class OutputAmbiguousError(MiniwflError):
    """Single-File output glob matched more than one file."""


# --- upgrade ----------------------------------------------------------------

class DowngradeError(MiniwflError):
    """Requested target version precedes the document version."""


class UnknownVersionError(MiniwflError):
    """Version string outside the supported set."""
