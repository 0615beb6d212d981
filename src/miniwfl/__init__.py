"""miniwfl: a desk-scale declarative command-line workflow engine."""

from .model import Document, ToolDescription, WorkflowDescription
from .parser import (
    canonical_digest,
    canonical_serialize,
    parse_document,
    resolve_references,
)
from .planner import FileValue, plan
from .scheduler import Machine, RunConfig, RunResult, Services, run
from .validator import Diagnostic, validate

__version__ = "0.1.0"

__all__ = [
    "Document",
    "ToolDescription",
    "WorkflowDescription",
    "parse_document",
    "resolve_references",
    "canonical_serialize",
    "canonical_digest",
    "FileValue",
    "plan",
    "Machine",
    "RunConfig",
    "RunResult",
    "Services",
    "run",
    "Diagnostic",
    "validate",
    "__version__",
]
