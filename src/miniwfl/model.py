"""Typed document model: tools, workflows, parameters, clauses.

Instances are frozen dataclasses; a parsed document is never mutated, so
documents can be shared freely across threads.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Union

from .errors import TypeSyntaxError

IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

BASE_TYPES = ("File", "Directory", "string", "int", "float", "boolean", "null")

SUPPORTED_VERSIONS = ("v1.0", "v1.1", "v1.2")

# Canonical clause kinds; anything else parses as an Extension clause.
CLAUSE_CONTAINER = "Container"
CLAUSE_RESOURCE = "Resource"
CLAUSE_ENV = "EnvVars"
CLAUSE_INITIAL_WORKDIR = "InitialWorkDir"
CLAUSE_WORK_REUSE = "WorkReuse"
CLAUSE_EXTENSION = "Extension"

KNOWN_CLAUSE_KINDS = (
    CLAUSE_CONTAINER,
    CLAUSE_RESOURCE,
    CLAUSE_ENV,
    CLAUSE_INITIAL_WORKDIR,
    CLAUSE_WORK_REUSE,
)

# Document-syntax clause class names -> canonical kinds.
CLAUSE_CLASS_MAP = {
    "DockerRequirement": CLAUSE_CONTAINER,
    "ResourceRequirement": CLAUSE_RESOURCE,
    "EnvVarRequirement": CLAUSE_ENV,
    "InitialWorkDirRequirement": CLAUSE_INITIAL_WORKDIR,
    "WorkReuse": CLAUSE_WORK_REUSE,
}


@dataclass(frozen=True)
class DataType:
    """Base type, at most one array level, optional marker."""

    base: str
    array: bool = False
    optional: bool = False

    @staticmethod
    def parse(text: str) -> "DataType":
        """Parse ``base``, ``base[]``, ``base?``, ``base[]?``."""
        s = text.strip()
        optional = False
        array = False
        if s.endswith("?"):
            optional = True
            s = s[:-1]
        if s.endswith("[]"):
            array = True
            s = s[:-2]
        if s not in BASE_TYPES:
            raise TypeSyntaxError(f"unparseable type: {text!r}")
        return DataType(base=s, array=array, optional=optional)

    def to_string(self) -> str:
        s = self.base
        if self.array:
            s += "[]"
        if self.optional:
            s += "?"
        return s

    def element(self) -> "DataType":
        return DataType(self.base, False, self.optional)


@dataclass(frozen=True)
class Clause:
    """One requirement or hint; ``payload`` is kind-specific."""

    kind: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InputParameter:
    id: str
    type: DataType
    position: Optional[int] = None
    prefix: Optional[str] = None
    default: Any = None
    format: Optional[str] = None
    streamable: bool = False


@dataclass(frozen=True)
class OutputParameter:
    id: str
    type: DataType
    glob: Optional[str] = None
    output_source: Optional[str] = None
    capture: Optional[str] = None  # "stdout" | "stderr"
    format: Optional[str] = None


@dataclass(frozen=True)
class ToolDescription:
    base_command: tuple
    inputs: tuple
    outputs: tuple
    requirements: tuple = ()
    hints: tuple = ()
    stdin: Optional[str] = None
    stdout: Optional[str] = None
    stderr: Optional[str] = None
    success_codes: frozenset = frozenset({0})

    def input_map(self) -> dict:
        return {p.id: p for p in self.inputs}

    def output_map(self) -> dict:
        return {p.id: p for p in self.outputs}

    @cached_property  # once per tool, which a node and its shards share
    def streams(self) -> dict:
        """The file in the outdir each named or captured stream goes to."""
        names = {"stdout": self.stdout, "stderr": self.stderr}
        captured = {out.capture for out in self.outputs}
        return {k: v or f"{k}.log" for k, v in names.items() if v or k in captured}


@dataclass(frozen=True)
class Step:
    id: str
    run: Union[str, "Document"]
    in_map: tuple = ()  # tuple of (input-id, Binding)
    scatter: tuple = ()
    when: Optional[str] = None
    requirements: tuple = ()
    hints: tuple = ()


@dataclass(frozen=True)
class Binding:
    """Step input binding: a source reference or a literal value."""

    source: Optional[str] = None
    value: Any = None
    is_literal: bool = False


@dataclass(frozen=True)
class WorkflowDescription:
    inputs: tuple
    outputs: tuple
    steps: tuple

    def step_map(self) -> dict:
        return {s.id: s for s in self.steps}

    def input_map(self) -> dict:
        return {p.id: p for p in self.inputs}

    def output_map(self) -> dict:
        return {p.id: p for p in self.outputs}


@dataclass(frozen=True)
class Document:
    version: str
    body: Union[ToolDescription, WorkflowDescription]
    extensions: tuple = ()  # tuple of (namespaced key, raw value)
    metadata: tuple = ()  # tuple of (key, str) for label/doc/author

    @property
    def is_tool(self) -> bool:
        return isinstance(self.body, ToolDescription)

    @property
    def is_workflow(self) -> bool:
        return isinstance(self.body, WorkflowDescription)


# The minimum of each Resource key that a machine bounds, when not declared.
RESOURCE_DEFAULTS = {"coresMin": 1, "ramMin": 256, "diskMin": 0}


@dataclass(frozen=True)
class Machine:
    """The capacity that validation checks and scheduling admits against."""

    cores: int = field(default_factory=lambda: os.cpu_count() or 1)
    ram_mib: int = 8192
    disk_mib: int = 65536

    def __post_init__(self):
        if min(self.capacity.values()) <= 0:
            raise ValueError("machine capacities must be positive")

    @cached_property  # read at every admission
    def capacity(self) -> dict:
        """The capacity under each Resource key of RESOURCE_DEFAULTS."""
        return {"coresMin": self.cores, "ramMin": self.ram_mib,
                "diskMin": self.disk_mib}


def is_identifier(s: str) -> bool:
    return bool(IDENT_RE.match(s))
