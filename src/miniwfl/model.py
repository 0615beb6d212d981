"""Typed document model: tools, workflows, parameters, clauses.

Instances are frozen records (see Record); a parsed document is never
mutated, so documents can be shared freely across threads.
"""

from __future__ import annotations

import operator
import os
import re
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

# Document-syntax clause class names -> canonical kinds.
CLAUSE_CLASS_MAP = {
    "DockerRequirement": CLAUSE_CONTAINER,
    "ResourceRequirement": CLAUSE_RESOURCE,
    "EnvVarRequirement": CLAUSE_ENV,
    "InitialWorkDirRequirement": CLAUSE_INITIAL_WORKDIR,
    "WorkReuse": CLAUSE_WORK_REUSE,
}
KNOWN_CLAUSE_KINDS = tuple(CLAUSE_CLASS_MAP.values())

_MISSING = object()  # a field without a default


class field:  # noqa: N801 - a record field, as dataclasses.field
    def __init__(self, default=_MISSING, default_factory=None, compare=True):
        self.default, self.compare = default, compare
        self.factory = default_factory  # called for each new record


class Record:
    """The engine's records, built of closures: no code is generated.  Each
    annotated class attribute is a field (see ``fields``), its value, plain
    or a ``field``, the default.  A class keyword ``frozen=False`` allows
    assignment; ``eq=False`` compares by identity, not by compared fields."""

    fields = {}  # name -> field, in order, the base's first

    def __init_subclass__(cls, frozen=True, eq=True):
        cls.fields = fields = {**cls.fields, **{
            name: spec if isinstance(spec, field) else field(spec)
            for name in cls.__dict__.get("__annotations__", ())
            for spec in [cls.__dict__.get(name, _MISSING)]}}
        order, post_init = tuple(fields), getattr(cls, "__post_init__", None)
        template = {n: f.default for n, f in fields.items()}
        unset = [(n, f.factory) for n, f in fields.items()
                 if f.default is _MISSING]

        def __init__(self, *args, **kwargs):
            values = self.__dict__
            values.update(template)  # every field, in order, as dataclasses
            values.update(zip(order, args))
            values.update(kwargs)
            if len(values) > len(order) or len(args) > len(order) or (
                    args and kwargs and
                    not kwargs.keys().isdisjoint(order[:len(args)])):
                raise TypeError(f"{cls.__name__}() got surplus arguments")
            for name, factory in unset:
                if values[name] is _MISSING:
                    if not factory:
                        raise TypeError(f"{cls.__name__}() lacks {name!r}")
                    values[name] = factory()
            if post_init:
                post_init(self)

        cls.__init__ = __init__
        cls._key = operator.attrgetter(
            *(name for name, f in fields.items() if f.compare))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def _refuse(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.fields) + ")"


def replace(record, **changes):
    """A new record of ``record``'s class, with ``changes`` to its fields."""
    return record.__class__(**{**{name: getattr(record, name)
                                  for name in record.fields}, **changes})


class DataType(Record):
    """Base type, at most one array level, optional marker."""

    base: str
    array: bool = False
    optional: bool = False

    @staticmethod
    def parse(text: str) -> "DataType":
        """Parse ``base``, ``base[]``, ``base?``, ``base[]?``."""
        s = text.strip()
        optional, s = s.endswith("?"), s.removesuffix("?")
        array, s = s.endswith("[]"), s.removesuffix("[]")
        if s not in BASE_TYPES:
            raise TypeSyntaxError(f"unparseable type: {text!r}")
        return DataType(base=s, array=array, optional=optional)

    def to_string(self) -> str:
        return self.base + "[]" * self.array + "?" * self.optional

    def element(self) -> "DataType":
        return DataType(self.base, False, self.optional)


class Clause(Record):
    """One requirement or hint; ``payload`` is kind-specific."""

    kind: str
    payload: dict = field(default_factory=dict)


class InputParameter(Record):
    id: str
    type: DataType
    position: Optional[int] = None
    prefix: Optional[str] = None
    default: Any = None
    format: Optional[str] = None
    streamable: bool = False


class OutputParameter(Record):
    id: str
    type: DataType
    glob: Optional[str] = None
    output_source: Optional[str] = None
    capture: Optional[str] = None  # "stdout" | "stderr"
    format: Optional[str] = None


class _Ports:  # of a tool or a workflow
    def input_map(self) -> dict:
        return {p.id: p for p in self.inputs}

    def output_map(self) -> dict:
        return {p.id: p for p in self.outputs}


class ToolDescription(_Ports, Record):
    base_command: tuple
    inputs: tuple
    outputs: tuple
    requirements: tuple = ()
    hints: tuple = ()
    stdin: Optional[str] = None
    stdout: Optional[str] = None
    stderr: Optional[str] = None
    success_codes: frozenset = frozenset({0})

    @cached_property  # once per tool, which a node and its shards share
    def streams(self) -> dict:
        """The file in the outdir each named or captured stream goes to."""
        names = {"stdout": self.stdout, "stderr": self.stderr}
        captured = {out.capture for out in self.outputs}
        return {k: v or f"{k}.log" for k, v in names.items() if v or k in captured}


class Step(Record):
    id: str
    run: Union[str, "Document"]
    in_map: tuple = ()  # tuple of (input-id, Binding)
    scatter: tuple = ()
    when: Optional[str] = None
    requirements: tuple = ()
    hints: tuple = ()


class Binding(Record):
    """Step input binding: a source reference or a literal value."""

    source: Optional[str] = None
    value: Any = None
    is_literal: bool = False


class WorkflowDescription(_Ports, Record):
    inputs: tuple
    outputs: tuple
    steps: tuple

    def step_map(self) -> dict:
        return {s.id: s for s in self.steps}


class Document(Record):
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


class Machine(Record):
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
