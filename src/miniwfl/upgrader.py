"""Version migration between dialect minor versions.

The dialect deltas are deliberately small: newer minor versions gate
features at parse time (conditional steps at v1.2, WorkReuse at v1.1)
rather than changing the meaning of older documents.  An upgrade therefore
rewrites ``cwlVersion`` in the plain-data form of a document and of the
documents inlined in it, and preserves run semantics.
"""

from __future__ import annotations

from .errors import DowngradeError, UnknownVersionError
from .model import SUPPORTED_VERSIONS, Document
from . import parser


def _index(version: str) -> int:
    try:
        return SUPPORTED_VERSIONS.index(version)
    except ValueError:
        raise UnknownVersionError(f"unknown version {version!r}") from None


def upgrade(doc: Document, target: str) -> Document:
    """Migrate a document to `target`; identity when already there."""
    plain = parser.to_plain(doc)
    if not _restamp(plain, target):
        return doc
    return parser.parse_raw(plain)


def _restamp(plain: dict, target: str) -> bool:
    """Stamp `target` on a plain document and on the documents inlined in
    it; False when the document is already at `target`."""
    version = plain["cwlVersion"]
    if _index(target) < _index(version):
        raise DowngradeError(f"cannot downgrade {version} document to {target}")
    if version == target:
        return False
    plain["cwlVersion"] = target
    for step in plain.get("steps", ()):
        if isinstance(step["run"], dict):
            _restamp(step["run"], target)
    return True
