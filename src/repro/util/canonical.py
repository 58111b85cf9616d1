"""The one spelling of the canonical JSON every byte-identity contract
rests on: sorted keys, no whitespace."""

from __future__ import annotations

import json

__all__ = ["canonical_document", "canonical_json"]


def canonical_json(obj) -> str:
    """One canonical line, no trailing newline (JSON-lines records)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_document(obj) -> str:
    """A whole canonical document: one trailing newline."""
    return canonical_json(obj) + "\n"
