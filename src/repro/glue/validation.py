"""GLUE row validation.

Used by tests and by the gateway's historical store to assert that what a
driver returned actually conforms to the naming schema before it is
recorded or consolidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.glue.schema import GlueGroup

#: GLUE type keyword -> predicate over Python values.  Shared with the
#: compile-time query validator (:mod:`repro.analysis.query_check`),
#: which collapses the numeric types into one comparability class.
TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "TEXT": lambda v: isinstance(v, str),
    "INTEGER": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "REAL": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "BOOLEAN": lambda v: isinstance(v, bool),
    "TIMESTAMP": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

@dataclass(frozen=True)
class ValidationIssue:
    """One schema-conformance problem in a row."""

    field: str
    kind: str  # "missing" | "unknown" | "type"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.field}: {self.kind} ({self.detail})"


def validate_row(group: GlueGroup, row: Mapping[str, Any]) -> list[ValidationIssue]:
    """Check one row against a group definition.

    NULL (None) is always acceptable — it is the schema's explicit
    "untranslatable" marker — so only present, wrongly typed values and
    structural mismatches are reported.
    """
    issues: list[ValidationIssue] = []
    field_names = set(group.field_names())
    for name in row:
        if name not in field_names:
            issues.append(
                ValidationIssue(field=name, kind="unknown", detail="not in group")
            )
    for fdef in group.fields:
        if fdef.name not in row:
            issues.append(
                ValidationIssue(field=fdef.name, kind="missing", detail="absent")
            )
            continue
        value = row[fdef.name]
        if value is None:
            continue
        check = TYPE_CHECKS[fdef.type]
        if not check(value):
            issues.append(
                ValidationIssue(
                    field=fdef.name,
                    kind="type",
                    detail=f"expected {fdef.type}, got {type(value).__name__}",
                )
            )
    return issues
