"""GLUE naming schema substrate.

GridRM normalises all harvested data onto the GLUE schema (Grid Laboratory
Uniform Environment, paper §3.1.4/§3.2.3): GLUE "logically organises data
into groups" whose essence "can be directly compared to the tables of a
relational database", and clients SELECT from group names
(``SELECT * FROM Processor``).

This package defines the conceptual schema — groups, typed fields,
canonical units — plus the mapping machinery drivers use to translate
native agent records into GLUE rows, returning NULL where a translation
"was either not possible or currently not implemented" (§3.2.3).
"""

from repro.glue.schema import (
    GlueField,
    GlueGroup,
    GlueSchema,
    STANDARD_SCHEMA,
    standard_schema,
)
from repro.glue.mapping import (
    MappingRule,
    GroupMapping,
    SchemaMapping,
    UnitConversionError,
)
from repro.glue.validation import ValidationIssue, validate_row
from repro.glue.render import (
    schema_to_xml,
    rows_to_xml,
    xml_to_rows,
    rows_to_ldif,
    ldif_to_rows,
)

__all__ = [
    "GlueField",
    "GlueGroup",
    "GlueSchema",
    "STANDARD_SCHEMA",
    "standard_schema",
    "MappingRule",
    "GroupMapping",
    "SchemaMapping",
    "UnitConversionError",
    "ValidationIssue",
    "validate_row",
    "schema_to_xml",
    "rows_to_xml",
    "xml_to_rows",
    "rows_to_ldif",
    "ldif_to_rows",
]
