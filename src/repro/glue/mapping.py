"""Native-to-GLUE mapping.

Each driver owns a :class:`SchemaMapping`: for every GLUE group it can
serve, a list of :class:`MappingRule` instances saying which native key
feeds which GLUE field and how to convert it (unit scaling, parsing,
custom transforms).  Fields with no rule — or whose rule fails — come out
NULL, which is the paper's prescribed behaviour for untranslatable data
(§3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.glue.schema import GlueGroup, GlueSchema


class UnitConversionError(ValueError):
    """No conversion path between the given units."""


#: (from_unit, to_unit) -> multiplicative factor.  Units not listed are
#: either identical or unconvertible.
_UNIT_FACTORS: dict[tuple[str, str], float] = {
    ("B", "MB"): 1.0 / (1024 * 1024),
    ("KB", "MB"): 1.0 / 1024,
    ("GB", "MB"): 1024.0,
    ("MB", "B"): 1024.0 * 1024,
    ("MB", "KB"): 1024.0,
    ("MB", "GB"): 1.0 / 1024,
    ("KB", "B"): 1024.0,
    ("B", "KB"): 1.0 / 1024,
    ("Hz", "MHz"): 1e-6,
    ("KHz", "MHz"): 1e-3,
    ("GHz", "MHz"): 1e3,
    ("MHz", "GHz"): 1e-3,
    ("MHz", "Hz"): 1e6,
    ("bps", "Mbps"): 1e-6,
    ("Kbps", "Mbps"): 1e-3,
    ("Gbps", "Mbps"): 1e3,
    ("Mbps", "bps"): 1e6,
    ("ms", "s"): 1e-3,
    ("us", "s"): 1e-6,
    ("s", "ms"): 1e3,
    ("min", "s"): 60.0,
    ("hour", "s"): 3600.0,
    ("fraction", "percent"): 100.0,
    ("percent", "fraction"): 0.01,
}


def unit_factor(from_unit: str, to_unit: str) -> float | None:
    """The factor converting ``from_unit`` to ``to_unit``; None for the
    identity (units match or either is blank)."""
    if from_unit == to_unit or not from_unit or not to_unit:
        return None
    factor = _UNIT_FACTORS.get((from_unit, to_unit))
    if factor is None:
        raise UnitConversionError(f"no conversion {from_unit!r} -> {to_unit!r}")
    return factor


@dataclass(frozen=True)
class MappingRule:
    """How one GLUE field is produced from a native record.

    A rule is an immutable value: to change a mapping, put a new rule in
    its group's ``rules`` (``dataclasses.replace`` makes one), and the
    group's compiled builders are rebuilt on next use.

    Attributes:
        glue_field: target GLUE field name.
        native_key: key in the native record; None for transform-only rules.
        unit: unit of the native value; converted to the GLUE field's
            canonical unit automatically when both are known.
        transform: optional callable applied to the raw native value (or,
            when ``native_key`` is None, to the whole record).
        default: value used when the native key is absent (left None to
            signal "not translatable").
    """

    glue_field: str
    native_key: Optional[str] = None
    unit: str = ""
    transform: Optional[Callable[[Any], Any]] = None
    default: Any = None

    def compile(self, target: "GlueGroup") -> Callable[[Mapping[str, Any]], Any]:
        """The conversion closure for this rule with ``target`` prebound.

        The field definition lookup (a linear scan), the type dispatch
        and the unit conversion (identity, a factor from the table, or
        none, which makes every numeric value None) are resolved here,
        once, instead of once per record — the hot translation loop then
        runs pure closures.
        """
        native_key = self.native_key
        transform = self.transform
        default = self.default
        try:
            fdef = target.field(self.glue_field)
        except KeyError:
            fdef = None
        ftype = fdef.type if fdef is not None else None
        numeric_type = ftype in ("REAL", "INTEGER", "TIMESTAMP")
        factor: float | None = None
        convertible = True
        if fdef is not None:
            try:
                factor = unit_factor(self.unit, fdef.unit)
            except UnitConversionError:
                convertible = False

        def build(record: Mapping[str, Any]) -> Any:
            if native_key is not None:
                if native_key not in record:
                    return default
                raw: Any = record[native_key]
            else:
                raw = record
            try:
                if transform is not None:
                    raw = transform(raw)
                if raw is None:
                    return default
                if fdef is None:
                    # The target group has no such field: untranslatable.
                    return None
                if numeric_type and not isinstance(raw, bool):
                    numeric = float(raw)
                    if factor is not None:
                        numeric = numeric * factor
                    elif not convertible:
                        return None
                    return int(numeric) if ftype == "INTEGER" else numeric
                if ftype == "BOOLEAN":
                    if isinstance(raw, str):
                        return raw.strip().lower() in ("true", "t", "yes", "1", "on")
                    return bool(raw)
                return str(raw) if ftype == "TEXT" else raw
            except (TypeError, ValueError, KeyError):
                # "drivers can return null values, indicating a translation
                # was either not possible or currently not implemented"
                return None

        return build


@dataclass
class GroupMapping:
    """All rules producing one GLUE group from one native record shape."""

    group: str
    rules: list[MappingRule] = field(default_factory=list)

    def row_builders(
        self, schema: GlueSchema
    ) -> list[Callable[[Mapping[str, Any]], Any]]:
        """One compiled value builder per group field, in field order.

        ``[[b(record) for b in builders] for record in records]`` is a
        batch of positional GLUE rows; a field with no rule builds None.
        Builders are cached; the cache is discarded when the target
        group object or the rule list changes (rules are immutable, so
        an equal rule list compiles to equal builders).
        """
        target = schema.group(self.group)
        cached = getattr(self, "_builders_cache", None)
        if (
            cached is not None
            and cached[0] is target
            and cached[1] == tuple(self.rules)
        ):
            builders: list[Callable[[Mapping[str, Any]], Any]] = cached[2]
            return builders
        by_field = {r.glue_field: r for r in self.rules}
        builders = []
        for fdef in target.fields:
            rule = by_field.get(fdef.name)
            if rule is None:
                builders.append(lambda record: None)
            else:
                builders.append(rule.compile(target))
        self._builders_cache = (target, tuple(self.rules), builders)
        return builders


class SchemaMapping:
    """A driver's complete GLUE implementation: group name -> rules.

    Drivers fetch this from the ``SchemaManager`` when a connection is
    created and consult it per-statement (paper Figure 5).
    """

    def __init__(self, driver_name: str, groups: Iterable[GroupMapping] = ()) -> None:
        self.driver_name = driver_name
        self._groups: dict[str, GroupMapping] = {}
        for g in groups:
            self.add(g)

    def add(self, mapping: GroupMapping) -> None:
        if mapping.group in self._groups:
            raise ValueError(
                f"duplicate mapping for group {mapping.group!r} in "
                f"{self.driver_name!r}"
            )
        self._groups[mapping.group] = mapping

    def supports(self, group: str) -> bool:
        return group in self._groups

    def group_mapping(self, group: str) -> GroupMapping:
        m = self._groups.get(group)
        if m is None:
            raise KeyError(
                f"driver {self.driver_name!r} has no mapping for group {group!r}"
            )
        return m

    def groups(self) -> list[str]:
        return sorted(self._groups)

    def translate(
        self, group: str, records: Iterable[Mapping[str, Any]], schema: GlueSchema
    ) -> list[dict[str, Any]]:
        """Translate a batch of native records into GLUE rows."""
        rows = self.translate_rows(group, records, schema)
        names = schema.group(group).field_names()
        return [dict(zip(names, row)) for row in rows]

    def translate_rows(
        self, group: str, records: Iterable[Mapping[str, Any]], schema: GlueSchema
    ) -> list[list[Any]]:
        """Translate a batch into positional GLUE rows (group field
        order) — the zero-copy shape compiled plans bind against."""
        builders = self.group_mapping(group).row_builders(schema)
        return [[b(r) for b in builders] for r in records]
