"""SchemaManager (paper §3.1.4).

Provides "mapping and translation services for data source drivers": a
gateway-wide GLUE schema instance plus per-driver mapping overrides.
Connections cache the mapping they fetch at creation time together with
the manager's version stamp; statements call back before each query to
check consistency (Figure 5), so an administrator updating a mapping at
runtime takes effect without restarting connections.
"""

from __future__ import annotations

from repro.glue.mapping import SchemaMapping
from repro.glue.schema import GlueSchema, standard_schema


class SchemaManager:
    """GLUE schema + per-driver mapping registry with version stamping."""

    def __init__(self, schema: GlueSchema | None = None) -> None:
        self.schema = schema if schema is not None else standard_schema()
        self._overrides: dict[str, SchemaMapping] = {}
        #: Bumped on every mapping change; connections compare against it.
        self.version = 1

    def mapping_for(
        self, driver_name: str, default: SchemaMapping | None = None
    ) -> SchemaMapping:
        """The mapping a driver should use: override if present, else the
        driver's built-in default."""
        override = self._overrides.get(driver_name)
        if override is not None:
            return override
        if default is None:
            raise KeyError(
                f"no mapping registered for driver {driver_name!r} and no default"
            )
        return default

    def set_mapping(self, driver_name: str, mapping: SchemaMapping) -> None:
        """Install/replace a driver's mapping; invalidates connection caches."""
        self._overrides[driver_name] = mapping
        self.version += 1

    def clear_mapping(self, driver_name: str) -> bool:
        """Drop an override, reverting the driver to its built-in mapping."""
        if driver_name in self._overrides:
            del self._overrides[driver_name]
            self.version += 1
            return True
        return False

    def overridden_drivers(self) -> list[str]:
        return sorted(self._overrides)

    def group_names(self) -> list[str]:
        return self.schema.group_names()
