"""Unit tests for native-to-GLUE mapping and unit conversion."""

import dataclasses

import pytest

from repro.glue.mapping import (
    _UNIT_FACTORS,
    GroupMapping,
    MappingRule,
    SchemaMapping,
    UnitConversionError,
    convert_unit,
)
from repro.glue.schema import STANDARD_SCHEMA, GlueField, GlueGroup


class TestConvertUnit:
    @pytest.mark.parametrize(
        "value,frm,to,expected",
        [
            (1024, "KB", "MB", 1.0),
            (1, "GB", "MB", 1024.0),
            (2_000_000, "Hz", "MHz", 2.0),
            (1.5, "GHz", "MHz", 1500.0),
            (10_000_000, "bps", "Mbps", 10.0),
            (500, "ms", "s", 0.5),
            (0.5, "fraction", "percent", 50.0),
            (2, "min", "s", 120.0),
        ],
    )
    def test_conversions(self, value, frm, to, expected):
        assert convert_unit(value, frm, to) == pytest.approx(expected)

    def test_identity_when_same(self):
        assert convert_unit(5.0, "MB", "MB") == 5.0

    def test_identity_when_blank(self):
        assert convert_unit(5.0, "", "MB") == 5.0
        assert convert_unit(5.0, "MB", "") == 5.0

    def test_unknown_pair_raises(self):
        with pytest.raises(UnitConversionError):
            convert_unit(1.0, "furlongs", "MB")

    def test_round_trip(self):
        assert convert_unit(convert_unit(7.0, "MB", "KB"), "KB", "MB") == pytest.approx(7.0)


class TestMappingRule:
    GROUP = STANDARD_SCHEMA.group("MainMemory")

    def test_basic_mapping_with_unit_conversion(self):
        rule = MappingRule("RAMSizeMB", "memTotal", unit="KB")
        assert rule.apply({"memTotal": 2048}, self.GROUP) == pytest.approx(2.0)

    def test_missing_key_yields_default_none(self):
        rule = MappingRule("RAMSizeMB", "absent")
        assert rule.apply({}, self.GROUP) is None

    def test_explicit_default(self):
        rule = MappingRule("RAMSizeMB", "absent", default=0.0)
        assert rule.apply({}, self.GROUP) == 0.0

    def test_transform_applied_before_conversion(self):
        rule = MappingRule("RAMSizeMB", "raw", unit="KB", transform=lambda v: float(v) * 2)
        assert rule.apply({"raw": "512"}, self.GROUP) == pytest.approx(1.0)

    def test_transform_failure_yields_null(self):
        rule = MappingRule("RAMSizeMB", "raw", transform=lambda v: float(v))
        assert rule.apply({"raw": "garbage"}, self.GROUP) is None

    def test_record_level_rule(self):
        host_group = STANDARD_SCHEMA.group("Host")
        rule = MappingRule("UniqueId", None, transform=lambda r: f"{r['h']}#x")
        assert rule.apply({"h": "n0"}, host_group) == "n0#x"

    def test_integer_coercion(self):
        proc = STANDARD_SCHEMA.group("Processor")
        rule = MappingRule("CPUCount", "ncpu")
        assert rule.apply({"ncpu": "4"}, proc) == 4
        assert isinstance(rule.apply({"ncpu": "4"}, proc), int)

    def test_boolean_string_coercion(self):
        host_group = STANDARD_SCHEMA.group("Host")
        rule = MappingRule("Reachable", "alive")
        assert rule.apply({"alive": "yes"}, host_group) is True
        assert rule.apply({"alive": "0"}, host_group) is False

    def test_text_coercion(self):
        proc = STANDARD_SCHEMA.group("Processor")
        rule = MappingRule("Vendor", "v")
        assert rule.apply({"v": 123}, proc) == "123"

    #: (rule, record, group name): every record the tests above translate.
    CASES = [
        (MappingRule("RAMSizeMB", "memTotal", unit="KB"), {"memTotal": 2048}, "MainMemory"),
        (MappingRule("RAMSizeMB", "absent"), {}, "MainMemory"),
        (MappingRule("RAMSizeMB", "absent", default=0.0), {}, "MainMemory"),
        (
            MappingRule("RAMSizeMB", "raw", unit="KB", transform=lambda v: float(v) * 2),
            {"raw": "512"},
            "MainMemory",
        ),
        (MappingRule("RAMSizeMB", "raw", transform=float), {"raw": "garbage"}, "MainMemory"),
        (MappingRule("UniqueId", None, transform=lambda r: f"{r['h']}#x"), {"h": "n0"}, "Host"),
        (MappingRule("CPUCount", "ncpu"), {"ncpu": "4"}, "Processor"),
        (MappingRule("Reachable", "alive"), {"alive": "yes"}, "Host"),
        (MappingRule("Reachable", "alive"), {"alive": "0"}, "Host"),
        (MappingRule("Vendor", "v"), {"v": 123}, "Processor"),
        (MappingRule("RAMSizeMB", "m", unit="furlongs"), {"m": 1}, "MainMemory"),
        (MappingRule("NoSuchField", "m"), {"m": 1}, "MainMemory"),
    ]

    @pytest.mark.parametrize("rule,record,group", CASES)
    def test_apply_is_the_compiled_builder(self, rule, record, group):
        target = STANDARD_SCHEMA.group(group)
        assert rule.apply(record, target) == rule.compile(target)(record)
        assert type(rule.apply(record, target)) is type(rule.compile(target)(record))


class TestCompiledUnits:
    """``compile`` resolves a rule's unit conversion once: identity, one
    factor, or unconvertible (every numeric value NULL)."""

    @pytest.mark.parametrize("ftype", ["REAL", "INTEGER", "TIMESTAMP"])
    def test_factor_values_equal_convert_unit(self, ftype):
        for frm, to in _UNIT_FACTORS:
            group = GlueGroup("G", (GlueField("f", ftype, to),))
            build = MappingRule("f", "v", unit=frm).compile(group)
            for value in (0, 1, 3, 2048, 1.5, -7.25, 1e300, "12.5", float("inf")):
                expected = convert_unit(float(value), frm, to)
                if ftype == "INTEGER":
                    if expected in (float("inf"), float("-inf")):
                        continue
                    expected = int(expected)
                got = build({"v": value})
                assert got == expected and type(got) is type(expected), (frm, to, value)

    @pytest.mark.parametrize("frm, to", [("", "MB"), ("MB", ""), ("MB", "MB"), ("", "")])
    def test_identity(self, frm, to):
        group = GlueGroup("G", (GlueField("f", "REAL", to),))
        build = MappingRule("f", "v", unit=frm).compile(group)
        assert build({"v": 3}) == 3.0
        assert build({"v": "x"}) is None

    def test_unconvertible_units_give_null(self):
        build = MappingRule("f", "v", unit="furlongs").compile(
            GlueGroup("G", (GlueField("f", "REAL", "MB"),))
        )
        assert build({"v": 3}) is None
        assert build({"v": True}) is True  # a bool skips the numeric path, as before
        assert build({}) is None


class TestRulesAreValues:
    """Bugfix: ``row_builders`` caches on the rule tuple, so an in-place
    edit of a rule used to leave the old conversion compiled."""

    def test_in_place_edit_raises(self):
        rule = MappingRule("RAMSizeMB", "mem_total", unit="KB")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.unit = "MB"

    def test_replacing_a_rule_rebuilds_the_builders(self):
        rule = MappingRule("RAMSizeMB", "mem_total", unit="KB")
        gm = GroupMapping("MainMemory", [rule])
        sm = SchemaMapping("d", [gm])
        assert sm.translate("MainMemory", [{"mem_total": 2048}], STANDARD_SCHEMA)[0][
            "RAMSizeMB"
        ] == 2.0
        gm.rules[0] = dataclasses.replace(rule, unit="MB")
        assert sm.translate("MainMemory", [{"mem_total": 2048}], STANDARD_SCHEMA)[0][
            "RAMSizeMB"
        ] == 2048.0

    def test_an_equal_rule_list_keeps_the_builders(self):
        gm = GroupMapping("MainMemory", [MappingRule("RAMSizeMB", "mem_total", unit="KB")])
        builders = gm.row_builders(STANDARD_SCHEMA)
        gm.rules = [MappingRule("RAMSizeMB", "mem_total", unit="KB")]
        assert gm.row_builders(STANDARD_SCHEMA) is builders


class TestGroupMapping:
    def test_translate_fills_all_fields(self):
        gm = GroupMapping("MainMemory", [MappingRule("RAMSizeMB", "total", unit="KB")])
        row = gm.translate({"total": 1024}, STANDARD_SCHEMA)
        group = STANDARD_SCHEMA.group("MainMemory")
        assert set(row) == set(group.field_names())
        assert row["RAMSizeMB"] == 1.0
        assert row["RAMAvailableMB"] is None  # unmapped -> NULL (§3.2.3)

    def test_coverage(self):
        gm = GroupMapping("Host", [MappingRule("HostName", "h")])
        cov = gm.coverage(STANDARD_SCHEMA)
        assert 0 < cov < 1

    def test_rule_for(self):
        rule = MappingRule("HostName", "h")
        gm = GroupMapping("Host", [rule])
        assert gm.rule_for("HostName") is rule
        assert gm.rule_for("SiteName") is None


class TestSchemaMapping:
    def test_duplicate_group_rejected(self):
        with pytest.raises(ValueError):
            SchemaMapping("d", [GroupMapping("Host"), GroupMapping("Host")])

    def test_supports_and_groups(self):
        sm = SchemaMapping("d", [GroupMapping("Host"), GroupMapping("Processor")])
        assert sm.supports("Host")
        assert not sm.supports("Job")
        assert sm.groups() == ["Host", "Processor"]

    def test_unknown_group_raises(self):
        sm = SchemaMapping("d")
        with pytest.raises(KeyError):
            sm.group_mapping("Host")

    def test_translate_batch(self):
        sm = SchemaMapping("d", [GroupMapping("Host", [MappingRule("HostName", "h")])])
        rows = sm.translate("Host", [{"h": "a"}, {"h": "b"}], STANDARD_SCHEMA)
        assert [r["HostName"] for r in rows] == ["a", "b"]

    def test_translate_is_a_view_over_translate_rows(self):
        gm = GroupMapping("Host", [MappingRule("HostName", "h")])
        sm = SchemaMapping("d", [gm])
        records = [{"h": "a"}, {"x": 1}]
        names = STANDARD_SCHEMA.group("Host").field_names()
        slot_rows = sm.translate_rows("Host", records, STANDARD_SCHEMA)
        assert sm.translate("Host", records, STANDARD_SCHEMA) == [
            dict(zip(names, row)) for row in slot_rows
        ]
        assert gm.translate(records[0], STANDARD_SCHEMA) == dict(zip(names, slot_rows[0]))
