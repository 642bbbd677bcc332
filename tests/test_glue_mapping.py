"""Unit tests for native-to-GLUE mapping and unit conversion."""

import dataclasses

import pytest

from repro.glue.mapping import (
    _UNIT_FACTORS,
    GroupMapping,
    MappingRule,
    SchemaMapping,
    UnitConversionError,
    unit_factor,
)
from repro.glue.schema import STANDARD_SCHEMA, GlueField, GlueGroup


def convert_unit(value, frm, to):
    """``value`` in ``to`` by the factor the rule compiler reads
    (``glue.mapping.convert_unit`` is gone: every conversion is a factor
    compiled into a builder)."""
    factor = unit_factor(frm, to)
    return value if factor is None else value * factor


def apply(rule, record, group):
    """One record through the rule's compiled builder (what the deleted
    ``MappingRule.apply`` did)."""
    return rule.compile(group)(record)


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
        assert apply(rule, {"memTotal": 2048}, self.GROUP) == pytest.approx(2.0)

    def test_missing_key_yields_default_none(self):
        rule = MappingRule("RAMSizeMB", "absent")
        assert apply(rule, {}, self.GROUP) is None

    def test_explicit_default(self):
        rule = MappingRule("RAMSizeMB", "absent", default=0.0)
        assert apply(rule, {}, self.GROUP) == 0.0

    def test_transform_applied_before_conversion(self):
        rule = MappingRule("RAMSizeMB", "raw", unit="KB", transform=lambda v: float(v) * 2)
        assert apply(rule, {"raw": "512"}, self.GROUP) == pytest.approx(1.0)

    def test_transform_failure_yields_null(self):
        rule = MappingRule("RAMSizeMB", "raw", transform=lambda v: float(v))
        assert apply(rule, {"raw": "garbage"}, self.GROUP) is None

    def test_record_level_rule(self):
        host_group = STANDARD_SCHEMA.group("Host")
        rule = MappingRule("UniqueId", None, transform=lambda r: f"{r['h']}#x")
        assert apply(rule, {"h": "n0"}, host_group) == "n0#x"

    def test_integer_coercion(self):
        proc = STANDARD_SCHEMA.group("Processor")
        rule = MappingRule("CPUCount", "ncpu")
        assert apply(rule, {"ncpu": "4"}, proc) == 4
        assert isinstance(apply(rule, {"ncpu": "4"}, proc), int)

    def test_boolean_string_coercion(self):
        host_group = STANDARD_SCHEMA.group("Host")
        rule = MappingRule("Reachable", "alive")
        assert apply(rule, {"alive": "yes"}, host_group) is True
        assert apply(rule, {"alive": "0"}, host_group) is False

    def test_text_coercion(self):
        proc = STANDARD_SCHEMA.group("Processor")
        rule = MappingRule("Vendor", "v")
        assert apply(rule, {"v": 123}, proc) == "123"

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
        """The builder ``row_builders`` serves for a rule's field is the
        rule's compiled builder; a rule for a field the group lacks
        builds nothing, and every field without a rule is NULL."""
        target = STANDARD_SCHEMA.group(group)
        names = target.field_names()
        row = [b(record) for b in GroupMapping(group, [rule]).row_builders(STANDARD_SCHEMA)]
        want = rule.compile(target)(record)
        if rule.glue_field in names:
            got = row.pop(names.index(rule.glue_field))
            assert got == want and type(got) is type(want)
        else:
            assert want is None
        assert row == [None] * len(row)


class TestCompiledUnits:
    """``compile`` resolves a rule's unit conversion once: identity, one
    factor, or unconvertible (every numeric value NULL)."""

    @pytest.mark.parametrize("ftype", ["REAL", "INTEGER", "TIMESTAMP"])
    def test_factor_values_equal_convert_unit(self, ftype):
        for frm, to in _UNIT_FACTORS:
            group = GlueGroup("G", (GlueField("f", ftype, to),))
            build = MappingRule("f", "v", unit=frm).compile(group)
            for value in (0, 1, 3, 2048, 1.5, -7.25, 1e300, "12.5", float("inf")):
                expected = float(value) * _UNIT_FACTORS[frm, to]
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
    """``GroupMapping.translate`` / ``coverage`` / ``rule_for`` are gone
    (the per-record path the compiled row builders replaced); these ids
    check the same facts through ``SchemaMapping.translate`` and
    ``row_builders``."""

    def test_translate_fills_all_fields(self):
        gm = GroupMapping("MainMemory", [MappingRule("RAMSizeMB", "total", unit="KB")])
        [row] = SchemaMapping("d", [gm]).translate("MainMemory", [{"total": 1024}], STANDARD_SCHEMA)
        group = STANDARD_SCHEMA.group("MainMemory")
        assert set(row) == set(group.field_names())
        assert row["RAMSizeMB"] == 1.0
        assert row["RAMAvailableMB"] is None  # unmapped -> NULL (§3.2.3)

    def test_coverage(self):
        """One rule fills one of the group's fields; the rest are NULL."""
        gm = GroupMapping("Host", [MappingRule("HostName", "h")])
        row = [b({"h": "n0"}) for b in gm.row_builders(STANDARD_SCHEMA)]
        assert [v for v in row if v is not None] == ["n0"]
        assert len(row) == len(STANDARD_SCHEMA.group("Host").fields) > 1

    def test_rule_for(self):
        """A field's builder comes from the rule naming it."""
        gm = GroupMapping("Host", [MappingRule("HostName", "h")])
        names = STANDARD_SCHEMA.group("Host").field_names()
        builders = dict(zip(names, gm.row_builders(STANDARD_SCHEMA)))
        assert builders["HostName"]({"h": "n0"}) == "n0"
        assert builders["SiteName"]({"h": "n0"}) is None


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
        assert [b(records[0]) for b in gm.row_builders(STANDARD_SCHEMA)] == slot_rows[0]
