"""Static analysis for the GridRM reproduction.

Three passes over one shared finding/severity/reporting model
(:mod:`repro.analysis.findings`):

* **driver conformance** (:mod:`repro.analysis.conformance`) — AST
  inspection + introspection of driver plug-ins against the DDK contract
  (paper §3.2.1): required ``hello``/``exchange`` signatures, no I/O
  outside the DDK's one site, only SQLException-family exceptions
  escaping entry points, virtual-clock and simnet discipline;
* **compile-time GLUE query validation**
  (:mod:`repro.analysis.query_check`) — parsed SELECTs checked against
  the GLUE naming schema (§3.2.3) so unknown groups/attributes and
  type-incompatible predicates are rejected before any driver dispatch;
* **project-invariant lint** (:mod:`repro.analysis.rules` +
  :mod:`repro.analysis.linter`) — a pluggable rule registry with
  baseline suppression, exposed as ``python -m repro lint`` and the
  gateway ``analyze`` API;
* **determinism sanitizer** (:mod:`repro.analysis.determinism` — the
  GRM50x static rule family guarding replay identity — and
  :mod:`repro.analysis.races` — the virtual-lane race detector
  reporting GRM55x findings from unordered ``ConcurrentScope``
  branches touching shared mutable state).
"""

# Imported for the side effect of registering their lint rules.
from repro.analysis import determinism as determinism  # noqa: F401
from repro.analysis import races as races  # noqa: F401
from repro.analysis.races import RaceDetector

from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.conformance import (
    check_driver,
    check_driver_class,
    check_module,
    check_source,
    clear_module_cache,
)
from repro.analysis.linter import (
    lint_paths,
    load_baseline,
    render_flat,
    render_tree,
    write_baseline,
)
from repro.analysis.query_check import (
    literal_compatible,
    validate_select,
    validate_sql,
)
from repro.analysis.rules import (
    LintRule,
    all_rules,
    register_rule,
    rule_table,
    rules_by_id,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Severity",
    "LintRule",
    "RaceDetector",
    "all_rules",
    "check_driver",
    "check_driver_class",
    "check_module",
    "check_source",
    "clear_module_cache",
    "lint_paths",
    "literal_compatible",
    "load_baseline",
    "register_rule",
    "render_flat",
    "render_tree",
    "rule_table",
    "rules_by_id",
    "validate_select",
    "validate_sql",
    "write_baseline",
]
