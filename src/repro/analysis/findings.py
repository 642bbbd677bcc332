"""Shared finding / severity / report model for all analysis passes.

Every pass in :mod:`repro.analysis` — the driver conformance checker, the
compile-time GLUE query validator and the lint-rule registry — emits the
same :class:`Finding` shape, so one renderer (console tree view, CLI,
servlet) and one suppression mechanism (baseline files) serve all three.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One problem reported by an analysis pass.

    Attributes:
        rule_id: stable identifier ("GRM101"); the unit of suppression.
        severity: :class:`Severity` of the problem.
        message: human-readable one-liner.
        path: file (or pseudo-path like ``<query>``) the finding is in.
        line: 1-based line number; 0 when not applicable.
        symbol: the class/function/attribute the finding anchors to —
            used in baseline fingerprints so findings survive unrelated
            line-number drift.
    """

    rule_id: str
    severity: Severity
    message: str
    path: str = ""
    line: int = 0
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (no line numbers)."""
        return f"{self.rule_id}:{self.path}:{self.symbol or '-'}"

    def format(self) -> str:
        where = self.path
        if self.line:
            where += f":{self.line}"
        return f"[{self.severity.value}] {self.rule_id} {where}: {self.message}"


@dataclass
class AnalysisReport:
    """The outcome of one analysis run over any number of inputs."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sorted(self) -> list[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule_id, f.message)
        )

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def rule_ids(self) -> list[str]:
        return sorted({f.rule_id for f in self.findings})

    def apply_baseline(self, fingerprints: Iterable[str]) -> "AnalysisReport":
        """A copy of this report with baselined findings removed.

        ``fingerprints`` holds :attr:`Finding.fingerprint` strings from a
        baseline file; matching findings are counted in ``suppressed``
        rather than reported, so a legacy codebase can adopt a rule
        without fixing historical violations first.
        """
        known = set(fingerprints)
        kept = [f for f in self.findings if f.fingerprint not in known]
        return replace(
            self,
            findings=kept,
            suppressed=self.suppressed + (len(self.findings) - len(kept)),
        )
