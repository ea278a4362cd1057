"""Shared diagnostics core for the ``repro.lint`` analyzer.

Rule codes are **stable identifiers**: once published in ``docs/lint.md``
a code never changes meaning, so CI gates, SARIF consumers and counter
dashboards can key on them.  Program rules use ``RL1xx``, plan rules
``RL2xx``.  Severities follow the usual three-level scheme:

* ``error`` — the artifact is wrong or cannot run; ``repro lint`` exits
  1 and the evaluation engine rejects the plan;
* ``warning`` — suspicious but runnable (dead writes, wasteful tiles);
* ``info`` — a noteworthy fact the user may want to know.

No heavy imports here: the module is shared by the DSL frontend, the
tuning engine's hot prescreen path and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..dsl.ast import SourceSpan

ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

#: Severity -> SARIF 2.1.0 ``level``.
SARIF_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str  # stable "RLxxx" identifier
    name: str  # short kebab-case slug, e.g. "in-place-race"
    severity: str  # default severity of findings
    summary: str  # one-line description for catalogs and SARIF

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


#: code -> Rule; populated by :func:`rule` at import time.
RULES: Dict[str, Rule] = {}


def rule(code: str, name: str, severity: str, summary: str) -> Rule:
    """Register a rule under its stable code (idempotent per code)."""
    if code in RULES:
        return RULES[code]
    entry = Rule(code=code, name=name, severity=severity, summary=summary)
    RULES[code] = entry
    return entry


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at a source position."""

    rule: Rule
    message: str
    span: Optional[SourceSpan] = None
    #: what was linted — a file path, benchmark name, or plan description.
    artifact: str = "<dsl>"
    #: counterexample for RL3xx refutations (a
    #: :class:`repro.lint.dependence.Witness`); duck-typed here so the
    #: diagnostics core keeps its no-heavy-imports guarantee.
    witness: Optional[object] = None

    @property
    def code(self) -> str:
        return self.rule.code

    @property
    def severity(self) -> str:
        return self.rule.severity

    def location(self) -> str:
        if self.span is not None and self.span.line:
            return f"{self.artifact}:{self.span.line}:{self.span.col}"
        return self.artifact

    def render(self) -> str:
        """``path:line:col: RLxxx severity: message`` (one line)."""
        return (
            f"{self.location()}: {self.code} {self.severity}: {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "code": self.code,
            "rule": self.rule.name,
            "severity": self.severity,
            "message": self.message,
            "artifact": self.artifact,
        }
        if self.span is not None and self.span.line:
            out["line"] = self.span.line
            out["col"] = self.span.col
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        return out


_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass
class LintReport:
    """All findings for one artifact (or one aggregated run)."""

    diagnostics: Tuple[Diagnostic, ...] = ()
    artifact: str = "<dsl>"

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def codes(self) -> Tuple[str, ...]:
        """Distinct rule codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def sorted(self) -> "LintReport":
        """Findings ordered by severity, then source position."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (
                _SEVERITY_ORDER.get(d.severity, 3),
                d.span.line if d.span else 1 << 30,
                d.span.col if d.span else 0,
                d.code,
            ),
        )
        return LintReport(tuple(ordered), artifact=self.artifact)

    def merge(self, other: "LintReport") -> "LintReport":
        return LintReport(
            self.diagnostics + tuple(other.diagnostics),
            artifact=self.artifact,
        )

    def render(self) -> str:
        return "\n".join(d.render() for d in self.sorted())

    def as_dict(self) -> Dict[str, object]:
        counts = {severity: 0 for severity in SEVERITIES}
        for d in self.diagnostics:
            counts[d.severity] = counts.get(d.severity, 0) + 1
        return {
            "artifact": self.artifact,
            "counts": counts,
            "diagnostics": [d.as_dict() for d in self.sorted()],
        }

    def publish(self, prefix: str = "lint") -> None:
        """Mirror per-rule finding counts into the metrics registry."""
        from ..obs import counter, metrics_enabled

        if not metrics_enabled() or not self.diagnostics:
            return
        for d in self.diagnostics:
            counter(f"{prefix}.finding.{d.code}").add()
