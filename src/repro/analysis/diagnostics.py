"""Diagnostics and the lint-rule registry.

A :class:`Diagnostic` is one structured finding: a rule id (``RVP001`` ...),
a severity, the offending pc (or ``None`` for whole-procedure findings), the
procedure name, and a human-readable message.  Rules register themselves with
the :func:`rule` decorator; :func:`registered_rules` is the catalog the
verifier iterates and the CLI prints.

This module deliberately imports nothing from :mod:`repro.compiler` so that
compiler modules can depend on it without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Severity(enum.Enum):
    """Severity ladder; only ERROR diagnostics fail verification."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __lt__(self, other: "Severity") -> bool:  # ERROR sorts first
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        return order[self] < order[other]


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One structured lint finding."""

    rule: str
    severity: Severity
    pc: Optional[int]
    procedure: str
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        where = f"pc {self.pc}" if self.pc is not None else "-"
        return f"{self.severity.value.upper():7s} {self.rule} [{self.procedure}:{where}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "pc": self.pc,
            "procedure": self.procedure,
            "message": self.message,
        }


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry for one registered rule."""

    rule_id: str
    severity: Severity
    description: str
    check: Callable  # fn(ctx) -> Iterable[Diagnostic]


#: rule id -> RuleInfo, in registration order.
_REGISTRY: Dict[str, RuleInfo] = {}


def rule(rule_id: str, severity: Severity, description: str):
    """Register a verifier rule: ``@rule("RVP001", Severity.ERROR, "...")``.

    The decorated function receives a verification context and yields
    :class:`Diagnostic` records.  ``severity`` is the rule's *default*
    severity; a rule may emit individual diagnostics at a different level
    (e.g. possibly-undefined-on-some-path downgraded to WARNING).
    """

    def decorate(fn: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = RuleInfo(rule_id, severity, description, fn)
        return fn

    return decorate


def registered_rules() -> Tuple[RuleInfo, ...]:
    """All registered rules in registration order."""
    return tuple(_REGISTRY.values())


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def summarize(diagnostics: Sequence[Diagnostic]) -> Dict[str, int]:
    """Counts by severity value (always includes all three keys)."""
    counts = {sev.value: 0 for sev in Severity}
    for diag in diagnostics:
        counts[diag.severity.value] += 1
    return counts


class VerificationError(RuntimeError):
    """A compiler pass produced a program with error-severity diagnostics."""

    def __init__(self, source: str, diagnostics: Sequence[Diagnostic]) -> None:
        self.source = source
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.is_error]
        lines = "\n".join(f"  {d.render()}" for d in errors[:10])
        more = f"\n  ... and {len(errors) - 10} more" if len(errors) > 10 else ""
        super().__init__(f"{source}: {len(errors)} verification error(s)\n{lines}{more}")
