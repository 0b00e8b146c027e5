"""Shared finding record + report formatting for the analysis layers.

Every analysis layer (wave verifier, happens-before checker, lint pass,
flow-sensitive lock-discipline analysis) reports through
the same :class:`Finding` record so the CLI, the CI job and the mutation
self-tests can treat them uniformly: a run is clean iff its finding list
is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One violation reported by an analysis layer.

    Attributes
    ----------
    rule:
        Stable rule identifier (``WAVE0xx`` for the wave verifier,
        ``HB0xx`` for the happens-before checker, ``REP1xx`` for lint,
        ``REP2xx`` for the flow analysis — ``REP210-211`` lock
        discipline, ``REP290`` contained analyzer errors).
    where:
        Location: ``path:line`` for lint, a buffer/task description for
        the wave verifier, a rank/event description for the HB checker.
    message:
        Human-readable description of the violation, including the
        offending identifiers (task ids, ranks, byte ranges).
    details:
        Machine-readable extras (task indices, waves, element ranges),
        for tests that assert on precision of the report.
    """

    rule: str
    where: str
    message: str
    details: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return f"{self.where}: {self.rule} {self.message}"


def format_findings(findings: list[Finding], header: str | None = None) -> str:
    """Render findings one per line, with an optional summary header."""
    lines = []
    if header is not None:
        lines.append(f"{header}: {len(findings)} finding(s)")
    lines.extend(str(f) for f in findings)
    return "\n".join(lines)
