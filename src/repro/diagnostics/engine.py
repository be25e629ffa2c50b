"""Driving the diagnostics rules over a module and collecting a report.

The engine is a *consumer* of value range propagation: it runs the
predictor once (or accepts an existing :class:`ModulePrediction`) and
evaluates every rule against the converged results.  Findings flow into
the active tracer's event stream (kind ``diagnostic.finding``) so
``--trace`` sessions and ``--emit-metrics`` reports see them alongside
the engine's own events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import VRPConfig
from repro.core.interprocedural import ModulePrediction, analyse_module
from repro.diagnostics.findings import Finding, severity_rank
from repro.diagnostics.rules import all_findings, module_findings
from repro.ir import prepare_module
from repro.ir.function import Module
from repro.observability import tracer as tracing


@dataclass
class CheckReport:
    """All findings for one program, sorted most-severe first."""

    program: str
    findings: List[Finding] = field(default_factory=list)

    def by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def worst_severity(self) -> Optional[str]:
        return self.findings[0].severity if self.findings else None

    def fails(self, fail_on: str) -> bool:
        """Whether this report should fail a ``--fail-on`` gate."""
        if fail_on == "never":
            return False
        threshold = severity_rank(fail_on)
        return any(
            severity_rank(f.severity) <= threshold for f in self.findings
        )


def check_module(
    module: Module,
    prediction: ModulePrediction,
    program: str = "module",
) -> CheckReport:
    """Evaluate every diagnostics rule against an existing prediction."""
    tracer = tracing.active()
    trace = tracer if tracer.enabled else None
    findings: List[Finding] = []
    for name, function in module.functions.items():
        function_prediction = prediction.functions.get(name)
        if function_prediction is None:
            continue
        findings.extend(all_findings(function, function_prediction))
    findings.extend(module_findings(module))
    _attach_call_provenance(findings, prediction)
    findings.sort(key=Finding.sort_key)
    if trace is not None:
        from repro.observability.events import DiagnosticFinding

        for finding in findings:
            trace.emit(
                DiagnosticFinding(
                    function=finding.function,
                    rule=finding.rule,
                    severity=finding.severity,
                    block=finding.block,
                    line=finding.line,
                    message=finding.message,
                )
            )
    return CheckReport(program=program, findings=findings)


def _attach_call_provenance(
    findings: List[Finding], prediction: ModulePrediction
) -> None:
    """Cite the call sites a summary-dependent proof rests on.

    A rule that proved something about an SSA name records it under
    ``evidence["operand"]``.  When the interprocedural driver marked
    that name as summary-tainted, the proof transitively depends on
    jump/return functions -- so the finding gains a
    ``call_provenance`` evidence chain plus ``related`` locations (one
    per contributing call site) for the text/JSON/SARIF renderers.
    """
    taint = getattr(prediction, "summary_taint", None)
    if not taint:
        return
    for finding in findings:
        operand = finding.evidence.get("operand")
        if not operand:
            continue
        chain = prediction.provenance_chain(finding.function, operand)
        if not chain:
            continue
        finding.evidence["call_provenance"] = chain
        related: List[dict] = []
        seen = set()
        for source in chain:
            if source["kind"] == "param":
                what = (
                    f"parameter '{source['param']}' of {source['function']} "
                    f"is seeded by this call site (merged range "
                    f"{source['range']})"
                )
            else:
                what = (
                    f"call result from {source['callee']} flows here "
                    f"(return range {source['range']})"
                )
            for site in source.get("sites", ()):
                key = (site["function"], site["block"], what)
                if key in seen:
                    continue
                seen.add(key)
                related.append(
                    {
                        "function": site["function"],
                        "block": site["block"],
                        "line": site["line"],
                        "message": what,
                    }
                )
        finding.related.extend(related)


def check_source(
    source: str,
    config: Optional[VRPConfig] = None,
    program: str = "module",
) -> CheckReport:
    """Compile, analyse and check toy-language source in one call."""
    from repro.lang import compile_source

    module = compile_source(source, module_name=program)
    return check_prepared(module, config=config, program=program)


def check_prepared(
    module: Module,
    config: Optional[VRPConfig] = None,
    program: str = "module",
) -> CheckReport:
    """Prepare (SSA) and analyse a lowered module, then run the rules."""
    config = config or VRPConfig()
    tracer = tracing.active()
    trace = tracer if tracer.enabled else None
    if trace is not None:
        with trace.span("check"):
            ssa_infos = prepare_module(module)
            prediction = analyse_module(module, ssa_infos, config=config)
            return check_module(module, prediction, program=program)
    ssa_infos = prepare_module(module)
    prediction = analyse_module(module, ssa_infos, config=config)
    return check_module(module, prediction, program=program)
