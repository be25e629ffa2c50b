"""The CLI's analysis pipeline, called layer by layer through public APIs.

``run_program`` makes the six calls ``repro predict``/``check`` make --
compile, prepare, predict, check, block frequencies, render -- and
returns the rendered text plus every deterministic count the layers
expose.  With a :class:`~perfbench.common.Spans` recorder each call gets
its own span; without one the calls run bare.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from perfbench.common import PERF_CACHES, Spans

#: Span name of each layer call -> the per-layer time metric it feeds.
LAYER_SPANS = {
    "lang.compile": "lang.compile_ms",
    "ir.prepare": "ir.prepare_ms",
    "core.predict": "core.predict_ms",
    "diagnostics.check": "diagnostics.check_ms",
    "analysis.frequency": "analysis.frequency_ms",
    "rendering.render": "rendering.render_ms",
}

def _call(spans: Optional[Spans], name: str, fn, *args, **kwargs):
    if spans is None:
        return fn(*args, **kwargs)
    with spans.span(name):
        return fn(*args, **kwargs)


class ProgramResult(NamedTuple):
    """What one pass over one program produced."""

    predict_text: str
    check_text: str
    check_exit: int
    counts: Dict[str, int]
    perf: Dict[str, Dict[str, float]]
    branches: Dict[Tuple[str, str], float]


def run_program(source: str, program: str, spans: Optional[Spans] = None,
                op: Optional[int] = None) -> ProgramResult:
    """Run the six layer calls on ``source``; ``program`` names it in reports."""
    from repro import rendering
    from repro.analysis import propagate_frequencies
    from repro.core import VRPPredictor, perf
    from repro.diagnostics import check_module, render_text
    from repro.ir import Phi, Pi, prepare_module
    from repro.lang import compile_source

    def frequencies(module, prediction):
        for name, function in module.functions.items():
            propagate_frequencies(function, prediction.functions[name].branch_probability)

    def render(prediction):
        return rendering.branch_table(
            prediction.all_branches(), prediction.heuristic_branches())

    def check(module, prediction):
        report = check_module(module, prediction, program=program)
        return report, render_text(report) + "\n"

    with spans.span("program", op=op) if spans is not None else nullcontext():
        module = _call(spans, "lang.compile", compile_source, source)
        ir_instrs = module.instruction_count()
        ssa_infos = _call(spans, "ir.prepare", prepare_module, module)
        prediction = _call(spans, "core.predict", VRPPredictor().predict_module,
                           module, ssa_infos)
        perf_stats = perf.snapshot()
        report, check_text = _call(spans, "diagnostics.check", check, module, prediction)
        _call(spans, "analysis.frequency", frequencies, module, prediction)
        predict_text = _call(spans, "rendering.render", render, prediction)

    phis = pis = 0
    for function in module.functions.values():
        for block in function.blocks.values():
            for instr in block.instructions:
                phis += isinstance(instr, Phi)
                pis += isinstance(instr, Pi)
    c = prediction.counters
    branches = prediction.all_branches()
    counts = {
        "lang.ir_instrs": ir_instrs,
        "ir.ssa_instrs": module.instruction_count(),
        "ir.phis": phis,
        "ir.pis": pis,
        "core.expr_evaluations": c.expr_evaluations,
        "core.phi_evaluations": c.phi_evaluations,
        "core.sub_operations": c.sub_operations,
        "core.flow_edges": c.flow_edges_processed,
        "core.ssa_edges": c.ssa_edges_processed,
        "core.worklist_pushes": c.flow_pushes + c.ssa_pushes,
        "core.dedup_hits": c.flow_dedup_hits + c.ssa_dedup_hits,
        "core.derivations_attempted": c.derivations_attempted,
        "core.derivations_succeeded": c.derivations_succeeded,
        "core.interproc_rounds": prediction.rounds,
        "heuristics.branches": len(branches),
        "heuristics.fallbacks": len(prediction.heuristic_branches()),
        "diagnostics.findings": len(report.findings),
    }
    return ProgramResult(
        predict_text, check_text, 1 if report.fails("error") else 0,
        counts, perf_stats, branches,
    )


class Totals:
    """Counts and perf-cache statistics summed over many programs."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.perf = {name: [0, 0, 0] for name in PERF_CACHES}

    def add(self, result: ProgramResult) -> None:
        for key, value in result.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        for name, stats in result.perf.items():
            if name in self.perf:
                row = self.perf[name]
                row[0] += int(stats["hits"])
                row[1] += int(stats["misses"])
                row[2] += int(stats["evictions"])

    def fingerprint(self) -> tuple:
        """Every count, for exact-repeat checks between passes."""
        return (tuple(sorted(self.counts.items())),
                tuple(sorted((k, tuple(v)) for k, v in self.perf.items())))

    def layer_metrics(self) -> Dict[str, float]:
        """The count-type per-layer metrics (whole-pass totals and ratios)."""
        c = self.counts
        out: Dict[str, float] = {
            key: float(c[key]) for key in (
                "lang.ir_instrs", "ir.ssa_instrs", "ir.phis", "ir.pis",
                "core.expr_evaluations", "core.phi_evaluations",
                "core.sub_operations", "core.flow_edges", "core.ssa_edges",
                "core.worklist_pushes", "core.interproc_rounds",
                "diagnostics.findings",
            )
        }
        requests = c["core.worklist_pushes"] + c["core.dedup_hits"]
        out["core.dedup_ratio"] = c["core.dedup_hits"] / requests if requests else 0.0
        attempted = c["core.derivations_attempted"]
        out["core.derivation_success_ratio"] = (
            c["core.derivations_succeeded"] / attempted if attempted else 0.0)
        branches = c["heuristics.branches"]
        out["heuristics.fallback_ratio"] = (
            c["heuristics.fallbacks"] / branches if branches else 0.0)
        for name, (hits, misses, evictions) in self.perf.items():
            total = hits + misses
            out[f"perf.{name}.hit_ratio"] = hits / total if total else 0.0
            out[f"perf.{name}.evictions"] = float(evictions)
        return out


def within10_pct(programs: Sequence[Tuple[Dict[Tuple[str, str], float], list]]) -> float:
    """The Figure 7/8 number: % of executed branches predicted within 10 points.

    ``programs`` pairs each suite program's predictions with its recorded
    ref-input profile (rows ``[function, label, taken, not_taken]`` from
    the profiling interpreter).  Scored as :mod:`repro.evalharness` scores
    the suite: per program, branches weighted by execution count with
    errors strictly below 10 points (:func:`error_cdf`), then every
    program weighted equally (:func:`average_cdfs`).
    """
    from repro.evalharness.accuracy import average_cdfs, branch_errors, error_cdf
    from repro.profiling import BranchProfile

    cdfs = []
    for branches, rows in programs:
        truth = BranchProfile()
        for function, label, taken, not_taken in rows:
            truth.branch_counts[(function, label)] = [taken, not_taken]
        cdfs.append(error_cdf(branch_errors(branches, truth), thresholds=[10], weighted=True))
    return average_cdfs(cdfs)[0]
