"""Shared pieces of the benchmark: metric catalogue, statistics, spans, output.

Every workload reports the same end-to-end metrics, so each metric has
a reading per workload, and every traced run reports the same per-layer
metrics.  A layer that a workload does not measure reports 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes goes under here (git-ignored).
WORK_DIR = ROOT / ".perfbench_work"
#: Where the CLI workload writes its inputs; the CLI fixtures name the
#: suite programs by their paths under ``CLI_DIR / "suite"``.
CLI_DIR = WORK_DIR / "cli"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: The workloads of BENCHMARK.json.
WORKLOADS = ("cli-oneshot", "batch-suite")
#: Also runnable by hand; its latencies drift too much with the host to
#: bound (README.md), so the cli-oneshot traced run reports its layers.
ALL_WORKLOADS = WORKLOADS + ("serve-mixed",)

#: name -> (unit, better).  The bounds live in BENCHMARK.json only.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PERF_CACHES = (
    "intern_bound", "intern_range", "intern_rangeset", "from_ranges",
    "merge_weighted", "binop", "unop", "compare", "refine", "constant",
    "boolean", "engine_transfer", "summary_context",
)

#: name -> (unit, better, the end-to-end reading it should move).
PER_LAYER: Dict[str, tuple] = {
    "lang.compile_ms": ("ms", "lower", "batch p50_ms/throughput_per_s"),
    "lang.ir_instrs": ("count", "lower", "batch throughput_per_s"),
    "ir.prepare_ms": ("ms", "lower", "batch throughput_per_s"),
    "ir.ssa_instrs": ("count", "lower", "batch throughput_per_s"),
    "ir.phis": ("count", "lower", "batch throughput_per_s"),
    "ir.pis": ("count", "lower", "batch throughput_per_s"),
    "core.predict_ms": ("ms", "lower", "batch throughput_per_s, serve.cold_p50_ms"),
    "core.expr_evaluations": ("count", "lower", "batch throughput_per_s"),
    "core.phi_evaluations": ("count", "lower", "batch throughput_per_s"),
    "core.sub_operations": ("count", "lower", "batch throughput_per_s"),
    "core.flow_edges": ("count", "lower", "batch throughput_per_s"),
    "core.ssa_edges": ("count", "lower", "batch throughput_per_s"),
    "core.worklist_pushes": ("count", "lower", "batch throughput_per_s"),
    "core.dedup_ratio": ("ratio", "higher", "batch throughput_per_s"),
    "core.derivation_success_ratio": ("ratio", "higher", "batch throughput_per_s"),
    "core.interproc_rounds": ("count", "lower", "batch throughput_per_s"),
}
for _cache in PERF_CACHES:
    PER_LAYER[f"perf.{_cache}.hit_ratio"] = (
        "ratio", "higher", "batch throughput_per_s, batch peak_rss_mb")
    PER_LAYER[f"perf.{_cache}.evictions"] = (
        "count", "lower", "batch throughput_per_s, batch peak_rss_mb")
PER_LAYER.update({
    "heuristics.fallback_ratio": ("ratio", "lower", "quality.within10_pct"),
    "quality.within10_pct": ("%", "higher", "(Figure 7/8: weighted error < 10 points, programs equal)"),
    "diagnostics.check_ms": ("ms", "lower", "batch throughput_per_s"),
    "diagnostics.findings": ("count", "lower", "batch throughput_per_s"),
    "analysis.frequency_ms": ("ms", "lower", "batch throughput_per_s, cli p50_ms"),
    "rendering.render_ms": ("ms", "lower", "batch throughput_per_s"),
    "cli.interp_start_ms": ("ms", "lower", "cli p50_ms"),
    "cli.import_ms": ("ms", "lower", "cli p50_ms"),
    "cli.modules_loaded": ("count", "lower", "cli p50_ms, cli peak_rss_mb"),
    "cli.numpy_loaded": ("count", "lower", "cli p50_ms, cli peak_rss_mb"),
    "cli.analysis_ms": ("ms", "lower", "cli p50_ms"),
})
# The serving layers are measured by the cli-oneshot traced run, which also
# serves the serve-mixed schedule; their figures name the serve-mixed
# latencies (by class) they should move.
for _class in ("hot", "edit", "cold"):
    PER_LAYER[f"server.{_class}.service_ms"] = ("ms", "lower", f"serve.{_class}_p50_ms")
    PER_LAYER[f"server.{_class}.outside_service_ms"] = (
        "ms", "lower", "serve.hot_p99_ms" if _class == "hot" else f"serve.{_class}_p90_ms")
PER_LAYER.update({
    "server.cache.memory_hit_ratio": ("ratio", "higher", "serve.hot_p50_ms"),
    "server.cache.evictions": ("count", "lower", "serve.hot_p50_ms"),
    "server.hot_affinity_ratio": ("ratio", "higher", "serve.hot_p50_ms"),
    "server.queue.high_water": ("count", "lower", "serve.hot_p99_ms"),
    "server.shard_imbalance": ("ratio", "lower", "serve.hot_p99_ms"),
    "server.degraded": ("count", "lower", "serve.cold_p90_ms"),
    "server.gen_lag_p99_ms": ("ms", "lower", "(validates every serve number)"),
    "incremental.function_hit_ratio": ("ratio", "higher", "serve.edit_p50_ms"),
    "incremental.function_misses": ("count", "lower", "serve.edit_p50_ms"),
    "serve.hot_p50_ms": ("ms", "lower", "(serve-mixed hit latency)"),
    "serve.hot_p99_ms": ("ms", "lower", "(serve-mixed hit latency)"),
    "serve.edit_p50_ms": ("ms", "lower", "(serve-mixed edit latency)"),
    "serve.edit_p90_ms": ("ms", "lower", "(serve-mixed edit latency)"),
    "serve.cold_p50_ms": ("ms", "lower", "(serve-mixed cold latency)"),
    "serve.cold_p90_ms": ("ms", "lower", "(serve-mixed cold latency)"),
    "failed_ratio": ("ratio", "lower", "(every workload: attempted/failed)"),
    "trace.overhead_pct": ("%", "lower", "(5% observability budget)"),
})


class BenchmarkError(Exception):
    """The run cannot produce a result (missing sources, broken set-up)."""


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` at or below."""
    if not values:
        raise BenchmarkError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


# -- spans ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder for traced runs.

    Each record is ``[name, start, end, parent index, operation id]``;
    spans of one operation share the id.  Nothing is written until
    :meth:`dump`.  Untraced runs pass ``None`` instead of a recorder, so
    they pay for no bookkeeping at all.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.records[parent][4]
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: Optional[int],
            parent: Optional[int] = None) -> int:
        """Record a span timed elsewhere (another process, a callback)."""
        self.records.append([name, start, end, parent, op])
        return len(self.records) - 1

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's, in ms."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.records):
            out.setdefault(name, []).append((end - start - child_time[index]) * 1000)
        return out

    def mean_self_ms(self, name: str) -> float:
        values = self.self_times().get(name, [])
        return sum(values) / len(values) if values else 0.0

    @staticmethod
    def cost_s(count: int) -> float:
        """Seconds ``count`` spans cost this process, timed on a scratch recorder.

        Where spans wrap work done in other processes (a CLI child, a
        shard), this bookkeeping is the whole traced-minus-untraced
        difference.
        """
        scratch = Spans()
        trials = 20000
        started = time.perf_counter()
        for op in range(trials):
            with scratch.span("x", op=op):
                pass
        return (time.perf_counter() - started) / trials * count

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.records
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# -- run stamp and output ---------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over ``src/``: identifies the code when git is unavailable."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def stamp(workload: str, seed: int, seconds: int, trace: bool, **extra) -> dict:
    out = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    out.update(extra)
    return out


def check_root() -> None:
    """Fail fast unless run from a checkout that holds the analyser."""
    needed = [ROOT / "src" / "repro" / "cli.py", ROOT / "examples",
              ROOT / "benchmarks" / "seed_work_counts.json"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        raise BenchmarkError(
            "run from a checkout of the analyser; missing: " + ", ".join(missing)
        )


def emit(stamp_doc: dict, metrics: Dict[str, float], catalogue: Dict[str, tuple],
         attempted: int, failed: int, mismatches: List[str],
         samples: Dict[str, int]) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    print("# " + json.dumps({"stamp": stamp_doc}, sort_keys=True))
    for name in catalogue:
        unit = catalogue[name][0]
        note = f"  [{samples[name]} samples]" if name in samples else ""
        moves = catalogue[name][2] if len(catalogue[name]) > 2 else ""
        arrow = f"  -> {moves}" if moves else ""
        print(f"# {name:38s} {metrics[name]:>14.6g} {unit}{note}{arrow}")
    print(f"# attempted={attempted} failed={failed} "
          f"failed_ratio={ratio(failed, attempted):.6f} mismatches={len(mismatches)}")
    for line in mismatches[:20]:
        print(f"# MISMATCH {line}")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": catalogue[name][0]}
            for name in catalogue
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
