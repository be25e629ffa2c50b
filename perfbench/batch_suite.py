"""Workload ``batch-suite``: the pipeline over a corpus in one long-lived process.

A closed loop with one thread.  Each program goes through the six layer
calls of :func:`perfbench.pipeline.run_program`.  Imports are paid once
and not timed, so propagation dominates: phi-merge, worklist and
perf-layer (memo/intern) changes show here, cold-start work does not.

The run is a series of rounds.  Each round clears the perf layer's
caches, warms them on a small synthetic corpus that is disjoint from the
timed one (not timed), then times one pass over the 31 suite programs
plus seeded size-scaled synthetic programs, in a seeded order.  Every
timed program is new to the caches of its round, so the memo caches see
the sharing real corpora have rather than replays, and every round does
the same work: its counts must repeat exactly, which the run checks.
"""

from __future__ import annotations

import json
import random
import resource
import time
from statistics import median
from typing import Dict, List, Tuple

from perfbench import corpus
from perfbench.common import (
    END_TO_END, FIXTURES, PER_LAYER, ROOT, WORK_DIR, BenchmarkError, Spans,
    percentile,
)
from perfbench.pipeline import LAYER_SPANS, Totals, run_program, within10_pct

WARMUP_UNITS = (1, 2, 3, 4)
TIMED_UNITS = (1, 2, 3, 4, 6, 8)


def build_corpus(seed: int) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """(warm-up sources, timed ``(kind, name, source)`` in run order)."""
    rng = random.Random(f"batch-{seed}")
    warmup = [corpus.synthetic_variant(units, rng) for units in WARMUP_UNITS]
    timed = [("suite", name, source) for name, source in corpus.suite_programs()]
    timed += [("synthetic", f"synthetic{units}", corpus.synthetic_variant(units, rng))
              for units in TIMED_UNITS]
    if len({source for _, _, source in timed} | set(warmup)) != len(timed) + len(warmup):
        raise BenchmarkError("warm-up and timed corpora overlap")
    rng.shuffle(timed)
    return warmup, timed


def run(seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    import repro.analysis  # noqa: F401 -- the layers' imports are part of set-up
    import repro.diagnostics  # noqa: F401
    import repro.rendering  # noqa: F401
    from repro.core import perf

    fixtures = json.loads((FIXTURES / "cli_outputs.json").read_text())
    profiles = json.loads((FIXTURES / "ref_profiles.json").read_text())
    seed_counts = {
        row[0]: tuple(row[1:]) for row in json.loads(
            (ROOT / "benchmarks" / "seed_work_counts.json").read_text())["workloads"]
    }
    warmup, timed = build_corpus(seed)
    load_s = time.perf_counter() - started

    spans = Spans() if trace else None
    warm_s: List[float] = []
    latencies: List[float] = []
    round_s: Dict[bool, List[float]] = {True: [], False: []}
    mismatches: List[str] = []
    failed = attempted = 0
    first_round = None
    scored = []
    loop_started = time.perf_counter()
    while time.perf_counter() - loop_started < seconds or (trace and len(warm_s) < 2):
        perf.reset()
        t0 = time.perf_counter()
        for source in warmup:
            run_program(source, "warmup")
        warm_s.append(time.perf_counter() - t0)
        # Traced runs alternate traced and untraced rounds; the difference
        # between them is the tracing overhead.
        traced = trace and len(warm_s) % 2 == 1
        recorder = spans if traced else None
        totals = Totals()
        outputs = []
        round_ms = 0.0
        for kind, name, source in timed:
            program = str(corpus.suite_path(name).relative_to(ROOT)) if kind == "suite" else name
            t0 = time.perf_counter()
            result = run_program(source, program, recorder, op=attempted)
            latencies.append((time.perf_counter() - t0) * 1000)
            round_ms += latencies[-1]
            attempted += 1
            totals.add(result)
            outputs.append((result.predict_text, result.check_text, result.check_exit))
            wrong = []
            if kind == "suite":
                want = fixtures[program]
                if (result.predict_text != want["predict"]["stdout"]
                        or result.check_text != want["check"]["stdout"]
                        or result.check_exit != want["check"]["exit"]):
                    wrong.append(f"{name}: rendered output differs from the CLI fixture")
                counts = (result.counts["ir.ssa_instrs"],
                          result.counts["core.expr_evaluations"],
                          result.counts["core.sub_operations"])
                if counts != seed_counts[name]:
                    wrong.append(f"{name}: work counts {counts} != seed {seed_counts[name]}")
                if first_round is None:
                    scored.append((result.branches, profiles[name]))
            failed += bool(wrong)
            mismatches += wrong
        round_s[traced].append(round_ms / 1000)
        this_round = (totals.fingerprint(), outputs)
        if first_round is None:
            first_round = (this_round, totals)
        elif this_round != first_round[0]:
            failed += 1
            mismatches.append(f"round {len(warm_s)}: counts or outputs differ from round 1")

    info = {"rounds": len(warm_s), "programs_per_round": len(timed)}
    if not trace:
        timed_s = sum(round_s[False])
        metrics = {
            "setup_s": load_s + median(warm_s),
            "p50_ms": percentile(latencies, 0.50),
            "p90_ms": percentile(latencies, 0.90),
            "throughput_per_s": len(latencies) / timed_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {"metrics": metrics, "catalogue": END_TO_END, "attempted": attempted,
                "failed": failed, "mismatches": mismatches, "info": info,
                "samples": {"p50_ms": len(latencies), "p90_ms": len(latencies)}}

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(first_round[1].layer_metrics())
    for span, metric in LAYER_SPANS.items():
        metrics[metric] = spans.mean_self_ms(span)
    metrics["quality.within10_pct"] = within10_pct(scored)
    metrics["failed_ratio"] = failed / attempted
    metrics["trace.overhead_pct"] = 100 * (
        median(round_s[True]) / median(round_s[False]) - 1)
    spans.dump(WORK_DIR / f"trace-batch-suite-seed{seed}.json")
    return {"metrics": metrics, "catalogue": PER_LAYER, "attempted": attempted,
            "failed": failed, "mismatches": mismatches, "info": info, "samples": {}}
