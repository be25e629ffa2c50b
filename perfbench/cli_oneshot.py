"""Workload ``cli-oneshot``: one user, one fresh ``repro`` process per call.

A closed loop with one client: each call is ``python -m repro predict
FILE`` or ``python -m repro check FILE``, started after the previous one
exits.  Interpreter start and ``import repro.cli`` are most of every
call, so cold-start, lazy-import and frequency-solver work shows here
and a propagation speed-up shows almost nothing.

The call sequence is a seeded draw, stratified by position.  Of every
``PATTERN`` (20) calls, four run the large synthetic program, one a
syntax error, one the 700-deep ``if`` nest, and the rest an example or
suite program, dealt from a seeded shuffled deck so that a run calls
each of them about equally often; every fourth call is a ``check``.
A run makes whole patterns only: it stops at the first pattern
boundary after ``--seconds``.  So every run has exactly the same mix
of classes, and the known deep-nest failure is exactly one call in 20
whatever the run's length.  The large program's share puts the 90th
percentile in the middle of its calls (the slowest class), not on the
edge between two classes, where it would jump with every seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench import corpus
from perfbench.common import (
    CLI_DIR, END_TO_END, FIXTURES, PER_LAYER, ROOT, WORK_DIR, BenchmarkError, Spans,
    percentile,
)
from perfbench.pipeline import LAYER_SPANS, Totals, run_program, within10_pct

SETUPS = 5
#: Calls per stratified pattern; a run makes whole patterns.
PATTERN = 20
#: Length of the serve-mixed schedule the traced run also serves.
SERVE_SECONDS = 30
MALFORMED_VARIANTS = 8


class Call:
    """One finished CLI process."""

    __slots__ = ("stdout", "stderr", "exit_code", "ms", "rss_mb")

    def __init__(self, stdout, stderr, exit_code, ms, rss_mb):
        self.stdout = stdout
        self.stderr = stderr
        self.exit_code = exit_code
        self.ms = ms
        self.rss_mb = rss_mb


def run_process(argv: List[str]) -> Call:
    """Run one child to completion; its own max RSS comes from wait4."""
    out_path = CLI_DIR / "stdout.txt"
    err_path = CLI_DIR / "stderr.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        proc.returncode, elapsed * 1000, usage.ru_maxrss / 1024,
    )


def run_cli(command: str, path: str) -> Call:
    return run_process([sys.executable, "-m", "repro", command, path])


def fixed_files() -> List[str]:
    """The inputs with recorded outputs: examples, suite, the large program."""
    from repro.evalharness import synthetic_program

    suite = corpus.export_suite()
    large = CLI_DIR / f"synthetic{corpus.LARGE_UNITS}.toy"
    large.write_text(synthetic_program(corpus.LARGE_UNITS), encoding="utf-8")
    return list(corpus.EXAMPLES) + suite + [str(large.relative_to(ROOT))]


class Corpus:
    """The files of one run and what each must print."""

    def __init__(self, seed: int):
        self.fixtures = json.loads((FIXTURES / "cli_outputs.json").read_text())
        files = fixed_files()
        if sorted(files) != sorted(self.fixtures):
            raise BenchmarkError("cli fixtures do not match the corpus; re-record them")
        self.small = files[:-1]
        self.large = files[-1]
        rng = random.Random(f"cli-malformed-{seed}")
        sources = [source for _, source in corpus.suite_programs()]
        #: path -> the error message the front end must print.
        self.malformed: Dict[str, str] = {}
        for index in range(MALFORMED_VARIANTS):
            broken, message = corpus.syntax_error(rng, sources)
            path = CLI_DIR / f"malformed{index}.toy"
            path.write_text(broken, encoding="utf-8")
            self.malformed[str(path.relative_to(ROOT))] = message
        deep = CLI_DIR / "deep_nest.toy"
        deep.write_text(corpus.deep_nest(), encoding="utf-8")
        self.deep = str(deep.relative_to(ROOT))

    def schedule(self, seed: int):
        """The endless seeded call sequence: ``(command, path, kind)``."""
        rng = random.Random(f"cli-schedule-{seed}")
        malformed = sorted(self.malformed)
        deck: List[str] = []
        index = 0
        while True:
            command = "check" if index % 4 == 3 else "predict"
            slot = index % PATTERN
            if slot % 5 == 2:
                yield command, self.large, "fixture"
            elif slot == 5:
                yield command, rng.choice(malformed), "malformed"
            elif slot == 15:
                yield command, self.deep, "deep"
            else:
                if not deck:
                    deck = list(self.small)
                    rng.shuffle(deck)
                yield command, deck.pop(), "fixture"
            index += 1

    def verdict(self, command: str, path: str, kind: str, call: Call) -> Tuple[bool, Optional[str]]:
        """``(failed, mismatch)`` for one call.

        A mismatch is wrong output; it fails the run.  A traceback or an
        unstructured error on the deep nest is a failure but not a
        mismatch: it is the ROADMAP's known ``RecursionError`` defect.
        """
        traceback = "Traceback (most recent call last)" in call.stderr
        if kind == "fixture":
            want = self.fixtures[path][command]
            if call.stdout != want["stdout"] or call.exit_code != want["exit"] or traceback:
                return True, f"{command} {path}: exit {call.exit_code}, output differs from fixture"
            return False, None
        if kind == "malformed":
            want = f"error: {self.malformed[path]}\n"
            if call.exit_code != 1 or call.stdout or call.stderr != want:
                return True, f"{command} {path}: expected {want.strip()!r}, got exit {call.exit_code}"
            return False, None
        structured = call.exit_code == 0 or (
            call.exit_code == 1 and call.stderr.startswith("error:")
            and call.stderr.count("\n") <= 1)
        return traceback or not structured, None


def _layer_metrics(corpus_: Corpus, calls: List[Tuple[str, str, str]],
                   spans: Spans) -> Dict[str, float]:
    """Per-layer numbers from running the same inputs inside this process."""
    from repro import cli
    from repro.core import perf

    profiles = json.loads((FIXTURES / "ref_profiles.json").read_text())
    totals = Totals()
    scored = []
    for op, path in enumerate(corpus_.fixtures, start=len(calls)):
        perf.reset()
        result = run_program((ROOT / path).read_text(), path, spans, op=op)
        totals.add(result)
        name = Path(path).stem
        if name in profiles and "/suite/" in path:
            scored.append((result.branches, profiles[name]))
    out = totals.layer_metrics()
    for span, metric in LAYER_SPANS.items():
        out[metric] = spans.mean_self_ms(span)
    out["quality.within10_pct"] = within10_pct(scored)

    # The calls of the run, replayed through the CLI entry point in-process.
    replay_ms = []
    for command, path, kind in calls:
        if kind == "deep":
            continue
        perf.reset()
        started = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main([command, path])
            except SystemExit:
                pass
        replay_ms.append((time.perf_counter() - started) * 1000)
    out["cli.analysis_ms"] = sum(replay_ms) / len(replay_ms) if replay_ms else 0.0

    bare = [run_process([sys.executable, "-c", "pass"]).ms for _ in range(5)]
    imported = [run_process([sys.executable, "-c", "import repro.cli"]).ms for _ in range(5)]
    out["cli.interp_start_ms"] = median(bare)
    out["cli.import_ms"] = median(imported) - median(bare)
    probe = run_process([sys.executable, "-c",
                         "import sys, repro.cli; print(len(sys.modules), 'numpy' in sys.modules)"])
    loaded, numpy_loaded = probe.stdout.split()
    out["cli.modules_loaded"] = float(loaded)
    out["cli.numpy_loaded"] = 1.0 if numpy_loaded == "True" else 0.0
    return out


def run(seed: int, seconds: int, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        corpus_ = Corpus(seed)
        warm = run_cli("predict", corpus.EXAMPLES[0])
        setups.append(time.perf_counter() - started)
        if warm.stdout != corpus_.fixtures[corpus.EXAMPLES[0]]["predict"]["stdout"]:
            raise BenchmarkError("warm-up call printed the wrong table")

    spans = Spans() if trace else None
    calls: List[Tuple[str, str, str]] = []
    latencies: List[float] = []
    rss: List[float] = []
    failed = 0
    mismatches: List[str] = []
    schedule = corpus_.schedule(seed)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(calls) % PATTERN:
        command, path, kind = next(schedule)
        call = run_cli(command, path)
        if spans is not None:
            end = time.perf_counter()
            spans.add("cli.call", end - call.ms / 1000, end, op=len(calls))
        calls.append((command, path, kind))
        latencies.append(call.ms)
        rss.append(call.rss_mb)
        call_failed, mismatch = corpus_.verdict(command, path, kind, call)
        failed += call_failed
        if mismatch:
            mismatches.append(mismatch)

    counts = {kind: sum(1 for _, _, k in calls if k == kind)
              for kind in ("fixture", "malformed", "deep")}
    info = {"calls": counts, "failed_is_known_defect": "700-deep if nest: RecursionError traceback"}
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "p50_ms": percentile(latencies, 0.50),
            "p90_ms": percentile(latencies, 0.90),
            # One client calls back to back: calls per second of calling.
            "throughput_per_s": len(latencies) / (sum(latencies) / 1000),
            "peak_rss_mb": max(rss),
        }
        return {"metrics": metrics, "catalogue": END_TO_END,
                "attempted": len(calls), "failed": failed, "mismatches": mismatches,
                "info": info, "samples": {"p50_ms": len(latencies), "p90_ms": len(latencies)}}

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics["trace.overhead_pct"] = 100 * Spans.cost_s(len(spans.records)) / (sum(latencies) / 1000)
    metrics.update(_layer_metrics(corpus_, calls, spans))
    spans.dump(WORK_DIR / f"trace-cli-oneshot-seed{seed}.json")

    # The serving layers: the serve-mixed schedule against the sharded
    # server, after the CLI calls (serve-mixed is not a workload of its own
    # in BENCHMARK.json, see README.md).  The schedule is a fixed
    # SERVE_SECONDS long, so the traced run stays well inside its time
    # limit whatever --seconds is.
    from perfbench import serve_mixed

    served = serve_mixed.run(seed, SERVE_SECONDS, True)
    for name, value in served["metrics"].items():
        if name.startswith(("server.", "incremental.", "serve.")):
            metrics[name] = value
    info["serve"] = served["info"]
    attempted = len(calls) + served["attempted"]
    failed += served["failed"]
    metrics["failed_ratio"] = failed / attempted
    return {"metrics": metrics, "catalogue": PER_LAYER, "attempted": attempted,
            "failed": failed, "mismatches": mismatches + served["mismatches"],
            "info": info, "samples": {}}
