"""Workload ``serve-mixed``: open-loop traffic against the sharded server.

The benchmark boots ``ShardedServer(shards=2, incremental=True)`` and a
separate generator process (:mod:`perfbench.loadgen`) sends a seeded
schedule at the fixed offered rate ``RATE`` -- one request due every
``1 / RATE`` seconds, whatever happened to earlier ones -- over at most
two connections.  Each request is timed from when it was due.

The mix follows the ``mixed`` workload of :mod:`repro.server.loadgen`,
which the repository documents as the realistic shape: half the
requests repeat a popular working set, half are novel.  The novel half
is split into the classes below; those shares are not taken from any
traffic record, they are chosen so that every class shows up often
enough in one run to be measured.  Every block of ``BLOCK`` requests
holds the mix exactly, in a seeded order:

* ``hot`` (50%): repeats of a fixed working set of 12 suite programs,
  cached in set-up -- the front end, routing and the result cache, and
  hits queueing behind compute;
* ``cold`` (30%): novel two-component programs, analysed in a shard;
* ``edit`` (10%): a one-function edit of a ``cold`` program sent at least
  two seconds earlier -- the only traffic that reaches the incremental
  store;
* ``check`` (5%): ``check`` requests on novel programs;
* ``malformed`` (2%), ``parse`` (1.5%), ``deep`` (1.5%): bad JSON,
  syntax errors and the 700-deep ``if`` nest.  The deep nest answers 500
  today (the ROADMAP's ``RecursionError`` defect) and counts as failed.

The end-to-end latencies are those of the requests that need analysis
(``cold``, ``edit``, ``check``): with half the traffic answered from
the cache in a few milliseconds, the median over all requests would
sit on the boundary between hits and compute and jump from run to run.
Hit latencies are per-layer metrics (``serve.hot_*``).

Every answer is checked after the run: each served output must equal
in-process :func:`repro.server.service.analyze_payload` on the same
request.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional

from perfbench import corpus
from perfbench.common import (
    END_TO_END, PER_LAYER, WORK_DIR, BenchmarkError, Spans, percentile, ratio,
)

#: Offered rate, requests per second: keeps the two shards about a tenth
#: busy (each run stamps ``shard_busy_share``).
RATE = 10.0
SHARDS = 2
SETUPS = 3
#: The hot working set: fixed, so set-up (which caches it) costs the same
#: for every seed; the seed decides which of them is requested when.
HOT_SET = ("conv2d", "fir", "gauss", "matmul", "poly", "stencil",
           "bitcount", "isort", "queens", "sieve", "unionfind", "inter_dispatch")
EDIT_MIN_AGE_S = 2.0
#: Requests per block of the schedule that holds the mix exactly.
BLOCK = 200
MIX = (("hot", 0.50), ("cold", 0.30), ("edit", 0.10), ("check", 0.05),
       ("malformed", 0.02), ("parse", 0.015), ("deep", 0.015))
#: The classes whose requests need analysis in a shard.
ANALYSED = ("cold", "edit", "check")


def _body(source: str, name: str = "-") -> str:
    return json.dumps({"source": source, "name": name, "options": {}})


def build_schedule(seed: int, seconds: int):
    """``(hot set, schedule)``; each entry has due, path, body and class.

    Requests are due at a fixed interval.  Every block of ``BLOCK``
    requests holds each class's exact share in a seeded order, so runs
    differ only in which request comes when.
    """
    rng = random.Random(f"serve-{seed}")
    suite = corpus.suite_programs()
    hot = [source for name, source in suite if name in HOT_SET]
    broken = [corpus.syntax_error(rng, [s for _, s in suite])[0] for _ in range(4)]
    deep = corpus.deep_nest()
    # Whole blocks only, so every run holds each class's exact share.
    total = BLOCK * max(1, math.ceil(RATE * seconds / BLOCK))
    arrivals = [(index + 0.5) / RATE for index in range(total)]
    kinds: List[str] = []
    while len(kinds) < total:
        block = [kind for kind, share in MIX for _ in range(round(share * BLOCK))]
        rng.shuffle(block)
        kinds += block
    del kinds[total:]
    schedule = []
    colds: List[tuple] = []
    for index, due in enumerate(arrivals):
        bases = [program for sent, program in colds if sent <= due - EDIT_MIN_AGE_S]
        if kinds[index] == "edit" and not bases:
            # Too early for an edit: trade places with the next cold request.
            later = next((j for j in range(index, total) if kinds[j] == "cold"), None)
            if later is not None:
                kinds[later] = "edit"
            kinds[index] = "cold"
        kind = kinds[index]
        path = "/v1/predict"
        if kind == "hot":
            body = _body(rng.choice(hot))
        elif kind == "edit":
            body = _body(rng.choice(bases).edited(rng).source())
        elif kind == "cold":
            program = corpus.ServeProgram.draw(rng)
            colds.append((due, program))
            body = _body(program.source())
        elif kind == "check":
            path = "/v1/check"
            body = _body(corpus.ServeProgram.draw(rng).source(), f"svc{index}.toy")
        elif kind == "malformed":
            body = rng.choice(('{"source": ', '{"name": "x"}', '[1, 2]'))
        elif kind == "parse":
            body = _body(rng.choice(broken))
        else:
            body = _body(deep)
        schedule.append({"due": due, "path": path, "body": body, "class": kind})
    return hot, schedule


class Server:
    """A booted sharded server with its event loop on a thread."""

    def __init__(self):
        from repro.server import ShardedServer

        self.server = ShardedServer(shards=SHARDS, incremental=True)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def post(self, path: str, body: str) -> dict:
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            connection.request("POST", path, body=body.encode(),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            document = json.loads(response.read())
        finally:
            connection.close()
        if response.status != 200 or document.get("status") != "ok":
            raise BenchmarkError(f"set-up request failed: HTTP {response.status}")
        return document

    def peak_rss_mb(self) -> float:
        """Largest high-water RSS over the shard processes."""
        peak = 0.0
        for handle in self.server.shards:
            with open(f"/proc/{handle.process.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        return peak

    def stop(self) -> None:
        if not self.server.drain(timeout=30):
            raise BenchmarkError("server did not drain")
        self.thread.join(timeout=10)


def _server_counters(document: dict) -> Dict[str, float]:
    server = document["server"]
    memory = server["cache"]["memory"]
    incremental = server.get("incremental") or {}
    out = {
        "mem_hits": memory["hits"], "mem_misses": memory["misses"],
        "evictions": memory["evictions"], "degraded": server["degraded"],
        "fn_hits": incremental.get("function_hits", 0),
        "fn_misses": incremental.get("function_misses", 0),
    }
    for shard in server["shards"]:
        out[f"served{shard['shard']}"] = shard["served"]
    return out


def expected_answer(key: tuple) -> Optional[dict]:
    """In-process ``analyze_payload`` for one ``(path, body)`` request."""
    from repro.server.service import analyze_payload, request_identity

    path, body = key
    command, source, name, options, config, _ = request_identity(
        json.loads(body), path.rsplit("/", 1)[1])
    try:
        return analyze_payload(command, source, name, options, config)
    except RecursionError:
        return None


def _oracle(schedule: List[dict], results: List[dict]) -> tuple:
    """Check every answer; returns (failed, mismatches, failed by class).

    Transport errors, timeouts, 5xx and 503 answers are failures.  An
    answer that differs from in-process ``analyze_payload`` on the same
    request is also a mismatch, which fails the run.
    """
    expected: Dict[tuple, Optional[dict]] = {}
    mismatches: List[str] = []
    failed_by: Dict[str, int] = {}
    for index, (item, result) in enumerate(zip(schedule, results)):
        status, kind = result["status"], item["class"]
        try:
            document = json.loads(result["response"])
        except ValueError:
            document = None
        failed = mismatch = False
        if status == 0 or status >= 500 or not isinstance(document, dict):
            failed = True
        elif status == 400:
            # Rejected before analysis: right only for hostile input.
            mismatch = kind not in ("malformed", "deep") or document.get("status") != "error"
        elif kind == "malformed":
            mismatch = True
        else:
            key = (item["path"], item["body"])
            if key not in expected:
                expected[key] = expected_answer(key)
            want = expected[key]
            mismatch = want is None or any(
                document.get(f) != want.get(f) for f in ("status", "output", "exit_code", "error"))
        if mismatch:
            mismatches.append(f"request {index} ({kind}): HTTP {status}, "
                              "answer differs from in-process analyze_payload")
        if failed or mismatch:
            failed_by[kind] = failed_by.get(kind, 0) + 1
    return sum(failed_by.values()), mismatches, failed_by


def run(seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    import repro.server  # noqa: F401 -- import is part of set-up
    hot, schedule = build_schedule(seed, seconds)
    load_s = time.perf_counter() - started

    setups = []
    for attempt in range(SETUPS):
        t0 = time.perf_counter()
        server = Server()
        try:
            for source in hot:
                server.post("/v1/predict", _body(source))
        except BaseException:
            server.stop()
            raise
        setups.append(load_s + time.perf_counter() - t0)
        if attempt < SETUPS - 1:
            server.stop()

    work = WORK_DIR / "serve"
    work.mkdir(parents=True, exist_ok=True)
    schedule_path, results_path = work / f"schedule{seed}.json", work / f"results{seed}.json"
    schedule_path.write_text(json.dumps(
        [{k: item[k] for k in ("due", "path", "body")} for item in schedule]))
    try:
        before = _server_counters(server.server.metrics_document())
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "loadgen.py"),
             "127.0.0.1", str(server.server.port), str(schedule_path), str(results_path)],
            timeout=len(schedule) / RATE + 120,
        )
        if proc.returncode != 0:
            raise BenchmarkError("load generator failed")
        after_doc = server.server.metrics_document()
        after = _server_counters(after_doc)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    # The serving window itself cannot be probed without the probe competing
    # with the server; the probes on both sides of it stand in for it.
    generated = json.loads(results_path.read_text())
    results = generated["results"]

    failed, mismatches, failed_by = _oracle(schedule, results)
    by_class: Dict[str, List[float]] = {}
    service: Dict[str, List[float]] = {}
    outside: Dict[str, List[float]] = {}
    hot_memory = answered = 0
    busy_ms = 0.0
    for item, result in zip(schedule, results):
        kind = item["class"]
        by_class.setdefault(kind, []).append(result["latency_ms"])
        try:
            document = json.loads(result["response"])
        except ValueError:
            continue
        elapsed = document.get("elapsed_ms") if isinstance(document, dict) else None
        if isinstance(elapsed, (int, float)):
            busy_ms += elapsed
            answered += 1
            service.setdefault(kind, []).append(elapsed)
            outside.setdefault(kind, []).append(result["latency_ms"] - elapsed)
            hot_memory += kind == "hot" and document.get("cached") == "memory"
    counts = {kind: len(values) for kind, values in sorted(by_class.items())}
    info = {
        "offered_rate_per_s": RATE, "shards": SHARDS, "requests": counts,
        "failed_by_class": failed_by,
        "shard_busy_share": busy_ms / 1000 / (generated["window_s"] * SHARDS),
        "failed_is_known_defect": "700-deep if nest: RecursionError, HTTP 500",
    }
    if not trace:
        analysed = [ms for kind in ANALYSED for ms in by_class[kind]]
        metrics = {
            "setup_s": median(setups),
            "p50_ms": percentile(analysed, 0.50),
            "p90_ms": percentile(analysed, 0.90),
            # The offered rate is fixed, so answers per second of wall time
            # would only repeat RATE; answers per second of shard busy time,
            # times the shard count, is the rate the shards could sustain.
            "throughput_per_s": answered * SHARDS / (busy_ms / 1000),
            "peak_rss_mb": peak_rss,
        }
        return {"metrics": metrics, "catalogue": END_TO_END, "attempted": len(results),
                "failed": failed, "mismatches": mismatches, "info": info,
                "samples": {"p50_ms": len(analysed), "p90_ms": len(analysed),
                            "throughput_per_s": answered}}

    spans = Spans()
    for index, (item, result) in enumerate(zip(schedule, results)):
        end = item["due"] + result["latency_ms"] / 1000
        parent = spans.add("serve.request", item["due"], end, op=index)
        spans.add("serve.exchange", item["due"] + result["send_offset_ms"] / 1000, end,
                  op=index, parent=parent)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    served = [delta[key] for key in delta if key.startswith("served")]
    metrics = {name: 0.0 for name in PER_LAYER}
    for kind in ("hot", "edit", "cold"):
        metrics[f"server.{kind}.service_ms"] = median(service[kind])
        metrics[f"server.{kind}.outside_service_ms"] = median(outside[kind])
    metrics.update({
        "server.cache.memory_hit_ratio": ratio(
            delta["mem_hits"], delta["mem_hits"] + delta["mem_misses"]),
        "server.cache.evictions": float(delta["evictions"]),
        "server.hot_affinity_ratio": hot_memory / len(by_class["hot"]),
        "server.queue.high_water": float(after_doc["server"]["queue"]["high_water"]),
        "server.shard_imbalance": max(served) / (sum(served) / len(served)),
        "server.degraded": float(delta["degraded"]),
        "server.gen_lag_p99_ms": percentile([r["lag_ms"] for r in results], 0.99),
        "incremental.function_hit_ratio": ratio(
            delta["fn_hits"], delta["fn_hits"] + delta["fn_misses"]),
        "incremental.function_misses": float(delta["fn_misses"]),
        "serve.hot_p50_ms": percentile(by_class["hot"], 0.50),
        "serve.hot_p99_ms": percentile(by_class["hot"], 0.99),
        "serve.edit_p50_ms": percentile(by_class["edit"], 0.50),
        "serve.edit_p90_ms": percentile(by_class["edit"], 0.90),
        "serve.cold_p50_ms": percentile(by_class["cold"], 0.50),
        "serve.cold_p90_ms": percentile(by_class["cold"], 0.90),
        "failed_ratio": failed / len(results),
        "trace.overhead_pct": 100 * Spans.cost_s(len(spans.records)) / generated["window_s"],
    })
    spans.dump(WORK_DIR / f"trace-serve-mixed-seed{seed}.json")
    return {"metrics": metrics, "catalogue": PER_LAYER, "attempted": len(results),
            "failed": failed, "mismatches": mismatches, "info": info, "samples": {}}
