"""Tests of the benchmark itself: catalogue, inputs, exact counts, output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch_suite, cli_oneshot, pipeline, serve_mixed  # noqa: E402
from perfbench.common import (  # noqa: E402
    ALL_WORKLOADS, END_TO_END, PER_LAYER, WORKLOADS, percentile,
)
from perfbench.pipeline import Totals, run_program  # noqa: E402

RUN = [sys.executable, "perfbench/run.py"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert "serve-mixed" in ALL_WORKLOADS and "serve-mixed" not in WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == {
        name: spec[:2] for name, spec in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99


def test_batch_corpus_repeats_per_seed_and_keeps_its_structure():
    first, again, held_out = (batch_suite.build_corpus(s) for s in (5, 5, 977))
    assert first == again
    assert first != held_out

    def structure(built):
        warmup, timed = built
        return len(warmup), sorted((kind, name) for kind, name, _ in timed)

    assert structure(first) == structure(held_out)


def test_serve_schedule_repeats_per_seed_and_keeps_its_mix():
    first = serve_mixed.build_schedule(5, 20)
    assert first == serve_mixed.build_schedule(5, 20)
    held_out = serve_mixed.build_schedule(977, 20)
    assert first[1] != held_out[1]
    assert first[0] == held_out[0]  # the hot working set is fixed
    for _, schedule in (first, held_out):
        assert len(schedule) == serve_mixed.RATE * 20
        shares = {}
        for item in schedule:
            shares[item["class"]] = shares.get(item["class"], 0) + 1 / len(schedule)
        assert abs(shares["hot"] - dict(serve_mixed.MIX)["hot"]) < 1e-9
        assert abs(shares["deep"] - dict(serve_mixed.MIX)["deep"]) < 1e-9
        assert {"hot", "edit", "cold", "check"} <= set(shares)


def test_serve_schedule_is_whole_blocks():
    # 30 s at the offered rate is a block and a half: rounded up to two.
    _, schedule = serve_mixed.build_schedule(5, 30)
    assert len(schedule) == 2 * serve_mixed.BLOCK


def test_cli_schedule_is_stratified_the_same_for_every_seed():
    corpus_ = cli_oneshot.Corpus(5)

    def kinds(seed):
        schedule = corpus_.schedule(seed)
        return [next(schedule)[2] for _ in range(80)]

    assert kinds(5) == kinds(977)
    assert kinds(5).count("deep") == 4 and kinds(5).count("malformed") == 4
    for start in range(0, 80, cli_oneshot.PATTERN):
        assert kinds(5)[start:start + cli_oneshot.PATTERN].count("deep") == 1


def test_within10_scores_the_fixture_profiles_as_the_evaluation_harness_does():
    from repro.evalharness import evaluate_workload, vrp_predictions
    from repro.evalharness.accuracy import average_cdfs, error_cdf
    from repro.workloads import get_workload

    profiles = json.loads((ROOT / "perfbench" / "fixtures" / "ref_profiles.json").read_text())
    names = ("fir", "isort", "queens")
    scored, cdfs = [], []
    for name in names:
        workload = get_workload(name)
        evaluation = evaluate_workload(workload, {"vrp": vrp_predictions})
        cdfs.append(error_cdf(evaluation.records["vrp"], thresholds=[10], weighted=True))
        source = dict(cli_oneshot.corpus.suite_programs())[name]
        scored.append((run_program(source, name).branches, profiles[name]))
    assert pipeline.within10_pct(scored) == average_cdfs(cdfs)[0]


def test_counts_repeat_exactly_between_passes():
    from repro.core import perf

    warmup, timed = batch_suite.build_corpus(3)

    def one_pass():
        perf.reset()
        for source in warmup:
            run_program(source, "warmup")
        totals = Totals()
        for _, name, source in timed[:8]:
            totals.add(run_program(source, name))
        return totals.fingerprint()

    assert one_pass() == one_pass()


def test_traced_batch_counts_repeat_exactly_across_runs():
    docs = [
        _last_json(subprocess.run(
            RUN + ["--workload", "batch-suite", "--seed", "4", "--seconds", "1",
                   "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout)
        for _ in range(2)
    ]
    counts = [{name: m["value"] for name, m in doc["metrics"].items()
               if m["unit"] in ("count", "ratio")} for doc in docs]
    assert counts[0] == counts[1]
    assert counts[0]["core.expr_evaluations"] > 0
    assert all(doc["correct"] and doc["failed"] == 0 for doc in docs)


def test_modules_loaded_probe_repeats_exactly():
    probe = [sys.executable, "-c",
             "import sys, repro.cli; print(len(sys.modules), 'numpy' in sys.modules)"]
    assert len({cli_oneshot.run_process(probe).stdout for _ in range(2)}) == 1


def test_cli_verdict_separates_wrong_output_from_the_known_defect():
    corpus_ = cli_oneshot.Corpus(5)
    path = cli_oneshot.corpus.EXAMPLES[0]
    want = corpus_.fixtures[path]["predict"]
    good = cli_oneshot.Call(want["stdout"], "", want["exit"], 1.0, 1.0)
    wrong = cli_oneshot.Call(want["stdout"] + "x", "", want["exit"], 1.0, 1.0)
    assert corpus_.verdict("predict", path, "fixture", good) == (False, None)
    failed, mismatch = corpus_.verdict("predict", path, "fixture", wrong)
    assert failed and mismatch

    traceback = cli_oneshot.Call("", "Traceback (most recent call last):\n  ...\n", 1, 1.0, 1.0)
    assert corpus_.verdict("predict", corpus_.deep, "deep", traceback) == (True, None)
    structured = cli_oneshot.Call("", "error: nesting too deep\n", 1, 1.0, 1.0)
    assert corpus_.verdict("predict", corpus_.deep, "deep", structured) == (False, None)

    broken = next(iter(corpus_.malformed))
    message = f"error: {corpus_.malformed[broken]}\n"
    assert corpus_.verdict("check", broken, "malformed",
                           cli_oneshot.Call("", message, 1, 1.0, 1.0)) == (False, None)
    assert corpus_.verdict("check", broken, "malformed",
                           cli_oneshot.Call("", "error: other\n", 1, 1.0, 1.0))[1]


def test_serve_oracle_flags_wrong_answers_and_counts_5xx_as_failed():
    from repro.server.service import analyze_payload

    source = "func main(n) {\n  if (n > 3) { return 1; }\n  return 0;\n}\n"
    body = json.dumps({"source": source, "name": "-", "options": {}})
    right = dict(analyze_payload("predict", source, "-", {}), elapsed_ms=1.0)
    wrong = dict(right, output=right["output"] + "x")
    schedule = [{"path": "/v1/predict", "body": body, "class": "cold"}] * 2 + [
        {"path": "/v1/predict", "body": "{", "class": "malformed"},
        {"path": "/v1/predict", "body": body, "class": "deep"},
    ]
    results = [
        {"status": 200, "response": json.dumps(right)},
        {"status": 200, "response": json.dumps(wrong)},
        {"status": 400, "response": json.dumps({"status": "error", "error": "bad"})},
        {"status": 500, "response": json.dumps({"status": "error"})},
    ]
    failed, mismatches, failed_by = serve_mixed._oracle(schedule, results)
    assert failed == 2
    assert failed_by == {"cold": 1, "deep": 1}
    assert len(mismatches) == 1 and "request 1" in mismatches[0]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
