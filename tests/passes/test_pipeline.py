"""PassPipeline semantics: ordering, invalidation, and round trips."""

from __future__ import annotations

import pytest

from repro.core import VRPPredictor
from repro.ir import prepare_module
from repro.ir.printer import format_module
from repro.lang import compile_source
from repro.opt.constfold import fold_constants, fold_copies
from repro.opt.dce import eliminate_dead_code, fold_certain_branches
from repro.passes import AnalysisCache, PassPipeline, run_pipeline
from repro.workloads import get_workload

from tests.helpers import PAPER_EXAMPLE, compile_and_prepare

OPTIMIZE_SEQUENCE = ["fold-constants", "fold-copies", "fold-branches", "dce"]

# A function with an obviously dead definition: plain dead code
# elimination (no folds required) must remove it.
DEAD_DEF = """
func main(n) {
  var unused = n * 3;
  var s = 0;
  for (i = 0; i < 5; i = i + 1) { s = s + 1; }
  return s;
}
"""


def _workload_module(name="sieve"):
    workload = get_workload(name)
    module = compile_source(workload.source, module_name=workload.name)
    infos = prepare_module(module)
    return module, infos


def reference_optimise(module, prediction):
    """The free-function sequence from tests/integration, verbatim."""
    changes = 0
    for name, function in module.functions.items():
        function_prediction = prediction.functions[name]
        changes += fold_constants(function, function_prediction)
        changes += fold_copies(function, function_prediction)
        changes += fold_certain_branches(function, function_prediction)
        changes += eliminate_dead_code(function)
    return changes


class TestOrderingDeterminism:
    def test_same_input_same_order_same_output(self):
        first_module, first_infos = _workload_module()
        second_module, second_infos = _workload_module()
        first = run_pipeline(first_module, first_infos, pipeline="optimize")
        second = run_pipeline(second_module, second_infos, pipeline="optimize")
        assert [run.name for run in first.runs] == OPTIMIZE_SEQUENCE
        assert [run.name for run in second.runs] == OPTIMIZE_SEQUENCE
        assert [run.changed for run in first.runs] == [
            run.changed for run in second.runs
        ]
        assert format_module(first_module) == format_module(second_module)

    def test_named_pipeline_matches_explicit_pass_list(self):
        named_module, named_infos = _workload_module()
        listed_module, listed_infos = _workload_module()
        named = run_pipeline(named_module, named_infos, pipeline="optimize")
        listed = run_pipeline(listed_module, listed_infos, passes=OPTIMIZE_SEQUENCE)
        assert [run.name for run in named.runs] == [run.name for run in listed.runs]
        assert format_module(named_module) == format_module(listed_module)


class TestPreservesInvalidation:
    def test_preserved_analysis_survives_a_mutating_pass(self):
        module, infos = compile_and_prepare(DEAD_DEF)
        cache = AnalysisCache(module, infos, enabled=True)
        function = module.main
        loops_before = cache.loops(function)
        prediction_before = cache.prediction()

        result = PassPipeline(["dce"]).run(module, cache=cache)

        run = result.run_of("dce")
        assert run is not None and run.changed > 0
        assert run.invalidated > 0
        # dce preserves the structural analyses: loop info must be served
        # from the cache (identity, not merely equality) ...
        assert cache.loops(function) is loops_before
        # ... while the prediction, outside its preserves set, is
        # recomputed on the next request.
        assert cache.prediction() is not prediction_before
        assert cache.invalidations["prediction"] == 1
        assert "loops" not in cache.invalidations

    def test_non_mutating_pass_invalidates_nothing(self):
        module, infos = compile_and_prepare(PAPER_EXAMPLE)
        cache = AnalysisCache(module, infos, enabled=True)
        prediction_before = cache.prediction()
        result = PassPipeline(["unreachable"]).run(module, cache=cache)
        assert result.run_of("unreachable").invalidated == 0
        assert cache.prediction() is prediction_before

    def test_no_change_no_invalidation(self):
        # A mutating pass that finds nothing to rewrite must not drop
        # the cache: invalidation is gated on an actual change.
        module, infos = compile_and_prepare(DEAD_DEF)
        cache = AnalysisCache(module, infos, enabled=True)
        PassPipeline(["dce"]).run(module, cache=cache)
        prediction = cache.prediction()
        second = PassPipeline(["dce"]).run(module, cache=cache)
        assert second.run_of("dce").changed == 0
        assert second.run_of("dce").invalidated == 0
        assert cache.prediction() is prediction


class TestRoundTrip:
    @pytest.mark.parametrize("workload_name", ["sieve", "calc"])
    def test_passes_match_the_free_functions(self, workload_name):
        ref_module, ref_infos = _workload_module(workload_name)
        prediction = VRPPredictor().predict_module(ref_module, ref_infos)
        ref_changes = reference_optimise(ref_module, prediction)

        pipe_module, pipe_infos = _workload_module(workload_name)
        result = run_pipeline(pipe_module, pipe_infos, passes=OPTIMIZE_SEQUENCE)

        assert result.changed == ref_changes
        assert format_module(pipe_module) == format_module(ref_module)

    def test_prediction_is_computed_once_across_the_fold_passes(self):
        module, infos = _workload_module()
        result = run_pipeline(module, infos, pipeline="optimize")
        # fold-constants misses, fold-copies and fold-branches hit: the
        # folds declare they preserve the prediction, so one module-wide
        # prediction feeds all three -- same contract as the reference
        # sequence's single upfront predict_module call.
        assert result.cache.misses["prediction"] == 1
        assert result.cache.hits["prediction"] >= 2
