"""Whole-pipeline optimisation round trips on real workloads.

Runs the full §6 battery -- constant folding, copy folding, certain
branch folding, dead code elimination -- over workload programs, and
asserts the transformed module still verifies and computes *exactly*
the same results under the interpreter.  This is the "VRP as an
optimizer" claim exercised end to end.
"""

import pytest

from repro.core import VRPPredictor
from repro.ir import prepare_module, verify_function
from repro.lang import compile_source
from repro.opt.constfold import fold_constants, fold_copies
from repro.opt.dce import eliminate_dead_code, fold_certain_branches
from repro.profiling import run_module
from repro.workloads import get_workload

# Workloads with modest runtimes (the pipeline reruns them twice).
WORKLOAD_NAMES = ["interp", "histogram", "calc", "sieve", "triangle", "scan"]


def optimise_module(module, prediction):
    """Apply every rewrite to every function; return total changes."""
    changes = 0
    for name, function in module.functions.items():
        function_prediction = prediction.functions[name]
        changes += fold_constants(function, function_prediction)
        changes += fold_copies(function, function_prediction)
        changes += fold_certain_branches(function, function_prediction)
        changes += eliminate_dead_code(function)
    return changes


@pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
def test_optimised_workload_is_equivalent(workload_name):
    workload = get_workload(workload_name)

    baseline_module = compile_source(workload.source, module_name=workload.name)
    prepare_module(baseline_module)
    baseline = run_module(
        baseline_module,
        args=workload.train_args,
        input_values=workload.train_inputs,
        max_steps=workload.max_steps,
    )

    module = compile_source(workload.source, module_name=workload.name)
    ssa_infos = prepare_module(module)
    prediction = VRPPredictor().predict_module(module, ssa_infos)
    optimise_module(module, prediction)

    for name, function in module.functions.items():
        verify_function(
            function, ssa=True, param_names=set(ssa_infos[name].param_names.values())
        )

    optimised = run_module(
        module,
        args=workload.train_args,
        input_values=workload.train_inputs,
        max_steps=workload.max_steps,
        check_assertions=False,  # folds may orphan assertion inputs
    )
    assert optimised.return_value == baseline.return_value

    # The optimised program must not be slower (fewer or equal steps).
    assert optimised.steps <= baseline.steps


def test_pipeline_actually_changes_something():
    workload = get_workload("sieve")
    module = compile_source(workload.source, module_name=workload.name)
    ssa_infos = prepare_module(module)
    prediction = VRPPredictor().predict_module(module, ssa_infos)
    changes = optimise_module(module, prediction)
    assert changes > 0


def test_optimised_program_shrinks_on_dead_heavy_code():
    source = """
    func main(n) {
      var mode = 2;
      var t = 0;
      for (i = 0; i < 50; i = i + 1) {
        if (mode == 1) {
          t = t + i * i * i;
          t = t % 1000;
        } else {
          t = t + 1;
        }
      }
      return t;
    }
    """
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    size_before = module.instruction_count()
    prediction = VRPPredictor().predict_module(module, ssa_infos)
    optimise_module(module, prediction)
    assert module.instruction_count() < size_before
    result = run_module(module, args=[0], check_assertions=False)
    assert result.return_value == 50
