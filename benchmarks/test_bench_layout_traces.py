"""§6 code layout and trace formation, measured across the workloads.

For every workload: lay out main() with Pettis-Hansen chaining driven by
*predicted* edge frequencies, form traces the same way, then measure
against the real (ref-input) execution:

* fall-through fraction, source order vs predicted layout;
* fraction of dynamic transfers staying inside a statically chosen trace.

The paper's claim is qualitative ("this approach can consistently make
an I-cache appear 2 or 3 times as large"); the reproduction asserts the
aggregate improvement, which is the part prediction quality controls.
"""

from benchmarks.conftest import emit
from repro.core import VRPPredictor
from repro.opt.layout import chain_layout, fallthrough_fraction
from repro.opt.superblock import dynamic_trace_coverage, form_traces
from repro.profiling import run_module


def measure(prepared_workloads):
    rows = []
    for prepared in prepared_workloads:
        workload = prepared.workload
        module = prepared.module
        function = module.function("main")
        module_prediction = VRPPredictor().predict_module(
            module, prepared.ssa_infos
        )
        prediction = module_prediction.functions["main"]

        run = run_module(
            module,
            args=workload.ref_args,
            input_values=workload.ref_inputs,
            max_steps=workload.max_steps,
        )
        dynamic = {
            (src, dst): count
            for (fn, src, dst), count in run.edge_counts.items()
            if fn == "main"
        }
        original = fallthrough_fraction(list(function.blocks), dynamic)
        optimised = fallthrough_fraction(
            chain_layout(function, prediction.edge_frequency), dynamic
        )
        traces = form_traces(function, prediction)
        coverage = dynamic_trace_coverage(traces, dynamic)
        rows.append((workload.name, original, optimised, coverage))
    return rows


def test_layout_and_traces(benchmark, results_dir, prepared_fp_suite, prepared_int_suite):
    rows = benchmark.pedantic(
        lambda: measure(prepared_fp_suite + prepared_int_suite), rounds=1, iterations=1
    )
    lines = ["Code layout and trace selection from static predictions", ""]
    lines.append(
        f"{'workload':>12s} {'fallthru orig':>14s} {'fallthru VRP':>13s} {'trace cover':>12s}"
    )
    for name, original, optimised, coverage in rows:
        lines.append(
            f"{name:>12s} {original:>13.1%} {optimised:>12.1%} {coverage:>11.1%}"
        )
    mean_original = sum(r[1] for r in rows) / len(rows)
    mean_optimised = sum(r[2] for r in rows) / len(rows)
    mean_coverage = sum(r[3] for r in rows) / len(rows)
    lines.append("")
    lines.append(
        f"{'mean':>12s} {mean_original:>13.1%} {mean_optimised:>12.1%} {mean_coverage:>11.1%}"
    )
    emit(results_dir, "layout_traces.txt", "\n".join(lines))

    # Predicted layout must clearly beat source order on average, and
    # trace selection must capture the majority of dynamic transfers.
    assert mean_optimised > mean_original + 0.10
    assert mean_coverage > 0.5
    # Layout should not regress on (almost) any individual workload.
    regressions = [name for name, orig, opt, _ in rows if opt + 0.02 < orig]
    assert len(regressions) <= 2, regressions
