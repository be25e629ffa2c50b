"""Array bounds-check elimination with value ranges (paper §6).

Analyses a program with a mix of provably-safe, unknown, and provably
out-of-bounds array accesses, and reports what fraction of the *dynamic*
checks a JIT or safe-language runtime could drop -- cross-checked
against an actual interpreter run.

Run:  python examples/bounds_check_elimination.py
"""

from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis
from repro.lang import compile_source
from repro.opt.boundscheck import (
    analyse_bounds_checks,
    dynamic_checks_eliminated,
    eliminated_fraction,
)
from repro.profiling import run_module

PROGRAM = """
func main(n) {
  array histogram[64];
  array scratch[16];

  // Hot loop: index provably in [0, 63] -- checks removable.
  for (i = 0; i < 4096; i = i + 1) {
    var bucket = input() % 64;
    histogram[bucket] = histogram[bucket] + 1;
  }

  // Strided sweep: also provably safe.
  var total = 0;
  for (i = 0; i < 64; i = i + 4) {
    total = total + histogram[i];
  }

  // Cold path with an unknown index: the check must stay.
  if (n >= 0) {
    if (n < 16) {
      scratch[n] = total;
    }
  }
  return total;
}
"""


def main() -> None:
    module = compile_source(PROGRAM)
    function = module.function("main")
    info = prepare_for_analysis(function)
    prediction = analyse_function(function, info)

    reports = analyse_bounds_checks(function, prediction)
    print("=== Access classification ===")
    for report in reports:
        print(
            f"  {report.kind:5s} {report.array}[{report.index_range}] "
            f"(size {report.size}) in {report.block_label}: {report.classification}"
        )

    print()
    static = eliminated_fraction(reports)
    dynamic = dynamic_checks_eliminated(reports, prediction)
    print(f"static accesses proven safe : {static:6.1%}")
    print(f"predicted dynamic checks cut: {dynamic:6.1%}")

    run = run_module(module, args=[7], input_values=[i * 31 % 4096 for i in range(4096)])
    total_dynamic = 0
    safe_dynamic = 0
    safe_blocks = {r.block_label for r in reports if r.classification == "safe"}
    per_block = {}
    for report in reports:
        per_block[report.block_label] = per_block.get(report.block_label, 0) + 1
    for (func, label), count in run.block_counts.items():
        if func != "main" or label not in per_block:
            continue
        executed = count * per_block[label]
        total_dynamic += executed
        if label in safe_blocks:
            safe_dynamic += executed
    print(f"measured dynamic checks cut : {safe_dynamic / total_dynamic:6.1%}")


if __name__ == "__main__":
    main()
