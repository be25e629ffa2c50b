"""Global-scheduling speculation and predicted-frequency inlining.

The paper's motivating arithmetic for probabilities over taken/not-taken
bits: "If each branch is taken 60% of the time, our instruction will
only be useful 36% of the time."  This example:

1. builds that exact situation and prints the hoisting table a global
   scheduler would consult (the 36% shows up);
2. inlines the hot, small calls chosen purely from *predicted* call-site
   frequencies, and verifies the transformed program still computes the
   same result.

Run:  python examples/speculation_and_inlining.py
"""

from repro.core import VRPPredictor
from repro.ir import prepare_module, verify_function
from repro.lang import compile_source
from repro.opt.function_order import function_order
from repro.opt.inlining import inline_hot_calls
from repro.opt.speculation import hoisting_candidates
from repro.profiling import run_module

PROGRAM = """
func weight(v) {
  return v * 3 + 1;
}

func main(n) {
  var score = 0;
  for (i = 0; i < 1000; i = i + 1) {
    var a = input() % 10;
    var b = input() % 10;
    if (a < 6) {            // taken 60% of the time
      if (b < 6) {          // taken 60% of the time
        score = score + weight(a + b);   // useful 36% of the time
      }
    }
  }
  return score;
}
"""


def main() -> None:
    module = compile_source(PROGRAM)
    ssa_infos = prepare_module(module)
    predictor = VRPPredictor()
    prediction = predictor.predict_module(module, ssa_infos)

    print("=== Branch probabilities ===")
    for (function, label), probability in sorted(prediction.all_branches().items()):
        print(f"  {function:8s} {label:10s} {probability:6.1%}")

    print()
    print("=== Speculation table (usefulness of hoisting block -> dominator) ===")
    main_prediction = prediction.functions["main"]
    for candidate in hoisting_candidates(module.function("main"), main_prediction):
        if candidate.speculation_depth >= 2 and 0.0 < candidate.usefulness < 1.0:
            print(
                f"  {candidate.block:12s} -> {candidate.target:12s} "
                f"useful {candidate.usefulness:6.1%} "
                f"(crosses {candidate.speculation_depth} dominators)"
            )

    print()
    print("=== Function processing order (hottest first, pre-inlining) ===")
    for name, frequency in function_order(module, prediction):
        print(f"  {name:10s} invoked ~{frequency:.0f}x")

    inputs = [(i * 13) % 10 for i in range(2000)]
    before = run_module(module, args=[0], input_values=inputs).return_value

    print()
    print("=== Inlining hot calls (predicted frequencies, no profile) ===")
    decisions = inline_hot_calls(module, prediction)
    for decision in decisions:
        print(
            f"  inlined {decision.callee} into {decision.caller} at "
            f"{decision.block_label} (predicted frequency {decision.frequency:.0f}x, "
            f"{decision.callee_size} instructions)"
        )
    verify_function(module.function("main"), ssa=True, param_names={"n.0"})
    after = run_module(module, args=[0], input_values=inputs).return_value
    print(f"  result before inlining: {before}")
    print(f"  result after inlining:  {after}  (identical: {before == after})")


if __name__ == "__main__":
    main()
