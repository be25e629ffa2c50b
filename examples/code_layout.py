"""Profile-guided code layout from *static* predictions (paper §6).

Uses VRP's predicted edge frequencies to drive Pettis-Hansen block
chaining, then measures the real fall-through improvement with the
interpreter -- the "I-cache appears 2-3x larger" optimisation the paper
motivates, without ever running a profile.

Run:  python examples/code_layout.py
"""

from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis
from repro.lang import compile_source
from repro.opt.layout import chain_layout, fallthrough_fraction
from repro.profiling import run_module

PROGRAM = """
func main(n) {
  var hot = 0;
  var cold = 0;
  for (i = 0; i < 2000; i = i + 1) {
    var v = input() % 100;
    if (v < 95) {
      hot = hot + v;
    } else {
      cold = cold + v * v;    // rare path: should be laid out of line
    }
    if (hot > 1000000) {
      hot = hot / 2;          // overflow guard: essentially never taken
    }
  }
  return hot + cold;
}
"""


def main() -> None:
    module = compile_source(PROGRAM)
    function = module.function("main")
    info = prepare_for_analysis(function)
    prediction = analyse_function(function, info)

    original_order = list(function.blocks)
    optimised_order = chain_layout(function, prediction.edge_frequency)

    print("=== Block order ===")
    print(f"  original : {' '.join(original_order)}")
    print(f"  optimised: {' '.join(optimised_order)}")

    run = run_module(
        module, args=[0], input_values=[(i * 37) % 100 for i in range(2000)]
    )
    dynamic_edges = {
        (src, dst): count
        for (func, src, dst), count in run.edge_counts.items()
        if func == "main"
    }
    before = fallthrough_fraction(original_order, dynamic_edges)
    after = fallthrough_fraction(optimised_order, dynamic_edges)
    print()
    print("=== Dynamic fall-through fraction (higher = fewer taken jumps) ===")
    print(f"  source order   : {before:6.1%}")
    print(f"  VRP-driven     : {after:6.1%}")
    transfers = sum(dynamic_edges.values())
    saved = int((after - before) * transfers)
    print(f"  taken-branch executions avoided: {saved} of {transfers}")


if __name__ == "__main__":
    main()
