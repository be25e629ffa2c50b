"""A full compiler-style pipeline over a multi-function program.

Demonstrates everything a compiler would do with VRP (paper §6):

1. parse and lower a program with helpers, arrays and loops;
2. run interprocedural value range propagation (jump functions);
3. report branch predictions and where heuristics were needed;
4. apply the optimisation clients: constant/copy subsumption,
   unreachable code, bounds-check elimination, alias disambiguation;
5. perform procedure cloning for divergent call contexts and show the
   per-clone predictions sharpening.

Run:  python examples/compiler_pipeline.py
"""

from repro.core import VRPPredictor, clone_for_contexts
from repro.ir import prepare_module
from repro.ir.ssa import SSAInfo
from repro.lang import compile_source
from repro.opt.array_alias import collect_accesses, independent_pairs
from repro.opt.boundscheck import analyse_bounds_checks, eliminated_fraction
from repro.opt.constfold import constants_from_prediction
from repro.opt.unreachable import dead_edges, unreachable_blocks

PROGRAM = """
func clamp(v, limit) {
  if (v > limit) { return limit; }
  if (v < 0) { return 0; }
  return v;
}

func smooth(width) {
  array buf[256];
  for (i = 0; i < width; i = i + 1) {
    buf[i] = clamp(input() % 300, 255);
  }
  var total = 0;
  for (i = 1; i < width - 1; i = i + 1) {
    buf[i] = (buf[i - 1] + buf[i] + buf[i + 1]) / 3;
    total = total + buf[i];
  }
  return total;
}

func main(n) {
  var debug = 0;
  var result = smooth(64) + smooth(240);
  if (debug == 1) { result = result * 0; }   // provably dead
  return result;
}
"""


def main() -> None:
    module = compile_source(PROGRAM)
    ssa_infos = prepare_module(module)
    predictor = VRPPredictor()
    prediction = predictor.predict_module(module, ssa_infos)

    print("=== Branch predictions (interprocedural VRP) ===")
    for (function, label), probability in sorted(prediction.all_branches().items()):
        marker = " (heuristic)" if (function, label) in prediction.heuristic_branches() else ""
        print(f"  {function:8s} {label:10s} P(taken) = {probability:6.1%}{marker}")

    main_prediction = prediction.functions["main"]
    print()
    print("=== Subsumed classical optimisations in main() ===")
    constants = constants_from_prediction(main_prediction)
    print(f"  constants discovered: {len(constants)}")
    dead = unreachable_blocks(module.function("main"), main_prediction)
    print(f"  unreachable blocks:   {sorted(dead)}")
    print(f"  never-taken edges:    {dead_edges(module.function('main'), main_prediction)}")

    smooth_prediction = prediction.functions["smooth"]
    print()
    print("=== Array clients in smooth() ===")
    reports = analyse_bounds_checks(module.function("smooth"), smooth_prediction)
    print(
        f"  bounds checks: {len(reports)} accesses, "
        f"{eliminated_fraction(reports):.0%} proven redundant"
    )
    accesses = collect_accesses(module.function("smooth"), smooth_prediction)
    pairs = independent_pairs(accesses)
    independent = sum(1 for pair in pairs if pair.independent)
    print(f"  alias pairs: {independent}/{len(pairs)} proven independent")

    print()
    print("=== Procedure cloning for divergent contexts ===")
    report = clone_for_contexts(module, prediction)
    for original, variants in report.variants.items():
        print(f"  {original} -> {variants}")
    # Re-analyse with the clones in place.
    for name, function in module.functions.items():
        if name not in ssa_infos:
            info = SSAInfo()
            for param in function.params:
                info.param_names[param] = f"{param}.0"
            ssa_infos[name] = info
    refined = predictor.predict_module(module, ssa_infos)
    for original, variants in report.variants.items():
        for variant in variants:
            loops = {
                label: probability
                for label, probability in refined.functions[variant]
                .branch_probability.items()
            }
            print(f"    {variant:16s} {', '.join(f'{l}={p:.3f}' for l, p in sorted(loops.items()))}")


if __name__ == "__main__":
    main()
