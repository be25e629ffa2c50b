"""Top-level constants and min/max/abs intrinsics."""

import pytest

import repro
from repro.lang.lowering import LoweringError, compile_source
from repro.profiling import run_module

from tests.helpers import compile_and_prepare


def run(source, args=None, inputs=None):
    module, _ = compile_and_prepare(source)
    return run_module(module, args=args or [0], input_values=inputs).return_value


class TestConstants:
    def test_const_in_expression(self):
        assert run("const K = 7; func main(n) { return K * 6; }") == 42

    def test_const_expression_folding(self):
        assert run(
            "const A = 4; const B = A * A + 2; func main(n) { return B; }"
        ) == 18

    def test_const_as_array_size(self):
        source = """
        const SIZE = 16;
        func main(n) {
          array buf[SIZE];
          for (i = 0; i < SIZE; i = i + 1) { buf[i] = i; }
          return buf[SIZE - 1];
        }
        """
        assert run(source) == 15

    def test_const_as_loop_bound_predicts_exactly(self):
        source = """
        const LIMIT = 25;
        func main(n) {
          var t = 0;
          for (i = 0; i < LIMIT; i = i + 1) { t = t + 1; }
          return t;
        }
        """
        probabilities = repro.compile_and_predict(source)
        (probability,) = probabilities.values()
        assert probability == pytest.approx(25 / 26)

    def test_assignment_to_const_rejected(self):
        with pytest.raises(LoweringError, match="assign to constant"):
            compile_source("const K = 1; func main(n) { K = 2; return K; }")

    def test_parameter_shadowing_const_rejected(self):
        with pytest.raises(LoweringError, match="shadows a constant"):
            compile_source("const K = 1; func main(K) { return K; }")

    def test_const_redefinition_rejected(self):
        with pytest.raises(LoweringError, match="redefined"):
            compile_source("const K = 1; const K = 2; func main(n) { return 0; }")

    def test_unknown_name_in_const_rejected(self):
        with pytest.raises(LoweringError, match="unknown name"):
            compile_source("const K = J + 1; func main(n) { return 0; }")

    def test_unknown_array_size_constant_rejected(self):
        with pytest.raises(LoweringError, match="not a known constant"):
            compile_source("func main(n) { array a[NOPE]; return 0; }")

    def test_non_positive_array_size_rejected(self):
        with pytest.raises(LoweringError, match="positive size"):
            compile_source("const Z = 0; func main(n) { array a[Z]; return 0; }")

    def test_const_division_by_zero_rejected(self):
        with pytest.raises(LoweringError, match="bad constant expression"):
            compile_source("const K = 1 / 0; func main(n) { return 0; }")


class TestIntrinsics:
    def test_min_max(self):
        assert run("func main(n) { return min(3, 8) + max(3, 8) * 10; }") == 83

    def test_abs(self):
        assert run("func main(n) { return abs(0 - 9) + abs(4); }") == 13

    def test_min_arity_checked(self):
        with pytest.raises(LoweringError, match="expects 2"):
            compile_source("func main(n) { return min(1); }")

    def test_abs_arity_checked(self):
        with pytest.raises(LoweringError, match="expects 1"):
            compile_source("func main(n) { return abs(1, 2); }")

    def test_user_function_overrides_intrinsic(self):
        source = """
        func min(a, b) { return 999; }
        func main(n) { return min(1, 2); }
        """
        assert run(source) == 999

    def test_intrinsic_ranges_propagate(self):
        source = """
        func main(n) {
          var clamped = min(n, 100);
          var raised = max(clamped, 0);
          if (raised <= 100) { return 1; }
          return 0;
        }
        """
        probabilities = repro.compile_and_predict(source)
        # raised is in [0:100] whatever n is: the branch is certain.
        (probability,) = probabilities.values()
        assert probability == pytest.approx(1.0)

    def test_clamp_pattern_bounds_check(self):
        source = """
        const SIZE = 32;
        func main(n) {
          array a[SIZE];
          var index = min(max(n, 0), SIZE - 1);
          a[index] = 1;
          return a[index];
        }
        """
        from repro.core.propagation import analyse_function
        from repro.ir.ssa import SSAInfo
        from repro.opt.boundscheck import SAFE, analyse_bounds_checks

        module, infos = compile_and_prepare(source)
        function = module.function("main")
        from repro.core.propagation import analyse_function as analyse_fn

        prediction = analyse_fn(function, infos["main"])
        reports = analyse_bounds_checks(function, prediction)
        assert all(report.classification == SAFE for report in reports)
